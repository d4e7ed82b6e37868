"""Nested wall-clock/CPU spans with structured logging output.

A span measures one operation end to end::

    with span("archive.store", object_id="doc") as s:
        ...
    s.wall_s  # seconds elapsed

Spans nest: a ``retrieve`` span opened inside a ``renew`` span records its
parent and depth, so a trace of one maintenance epoch reads as a tree.  On
exit every span

- feeds ``span_wall_seconds{span=<name>}`` and ``span_cpu_seconds{span=...}``
  host-time histograms (the registry's host part, read with
  ``host_snapshot()``) plus a ``spans_total{span=...}`` counter in the
  active :mod:`repro.obs.metrics` registry, and
- emits one structured DEBUG line on the ``repro.obs.trace`` logger
  (``span=<name> depth=<d> wall_ms=<w> cpu_ms=<c> ...labels``), so tracing
  costs nothing unless that logger is enabled.

Thread safety: the span stack is thread-local; concurrent threads produce
independent trees over the shared registry.
"""

from __future__ import annotations

import logging
import threading
import time
from contextlib import contextmanager

from repro.obs import metrics

__all__ = ["Span", "span", "current_span"]

logger = logging.getLogger("repro.obs.trace")

_STACK = threading.local()


def _stack() -> list["Span"]:
    stack = getattr(_STACK, "spans", None)
    if stack is None:
        stack = _STACK.spans = []
    return stack


class Span:
    """One timed operation; exposed while open and after close."""

    __slots__ = (
        "name",
        "labels",
        "parent",
        "depth",
        "children",
        "wall_s",
        "cpu_s",
        "_wall_start",
        "_cpu_start",
    )

    def __init__(self, name: str, labels: dict, parent: "Span | None"):
        self.name = name
        self.labels = labels
        self.parent = parent
        self.depth = 0 if parent is None else parent.depth + 1
        self.children: list[Span] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        if parent is not None:
            parent.children.append(self)

    def _close(self) -> None:
        self.wall_s = time.perf_counter() - self._wall_start
        self.cpu_s = time.process_time() - self._cpu_start

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, depth={self.depth}, "
            f"wall_ms={self.wall_s * 1e3:.3f}, children={len(self.children)})"
        )


def current_span() -> Span | None:
    """The innermost open span on this thread, if any."""
    stack = _stack()
    return stack[-1] if stack else None


@contextmanager
def span(name: str, **labels):
    """Open a named span; on exit record its timings and log one line."""
    s = Span(name, labels, current_span())
    stack = _stack()
    stack.append(s)
    try:
        yield s
    finally:
        stack.pop()
        s._close()
        metrics.inc("spans_total", span=name)
        metrics.observe_host("span_wall_seconds", s.wall_s, span=name)
        metrics.observe_host("span_cpu_seconds", s.cpu_s, span=name)
        if logger.isEnabledFor(logging.DEBUG):
            extra = "".join(f" {k}={v}" for k, v in sorted(labels.items()))
            logger.debug(
                "span=%s depth=%d wall_ms=%.3f cpu_ms=%.3f%s",
                name,
                s.depth,
                s.wall_s * 1e3,
                s.cpu_s * 1e3,
                extra,
            )
