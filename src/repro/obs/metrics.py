"""Process-wide metrics: counters, gauges, and exponential-bucket histograms.

The archival pipeline is a byte-touching machine whose costs the paper
tabulates (Figure 1's storage axis, Table 1's bands, the Section 3.2
re-encryption arithmetic); this module is how the reproduction *measures*
instead of estimating.  It is dependency-free (stdlib only) so every layer
-- down to the GF(256) substrate -- can record into it without import
cycles or optional extras.

Naming convention (enforced socially, documented in DESIGN.md):

    <subsystem>_<noun>_<unit>

e.g. ``secretsharing_encode_bytes_total``, ``storage_shares_lost_total``,
``span_wall_seconds``.  Counters end in ``_total``; histograms end in their
unit (``_seconds``, ``_bytes``).  Labels qualify a metric without changing
its identity: ``storage_shares_lost_total{reason=offline}``.

Registry discipline: one process-wide registry by default (instrumentation
deep in the library has no instance to hang state on), swappable for test
isolation via :func:`use_registry` / :func:`set_registry`.  Snapshots are
deterministic: plain dicts with sorted keys, no timestamps.

Host time (span and batch timings) goes through :func:`observe_host` into a
separate part that ``snapshot()`` never returns; ``host_snapshot()`` reads it.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from typing import Sequence

from repro.errors import ParameterError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "exponential_buckets",
    "get_registry",
    "set_registry",
    "use_registry",
    "inc",
    "observe",
    "observe_host",
    "set_gauge",
]


class Counter:
    """A monotonically increasing count (events, bytes, shares...).

    ``inc`` is a read-modify-write (``self.value += amount`` is a LOAD,
    an ADD, and a STORE the interpreter may interleave), and counters are
    bumped from kernel/batch worker threads -- so it runs under a
    per-counter lock.  Uncontended acquisition is tens of nanoseconds;
    a lost increment is an observability lie that lasts forever.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ParameterError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (objects held, nodes online...).

    ``set`` is a single STORE_ATTR of an immutable float -- last-writer-wins
    is the documented gauge semantics, so it stays lock-free (allowlisted as
    GIL-atomic in ``[tool.archlint.concurrency]``).  ``inc``/``dec`` are
    read-modify-writes and take the per-gauge lock.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


def exponential_buckets(start: float, factor: float, count: int) -> tuple[float, ...]:
    """Bucket upper bounds ``start * factor**i`` for ``i in range(count)``.

    Exponential buckets cover the microsecond-to-seconds span archival
    operations actually occupy with a fixed, small bucket count.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise ParameterError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor**i for i in range(count))


#: Default duration buckets: 1 us .. ~4 s in x4 steps (12 buckets + overflow).
DEFAULT_BUCKETS = exponential_buckets(1e-6, 4.0, 12)


class Histogram:
    """Distribution sketch: exponential buckets plus count/sum/min/max.

    ``observe`` updates five fields that must stay mutually consistent
    (``sum/count`` is the mean; bucket totals must equal ``count``), so the
    whole update runs under a per-histogram lock -- there is no GIL-atomic
    story for a five-field invariant.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum", "min", "max", "_lock")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ParameterError("histogram bounds must be sorted and non-empty")
        self.bounds = tuple(float(b) for b in bounds)
        # One extra bucket for observations above the last bound.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect_left(self.bounds, value)] += 1
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the *q*-quantile (q in [0, 1]) from the buckets.

        Linear interpolation inside the bucket holding the quantile rank --
        the standard Prometheus ``histogram_quantile`` estimator -- clamped
        to the observed min/max so tails never extrapolate past real data.
        Deterministic: a pure function of the bucket counts, so two
        identically-seeded runs report byte-identical percentiles.
        """
        if not 0 <= q <= 1:
            raise ParameterError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.bucket_counts):
            if not bucket_count:
                continue
            if cumulative + bucket_count >= rank:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                fraction = (rank - cumulative) / bucket_count
                value = lower + (upper - lower) * max(fraction, 0.0)
                return min(max(value, self.min), self.max)
            cumulative += bucket_count
        return self.max

    def quantiles(self, qs: Sequence[float]) -> dict[float, float]:
        """``{q: quantile(q)}`` for every *q* in *qs*."""
        return {q: self.quantile(q) for q in qs}


def _label_key(labels: dict[str, object]) -> tuple[tuple[str, str], ...]:
    """The registry key part of *labels*: ``(name, str(value))`` pairs
    sorted by name, so keyword order never splits a metric."""
    if not labels:
        return ()
    if len(labels) == 1:
        ((name, value),) = labels.items()
        return ((name, str(value)),)
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_name(name: str, label_key: tuple[tuple[str, str], ...]) -> str:
    if not label_key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in label_key)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Holds every metric of one measurement domain (usually: the process)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[tuple, Counter] = {}
        self._gauges: dict[tuple, Gauge] = {}
        self._histograms: dict[tuple, Histogram] = {}
        #: Host-time histograms: never part of :meth:`snapshot`.
        self._host_histograms: dict[tuple, Histogram] = {}

    # -- metric accessors (create on first use) --------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.setdefault(key, Counter())
        return metric

    def gauge(self, name: str, **labels) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.setdefault(key, Gauge())
        return metric

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        return self._histogram(self._histograms, name, bounds, labels)

    def host_histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS, **labels
    ) -> Histogram:
        """A histogram of host time, kept out of :meth:`snapshot`."""
        return self._histogram(self._host_histograms, name, bounds, labels)

    def _histogram(
        self, table: dict, name: str, bounds: tuple[float, ...], labels: dict
    ) -> Histogram:
        key = (name, _label_key(labels))
        metric = table.get(key)
        if metric is None:
            with self._lock:
                metric = table.setdefault(key, Histogram(bounds))
        return metric

    # -- bulk operations -------------------------------------------------------

    def reset(self) -> None:
        """Drop every metric, host part too (test isolation; benchmark runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._host_histograms.clear()

    def snapshot(self) -> dict:
        """A deterministic, JSON-able view of every metric but host time.

        Counters/gauges map rendered name -> value; histograms map rendered
        name -> ``{count, sum, mean, min, max, buckets}`` where ``buckets``
        is a list of ``[upper_bound, count]`` pairs (only non-empty buckets,
        ``None`` bound for the overflow bucket).

        Safe to call while worker threads record: the registry lock pins the
        metric dicts (a racing first-use ``setdefault`` would otherwise
        resize them mid-iteration), and each histogram is read under its own
        lock so count/sum/buckets are one consistent cut, never a torn view
        where the buckets have an observation the sum hasn't.
        """
        with self._lock:
            counter_items = list(self._counters.items())
            gauge_items = list(self._gauges.items())
            histogram_items = list(self._histograms.items())
        counters = {
            _render_name(name, labels): metric.value
            for (name, labels), metric in counter_items
        }
        gauges = {
            _render_name(name, labels): metric.value
            for (name, labels), metric in gauge_items
        }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": _render_histograms(histogram_items),
        }

    def host_snapshot(self) -> dict:
        """The host-time part, ``{"histograms": ...}``; differs run to run."""
        with self._lock:
            histogram_items = list(self._host_histograms.items())
        return {"histograms": _render_histograms(histogram_items)}


def _render_histograms(items: list[tuple[tuple, Histogram]]) -> dict:
    histograms = {}
    for (name, labels), metric in items:
        bounds = list(metric.bounds) + [None]
        with metric._lock:
            histograms[_render_name(name, labels)] = {
                "count": metric.count,
                "sum": metric.sum,
                "mean": metric.mean,
                "min": metric.min if metric.count else None,
                "max": metric.max if metric.count else None,
                "buckets": [
                    [bounds[i], c] for i, c in enumerate(metric.bucket_counts) if c
                ],
            }
    return dict(sorted(histograms.items()))


#: The process-wide registry deep instrumentation records into.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The currently active registry."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the active registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry | None = None):
    """Temporarily install *registry* (a fresh one by default) as active.

    The idiom for isolated measurement::

        with use_registry() as reg:
            archive.store("doc", data)
        reg.snapshot()
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


# -- module-level shorthands used by instrumentation sites ---------------------
#
# These resolve the active registry per call, so code that pre-imports them
# still records into whatever registry a test has installed.  ``inc`` and
# ``observe`` probe the registry's dicts directly (a dict read is atomic);
# only a metric's first use takes the locked path in ``counter`` or
# ``histogram``.


def inc(name: str, amount: int | float = 1, **labels) -> None:
    registry = _REGISTRY
    metric = registry._counters.get((name, _label_key(labels)))
    if metric is None:
        metric = registry.counter(name, **labels)
    metric.inc(amount)


def observe(name: str, value: float, **labels) -> None:
    registry = _REGISTRY
    metric = registry._histograms.get((name, _label_key(labels)))
    if metric is None:
        metric = registry.histogram(name, **labels)
    metric.observe(value)


def observe_host(name: str, value: float, **labels) -> None:
    """Record a host-time measurement (kept out of ``snapshot()``)."""
    _REGISTRY.host_histogram(name, **labels).observe(value)


def set_gauge(name: str, value: float, **labels) -> None:
    _REGISTRY.gauge(name, **labels).set(value)
