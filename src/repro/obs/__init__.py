"""Observability: metrics, tracing, and profiling hooks.

The paper's thesis is a *measured* cost/security trade-off; this package is
the measurement substrate.  Three pieces, all dependency-free:

- :mod:`repro.obs.metrics` -- process-wide registry of counters, gauges, and
  exponential-bucket histograms (swap with ``use_registry()`` for isolation);
- :mod:`repro.obs.tracing` -- ``span()`` context manager for nested
  wall-clock/CPU traces with structured logging;
- :mod:`repro.obs.profiling` -- the ``@profiled`` decorator hook.

Every hot layer (secret sharing, crypto, storage, integrity, the archive
facade) records here; ``SecureArchive.metrics_snapshot()`` and
``python -m repro.analysis --metrics`` read it back out.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exponential_buckets,
    get_registry,
    inc,
    observe,
    observe_host,
    set_gauge,
    set_registry,
    use_registry,
)
from repro.obs.profiling import profiled
from repro.obs.tracing import Span, current_span, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "current_span",
    "exponential_buckets",
    "get_registry",
    "inc",
    "observe",
    "observe_host",
    "profiled",
    "set_gauge",
    "set_registry",
    "span",
    "use_registry",
]
