"""Shared helpers for the benchmark harness.

Every benchmark both *times* a representative operation (pytest-benchmark)
and *regenerates* its paper artifact (the table/figure rows).  The rows are
printed and also written under ``benchmarks/results/`` so they survive
pytest's output capture and can be diffed against EXPERIMENTS.md.

Coarse one-shot timings come from the observability registry
(``repro.obs``): operations run inside a ``span()`` and throughput is read
back out of the registry snapshot, so the artifact numbers are produced by
the same instrumentation the library itself reports -- no ad-hoc
``time.perf_counter()`` bookkeeping in benchmark files.
"""

from pathlib import Path

import pytest

from repro.obs import span, use_registry

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def run_once(benchmark):
    """Run an artifact-generation callable once under pytest-benchmark.

    Artifact tests regenerate a paper table/figure; timing them once keeps
    them visible under ``--benchmark-only`` (which skips non-benchmark
    tests) and records how long each artifact takes to produce.
    """

    def _run(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1)

    return _run


@pytest.fixture
def metrics_registry():
    """A fresh metrics registry installed for the duration of one test.

    Everything the library records during the test -- encode bytes, fetch
    counts -- lands here, isolated from other tests; read it back with
    ``metrics_registry.snapshot()``, and span timings with
    ``metrics_registry.host_snapshot()``.
    """
    with use_registry() as registry:
        yield registry


@pytest.fixture
def cold_warm_mbps(metrics_registry):
    """Measure *fn* cold and warm, as median-of-N throughput in MB/s.

    Single runs on a shared machine are noise (a 2x swing between runs is
    routine); ratchet comparisons need stable numbers.  Each phase runs the
    callable ``rounds`` times inside registry spans and takes the median:

    - *cold*: every round starts from empty plan caches (GF(256) plans,
      packed pair tables, AES key schedules are all dropped first), so the
      number includes plan-build cost -- the first-touch experience.
    - *warm*: one unmeasured warm-up run, then ``rounds`` measured rounds
      with caches hot -- the steady-state archival-ingest experience.

    Wall-clock costs are read back out of the registry's host part, so the
    numbers come from the same instrumentation the library itself reports.
    """

    def _measure(name: str, fn, n_bytes: int, rounds: int = 5) -> tuple[float, float]:
        import statistics

        from repro.crypto.aes import clear_key_caches
        from repro.gmath.kernel import clear_plan_caches

        def _round(phase: str, index: int) -> float:
            label = f"bench.{name}.{phase}{index}"
            with span(label):
                fn()
            histograms = metrics_registry.host_snapshot()["histograms"]
            wall = histograms[f"span_wall_seconds{{span={label}}}"]["sum"]
            return n_bytes / wall / 1e6

        cold = []
        for i in range(rounds):
            clear_plan_caches()
            clear_key_caches()
            cold.append(_round("cold", i))
        fn()  # warm-up: populate every cache before the warm phase
        warm = [_round("warm", i) for i in range(rounds)]
        return statistics.median(cold), statistics.median(warm)

    return _measure


@pytest.fixture(scope="session")
def emit_artifact():
    """Print an artifact and persist it to benchmarks/results/<name>.txt."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit
