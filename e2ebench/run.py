"""End-to-end archive benchmark: one workload, one seed, one JSON result.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload tiered-renewal --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs an
untraced and a traced pass of the same seed and reports the per-layer
metrics (spans go to ``.bench_out/<workload>.spans.jsonl``).  The last line
of standard output is the result object; the line before it records the
host, a host-speed probe, the seed and the sample counts.  See
``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: ``--seconds`` the workload counts are calibrated for: at this value one
#: run measures 20 to 35 seconds of client calls on a 2-core host.  Other
#: values scale every count linearly.
REFERENCE_SECONDS = 25
#: Archive constructions timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: The benchmark's definition.  A result reports the end-to-end metrics it
#: gates; the run record takes the others, under ``ungated`` (README, Noise).
BENCHMARK = ROOT / "BENCHMARK.json"
#: Steps of one host-speed probe loop (about 40 ms on a 2-core host).
PROBE_STEPS = 9_000


def import_program():
    """Put the checkout's ``src`` first on the path and import the program.

    Refuses to run against anything but the sources next to this file, so a
    directory without them fails instead of measuring some other copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"e2ebench: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"e2ebench: imported repro from {repro.__file__}, not {SRC}")


class CountingHandler(logging.Handler):
    """Counts the program's log records instead of printing them."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


def capture_program_logs() -> CountingHandler:
    handler = CountingHandler()
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    logger.propagate = False
    return handler


def host_fingerprint() -> dict:
    import numpy

    from repro.config import kernel_workers
    from repro.core.archive import SecureArchive

    return {
        "cpu_count": os.cpu_count(),
        "kernel_workers": kernel_workers(),
        "batch_workers": SecureArchive._BATCH_WORKERS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def host_probe() -> float:
    """Seconds for a fixed loop of interpreter and small-array numpy work,
    median of five.

    Taken before and after the client calls and written to the run record
    only: a run whose probe reads far from another's ran in another host
    state.  No metric is scaled by it.  The loop mixes the two kinds of work
    the client calls spend most time in; a hashlib loop barely moves when
    the host slows them down.
    """
    import numpy as np

    base = np.arange(1024, dtype=np.uint32)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        words = base.copy()
        acc = 0
        for step in range(PROBE_STEPS):
            words += base
            words ^= words >> np.uint32(7)
            for k in range(8):
                acc = (acc + step * k) ^ (acc >> 3)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result, setup_times: list[float], retained: int) -> tuple[dict, dict]:
    """The user-visible metrics of an untraced pass, plus the sample counts."""
    import workloads as wl

    metrics = {"setup_s": metric(statistics.median(setup_times), "s")}
    samples = {"setup": len(setup_times)}
    for kind in ("store", "retrieve"):
        latencies = result.latencies[kind]
        samples[kind] = len(latencies)
        if not latencies:
            continue
        pct = wl.tail_percentile(len(latencies))
        samples[f"{kind}_tail_percentile"] = pct
        metrics[f"{kind}_mbps"] = metric(result.user_bytes[kind] / 1e6 / sum(latencies), "MB/s")
        metrics[f"{kind}_p50_ms"] = metric(statistics.median(latencies) * 1e3, "ms")
        metrics[f"{kind}_tail_ms"] = metric(wl.percentile(latencies, pct) * 1e3, "ms")
    maintain = result.latencies["maintain"]
    samples["maintain"] = len(maintain)
    if maintain:
        metrics["maintain_mbps"] = metric(
            result.user_bytes["maintain"] / 1e6 / sum(maintain), "MB/s"
        )
    metrics["overhead_x"] = metric(result.overhead_x, "ratio")
    metrics["mem_per_user_byte"] = metric(retained / result.live_bytes, "ratio")
    metrics["ok_op_frac"] = metric(
        (result.attempted - result.failed) / result.attempted, "ratio"
    )
    return metrics, samples


def run_untraced(workload, seed: int, scale: float) -> tuple[dict, dict, object]:
    import workloads as wl

    steps = wl.schedule(workload, seed, scale)
    wl.warm_up(workload, seed)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        bundle = None  # free the last archive before timing the next
        elapsed, bundle = wl.timed_build(workload, seed)
        setup_times.append(elapsed)
    client = wl.Client(workload, seed, bundle)
    probe = {"before_s": host_probe()}
    client.run(steps)
    probe["after_s"] = host_probe()
    result = client.finish()
    retained = wl.retained_bytes(bundle.archive, bundle.service, bundle.plan)
    metrics, samples = end_to_end(result, setup_times, retained)
    samples["setup_times_s"] = setup_times
    samples["host_probe"] = probe
    return metrics, samples, result


def plain_pass(workload, seed: int, steps: list[tuple]):
    """One untraced pass of *steps* on a fresh archive; its result."""
    import workloads as wl

    client = wl.Client(workload, seed, wl.build(workload, seed))
    client.run(steps)
    return client.finish()


def traced_pass(workload, seed: int, steps: list[tuple]):
    """One traced pass of *steps* on a fresh archive, built under a
    ``setup`` op: the tracer, the result, and the program's counters
    before and after the client calls."""
    import layers
    import spantrace
    import workloads as wl

    tracer = spantrace.Tracer()
    with tracer.installed():
        with tracer.op("setup"):
            bundle = wl.build(workload, seed)
        client = wl.Client(workload, seed, bundle, tracer=tracer)
        before = layers.program_counters()
        client.run(steps)
        after = layers.program_counters()
    return tracer, client.finish(), before, after


def run_traced(workload, seed: int, scale: float, out_dir: Path) -> tuple[dict, dict, object]:
    """An untraced and a traced pass of one seed; the per-layer metrics."""
    import layers
    import workloads as wl

    steps = wl.schedule(workload, seed, scale)
    wl.warm_up(workload, seed)
    probe = {"before_s": host_probe()}
    plain = plain_pass(workload, seed, steps)
    tracer, traced, before, after = traced_pass(workload, seed, steps)
    probe["after_s"] = host_probe()
    traced.diverged = plain.node_digest != traced.node_digest

    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"{workload.name}.spans.jsonl"
    tracer.write_jsonl(spans_path)
    per_layer = layers.per_layer(tracer, traced, plain, before, after)
    samples = {
        "spans": len(tracer.spans),
        "spans_file": str(spans_path),
        "node_digest_untraced": plain.node_digest,
        "node_digest_traced": traced.node_digest,
        "host_probe": probe,
    }
    return {k: metric(v, u) for k, (v, u) in per_layer.items()}, samples, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=REFERENCE_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    import_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    scale = args.seconds / REFERENCE_SECONDS
    counts = workload.counts(scale)
    if not args.trace:
        try:
            wl.tail_percentile(min(counts["stores"], counts["reads"]))
        except ValueError as exc:
            parser.error(f"--seconds {args.seconds} is too short for {workload.name}: {exc}")
    logs = capture_program_logs()

    if args.trace:
        metrics, samples, result = run_traced(workload, args.seed, scale, args.out)
    else:
        metrics, samples, result = run_untraced(workload, args.seed, scale)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "counts": counts,
        "samples": samples,
        "signer_rollovers": result.signer_rollovers,
        "failures": result.failures,
        "program_warnings": logs.count,
    }
    if not args.trace:
        gated = {m["name"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
        record["ungated"] = {k: metrics.pop(k) for k in list(metrics) if k not in gated}
    print(json.dumps({"e2ebench": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
