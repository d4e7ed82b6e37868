#!/usr/bin/env python3
"""Deterministic lockset stress harness for the multi-threaded hot path.

archlint's ARCH012 proves lock discipline *statically*; this harness attacks
the same shared state *dynamically*: barrier-synchronized threads hammer the
GF(256) kernel, the plan and key-schedule caches, and the metrics registry
under seeded schedules while chaos threads clear caches mid-flight, and every
phase asserts the outputs a sequential run would have produced -- byte-
identical matmuls and ciphertexts at workers in {1, 2, 8}, exact metric
counts, deterministic snapshots.

The two views are chained together so they cannot drift: the harness declares
which shared-state entries each phase exercises (``EXERCISED``/``READONLY``),
then cross-checks that declaration against the inventory ARCH012 computes
from the AST.  A new module-level cache that becomes worker-reachable fails
the harness until a stress phase covers it; a stale harness entry naming
state that no longer exists fails the other direction.

Run it::

    python tools/racecheck.py            # full run (make racecheck)
    python tools/racecheck.py --quick    # reduced iterations (CI smoke)
    python tools/racecheck.py --seed 7   # different seeded schedule

Exit status 0 means every phase held; any assertion failure is a real
ordering bug (no phase depends on sleeps or timing luck).
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for entry in (REPO_ROOT / "src", REPO_ROOT / "tools"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import numpy as np  # noqa: E402

from repro import config as rconfig  # noqa: E402
from repro.crypto import aes  # noqa: E402
from repro.gmath import kernel  # noqa: E402
from repro.obs import metrics  # noqa: E402

#: Worker counts the byte-identity contract is pinned at (mirrors the
#: acceptance criteria: single-thread, minimal sharding, oversubscribed).
WORKER_SWEEP = (1, 2, 8)

#: Client threads per stress phase (enough to contend, small enough that a
#: laptop CI run stays fast).
THREADS = 4

#: Thread-shared state each phase hammers, keyed by the static inventory's
#: qualified name.  The cross-check phase fails if one of these names
#: vanishes from the static view (stale harness) or if the static view
#: grows a worker-reachable name in a stressed module that is listed in
#: neither table (uncovered shared state).
EXERCISED = {
    "repro.gmath.kernel._vandermonde_cached": "kernel phase: concurrent plan builds + clears",
    "repro.gmath.kernel._vandermonde_inverse_cached": "kernel phase: concurrent plan builds + clears",
    "repro.gmath.kernel._lagrange_matrix_cached": "kernel phase: concurrent plan builds + clears",
    "repro.gmath.kernel._packed_tables": "kernel phase: packed matmuls race cache clears",
    "repro.gmath.kernel._POOL": "kernel phase: worker-count sweep rebuilds the pool",
    "repro.gmath.kernel._POOL_SIZE": "kernel phase: worker-count sweep rebuilds the pool",
    "repro.gmath.kernel._PLAN_FUNCTIONS": "kernel phase: clear_plan_caches/plan_cache_info chaos",
    "repro.config._kernel_workers": "kernel phase: set_kernel_workers sweep",
    "repro.crypto.aes._expand_key": "aes phase: concurrent CTR transforms race clear_key_caches",
    "repro.crypto.aes._round_key_words": "aes phase: concurrent CTR transforms race clear_key_caches",
    "repro.obs.metrics._REGISTRY": "metrics phase: concurrent inc/observe/set + snapshots",
}

#: Inventory entries that are written at import time only and read-only
#: forever after; no stress phase mutates them, and ARCH012 would flag any
#: code that started to.
READONLY = {
    "repro.gmath.kernel._PAD_DTYPE": "dtype lookup table, import-time constant",
    "repro.crypto.aes._XT": "xtime lookup table, import-time constant",
}

#: Modules whose worker-reachable state must be fully covered by the two
#: tables above.  (Other modules' singletons -- storage catalogs, policy
#: tables -- are exercised by their own suites.)
STRESSED_MODULES = (
    "repro.gmath.kernel",
    "repro.crypto.aes",
    "repro.obs.metrics",
    "repro.config",
)


class Phase:
    """Tiny pass/fail ledger so one run reports every phase."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, label: str) -> None:
        marker = "ok" if ok else "FAIL"
        print(f"  [{marker}] {label}")
        if not ok:
            self.failures.append(label)


def _run_threads(worker_fns) -> list[Exception]:
    """Start one thread per callable behind a common barrier, join them all,
    and surface any exception (a worker that died silently would otherwise
    turn a crash into a hang-free false pass)."""
    barrier = threading.Barrier(len(worker_fns))
    errors: list[Exception] = []
    errors_lock = threading.Lock()

    def runner(fn):
        try:
            barrier.wait()
            fn()
        except Exception as exc:  # noqa: ARCH001 -- harness records any worker death
            with errors_lock:
                errors.append(exc)

    threads = [threading.Thread(target=runner, args=(fn,)) for fn in worker_fns]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return errors


# -- phase 1: static/dynamic cross-check ---------------------------------------


def check_inventory(phase: Phase) -> None:
    """Pin the harness's coverage tables to ARCH012's static inventory."""
    from archlint.concurrency import analyze
    from archlint.core import FileContext

    contexts = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        contexts[rel] = FileContext(path, rel, path.read_text())
    analysis = analyze(contexts, "src")
    inventory = {state.qualname for state in analysis.inventory()}

    stale = sorted((set(EXERCISED) | set(READONLY)) - inventory)
    phase.check(
        not stale,
        "every harness coverage entry exists in the static inventory"
        + (f" (stale: {', '.join(stale)})" if stale else ""),
    )

    must_cover = {
        name
        for name in analysis.thread_shared
        if any(name.startswith(mod + ".") for mod in STRESSED_MODULES)
    }
    uncovered = sorted(must_cover - set(EXERCISED) - set(READONLY))
    phase.check(
        not uncovered,
        "every worker-reachable state in stressed modules has a stress phase"
        + (f" (uncovered: {', '.join(uncovered)})" if uncovered else ""),
    )

    entry_count = len(analysis.entry_points)
    phase.check(
        entry_count >= 2,
        f"static analysis still finds thread entry points ({entry_count} found)",
    )


# -- phase 2: kernel byte-identity under cache chaos ---------------------------


def check_kernel(phase: Phase, seed: int, iterations: int) -> None:
    """Sharded matmuls + plan builds race maintenance sweeps; outputs must
    be byte-identical to the sequential single-worker run at every worker
    count."""
    rng = np.random.default_rng(seed)
    # Wide enough for the packed + sharded paths (see PACKED_MIN_WIDTH /
    # SHARD_MIN_BLOCK), small enough to keep the phase under a second per
    # worker setting.
    shapes = [(4, 6, 1 << 17), (8, 10, 1 << 16), (3, 5, 4096)]
    cases = [
        (
            rng.integers(0, 256, size=(m, k), dtype=np.uint8),
            rng.integers(0, 256, size=(k, width), dtype=np.uint8),
        )
        for m, k, width in shapes
    ]
    plan_keys = [tuple(range(1, 1 + n)) for n in (3, 5, 8)]

    rconfig.set_kernel_workers(1)
    kernel.clear_plan_caches()
    references = [kernel.gf256_matmul(a, b).tobytes() for a, b in cases]

    for workers in WORKER_SWEEP:
        rconfig.set_kernel_workers(workers)
        kernel.clear_plan_caches()
        stop = threading.Event()
        mismatches: list[str] = []
        result_lock = threading.Lock()

        def hammer() -> None:
            for i in range(iterations):
                for case_index, (a, b) in enumerate(cases):
                    out = kernel.gf256_matmul(a, b).tobytes()
                    if out != references[case_index]:
                        with result_lock:
                            mismatches.append(f"case {case_index} iter {i}")
                for xs in plan_keys:
                    plan = kernel.vandermonde_plan(xs, len(xs))
                    if plan.flags.writeable:
                        with result_lock:
                            mismatches.append(f"writable plan {xs}")

        def chaos() -> None:
            while not stop.is_set():
                kernel.clear_plan_caches()
                kernel.plan_cache_info()

        chaos_thread = threading.Thread(target=chaos)
        chaos_thread.start()
        try:
            errors = _run_threads([hammer] * THREADS)
        finally:
            stop.set()
            chaos_thread.join()

        phase.check(
            not errors and not mismatches,
            f"gf256_matmul byte-identical under cache chaos at workers={workers}"
            + (f" ({(errors + mismatches)[0]})" if errors or mismatches else ""),
        )

    rconfig.set_kernel_workers(None)
    info = kernel.plan_cache_info()
    phase.check(
        set(info) == set(kernel._PLAN_FUNCTIONS),
        "plan_cache_info reports one consistent cut of every cache",
    )


# -- phase 3: AES key-schedule chaos -------------------------------------------


def check_aes(phase: Phase, seed: int, iterations: int) -> None:
    """Concurrent CTR transforms race ``clear_key_caches``; every ciphertext
    must equal the sequential reference (schedules are pure functions of the
    key, so a mid-flight clear may only cost a rebuild, never a byte).  The
    message spans two full round chunks and a partial one, so threads
    interleave inside the chunk loop.  It runs from counter 0 and from a
    counter that is not 256-aligned, so on the cached rounds 1-2 path the
    threads also interleave on a message that starts and ends inside a
    256-counter group."""
    rng = np.random.default_rng(seed + 1)
    key = bytes(rng.integers(0, 256, size=32, dtype=np.uint8))
    nonce = bytes(rng.integers(0, 256, size=12, dtype=np.uint8))
    length = (2 * aes._CHUNK_BLOCKS + 3) * aes.BLOCK_SIZE + 5
    data = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
    starts = (0, 0x1F3)

    aes.clear_key_caches()
    references = {
        start: aes.aes_ctr_transform(key, nonce, data, start).tobytes() for start in starts
    }

    stop = threading.Event()
    mismatches: list[str] = []
    result_lock = threading.Lock()

    def hammer() -> None:
        for i in range(iterations):
            start = starts[i % len(starts)]
            out = aes.aes_ctr_transform(key, nonce, data, start).tobytes()
            if out != references[start]:
                with result_lock:
                    mismatches.append(f"iter {i} (counter {start:#x})")

    def chaos() -> None:
        while not stop.is_set():
            aes.clear_key_caches()

    chaos_thread = threading.Thread(target=chaos)
    chaos_thread.start()
    try:
        errors = _run_threads([hammer] * THREADS)
    finally:
        stop.set()
        chaos_thread.join()

    phase.check(
        not errors and not mismatches,
        "AES-CTR ciphertext byte-identical under clear_key_caches chaos"
        + (f" ({(errors + mismatches)[0]})" if errors or mismatches else ""),
    )

    schedule = aes._expand_key(key)
    phase.check(
        not schedule.flags.writeable,
        "cached key schedule is frozen (writeable=False)",
    )


# -- phase 4: metrics exactness + snapshot determinism -------------------------


def check_metrics(phase: Phase, seed: int, iterations: int) -> None:
    """Concurrent inc/observe/set lose no updates, and two identically
    seeded runs produce byte-identical snapshots regardless of schedule.

    Both entry points are hammered: the registry accessors, and the
    module-level ``metrics.inc``/``metrics.observe`` the program calls,
    whose unlocked dict probe races each metric's first use across the
    threads (no label, one label, two labels in both keyword orders).
    """

    def stress_run() -> dict:
        rng = np.random.default_rng(seed + 2)
        # Integer-valued observations keep float addition exact, so the
        # histogram sum is schedule-independent (no fp reassociation drift).
        values = rng.integers(1, 1024, size=iterations).astype(float)

        with metrics.use_registry() as registry:
            snapshot_errors: list[Exception] = []

            def hammer() -> None:
                for value in values:
                    registry.counter("racecheck_events_total").inc()
                    registry.counter("racecheck_bytes_total", kind="payload").inc(7)
                    registry.gauge("racecheck_inflight").inc()
                    registry.histogram("racecheck_latency_seconds").observe(value)
                    registry.gauge("racecheck_inflight").dec()
                    registry.gauge("racecheck_last_value").set(float(value))
                    metrics.inc("racecheck_helper_total")
                    metrics.inc("racecheck_helper_bytes_total", 3, kind="payload")
                    metrics.inc("racecheck_helper_pairs_total", kind="payload", lane="a")
                    metrics.inc("racecheck_helper_pairs_total", lane="a", kind="payload")
                    metrics.observe("racecheck_helper_seconds", value)
                    metrics.observe("racecheck_helper_seconds", value, lane="a")
                    metrics.observe("racecheck_helper_seconds", value, kind="payload", lane="a")
                    metrics.observe("racecheck_helper_seconds", value, lane="a", kind="payload")

            def prober() -> None:
                # Snapshots taken mid-flight must never tear or raise; their
                # *content* is only pinned after the barrier'd workers join.
                try:
                    for _ in range(50):
                        snap = registry.snapshot()
                        hist = snap["histograms"].get("racecheck_latency_seconds")
                        if hist and sum(c for _, c in hist["buckets"]) != hist["count"]:
                            raise AssertionError("torn histogram snapshot")
                except Exception as exc:  # noqa: ARCH001 -- harness records probe death
                    snapshot_errors.append(exc)

            probe_thread = threading.Thread(target=prober)
            probe_thread.start()
            errors = _run_threads([hammer] * THREADS)
            probe_thread.join()
            if errors or snapshot_errors:
                raise (errors + snapshot_errors)[0]
            return registry.snapshot()

    snap_a = stress_run()
    snap_b = stress_run()

    counters = snap_a["counters"]
    expected = THREADS * iterations
    phase.check(
        counters.get("racecheck_events_total") == expected,
        f"no lost counter increments ({counters.get('racecheck_events_total')} == {expected})",
    )
    phase.check(
        counters.get("racecheck_bytes_total{kind=payload}") == 7 * expected,
        "labeled counter exact under contention",
    )
    phase.check(
        snap_a["gauges"].get("racecheck_inflight") == 0.0,
        "gauge inc/dec pairs cancel exactly",
    )
    phase.check(
        counters.get("racecheck_helper_total") == expected
        and counters.get("racecheck_helper_bytes_total{kind=payload}") == 3 * expected,
        "module-level inc exact under contention, unlabeled and labeled",
    )
    phase.check(
        counters.get("racecheck_helper_pairs_total{kind=payload,lane=a}") == 2 * expected,
        "two labels in either keyword order land on one counter",
    )
    helper_counts = {
        name: snap_a["histograms"].get(name, {}).get("count")
        for name in (
            "racecheck_helper_seconds",
            "racecheck_helper_seconds{lane=a}",
            "racecheck_helper_seconds{kind=payload,lane=a}",
        )
    }
    phase.check(
        list(helper_counts.values()) == [expected, expected, 2 * expected],
        f"module-level observe exact under contention ({helper_counts})",
    )
    hist = snap_a["histograms"]["racecheck_latency_seconds"]
    phase.check(hist["count"] == expected, "histogram count exact under contention")
    phase.check(
        sum(count for _, count in hist["buckets"]) == hist["count"],
        "histogram buckets sum to count",
    )
    phase.check(
        snap_a == snap_b,
        "two identically seeded stress runs produce identical snapshots",
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=40, help="hammer iterations per thread")
    parser.add_argument("--seed", type=int, default=1234, help="schedule seed")
    parser.add_argument("--quick", action="store_true", help="reduced iterations (CI smoke)")
    args = parser.parse_args(argv)
    iterations = 8 if args.quick else args.iterations

    phase = Phase()
    print("racecheck: static/dynamic inventory cross-check")
    check_inventory(phase)
    print(f"racecheck: kernel byte-identity (workers {WORKER_SWEEP}, {iterations} iters)")
    check_kernel(phase, args.seed, iterations)
    print("racecheck: AES key-schedule chaos")
    check_aes(phase, args.seed, iterations)
    print("racecheck: metrics exactness + snapshot determinism")
    check_metrics(phase, args.seed, max(iterations * 5, 40))

    if phase.failures:
        print(f"racecheck: FAILED ({len(phase.failures)} failing check(s))")
        return 1
    print("racecheck: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
