"""Regenerate every paper artifact from the command line.

    python -m repro.analysis                # all three artifacts
    python -m repro.analysis figure1        # just one
    python -m repro.analysis --metrics      # append the observability report
    python -m repro.analysis --faults       # replay the chaos scenario too
    python -m repro.analysis --faults=99    # ... with a specific seed
    python -m repro.analysis --serve        # tiny-service admission demo
    python -m repro.analysis --load         # zipfian service load replay
    python -m repro.analysis --load=99      # ... with a specific seed
    python -m repro.analysis --tiers        # hot/warm/cold migration replay
    python -m repro.analysis --tiers=99     # ... with a specific seed

Prints the measured Figure 1, Table 1, and Section 3.2 re-encryption table,
each followed by its shape verdict.  With ``--metrics``, a final section
dumps the metrics registry accumulated while generating the artifacts --
every encode byte, share fetch, and span timing the run produced.  With
``--faults``, a seeded fault-injection scenario (transient outages plus
silent bit-rot on an AONT-RS fleet) runs after the artifacts and reports
the retries, degraded-read shape, and repair-on-read behavior.  With
``--serve`` / ``--load``, the archive-service scenarios run: a burst demo
that makes admission control, quotas, and backpressure fire visibly, and a
seeded zipfian load replay reporting latency percentiles and throughput.
With ``--tiers``, the tiered-storage life-cycle replays: objects cool down
the hot/warm/cold demotion ladder, reheat through priced cold reads, and
the migrator promotes them back -- all on simulated time under one seed.
"""

from __future__ import annotations

import sys

from repro.analysis.faults_scenario import DEFAULT_SEED, run_chaos_scenario
from repro.analysis.figure1 import generate_figure1
from repro.analysis.reencryption_table import generate_reencryption_table
from repro.analysis.report import render_metrics_report
from repro.analysis.service_scenario import run_load_scenario, run_service_demo
from repro.analysis.table1 import generate_table1
from repro.analysis.tiers_scenario import run_tiers_scenario
from repro.obs import get_registry


def _figure1() -> bool:
    result = generate_figure1()
    print(result.render())
    print(f"\n=> Figure 1 shape {'HOLDS' if result.shape_holds else 'BROKEN'}\n")
    return result.shape_holds


def _table1() -> bool:
    result = generate_table1()
    print(result.render())
    verdict = "8/8 rows match" if result.all_match else f"mismatches: {result.matches}"
    print(f"\n=> Table 1: {verdict}\n")
    return result.all_match


def _reencryption() -> bool:
    result = generate_reencryption_table()
    print(result.render())
    print(f"\n=> Section 3.2 shape {'HOLDS' if result.shape_holds else 'BROKEN'}\n")
    return result.shape_holds


_ARTIFACTS = {
    "figure1": _figure1,
    "table1": _table1,
    "reencryption": _reencryption,
}


def _parse_seed_flag(argv: list[str], flag: str) -> tuple[list[str], int | None]:
    """Strip ``--FLAG`` / ``--FLAG=SEED``; returns (rest, seed or None)."""
    rest: list[str] = []
    seed: int | None = None
    for arg in argv:
        if arg == f"--{flag}":
            seed = DEFAULT_SEED
        elif arg.startswith(f"--{flag}="):
            seed = int(arg.split("=", 1)[1])
        else:
            rest.append(arg)
    return rest, seed


def main(argv: list[str]) -> int:
    show_metrics = "--metrics" in argv
    argv = [arg for arg in argv if arg != "--metrics"]
    argv, faults_seed = _parse_seed_flag(argv, "faults")
    argv, serve_seed = _parse_seed_flag(argv, "serve")
    argv, load_seed = _parse_seed_flag(argv, "load")
    argv, tiers_seed = _parse_seed_flag(argv, "tiers")
    requested = argv or list(_ARTIFACTS)
    unknown = [name for name in requested if name not in _ARTIFACTS]
    if unknown:
        print(f"unknown artifact(s): {', '.join(unknown)}; "
              f"choose from {', '.join(_ARTIFACTS)}")
        return 2
    ok = True
    for name in requested:
        print(f"{'=' * 72}\n{name}\n{'=' * 72}")
        ok = _ARTIFACTS[name]() and ok
    if faults_seed is not None:
        print(f"{'=' * 72}\nfaults\n{'=' * 72}")
        scenario = run_chaos_scenario(seed=faults_seed)
        print(scenario.render())
        verdict = "SURVIVED" if scenario.healthy else "DEGRADED BEYOND REPAIR"
        print(f"\n=> Chaos scenario {verdict}\n")
        ok = scenario.healthy and ok
    if serve_seed is not None:
        print(f"{'=' * 72}\nserve\n{'=' * 72}")
        demo = run_service_demo(seed=serve_seed)
        print(demo.render())
        verdict = "ALL GUARDS FIRED" if demo.healthy else "GUARDS DID NOT FIRE"
        print(f"\n=> Service demo {verdict}\n")
        ok = demo.healthy and ok
    if load_seed is not None:
        print(f"{'=' * 72}\nload\n{'=' * 72}")
        result = run_load_scenario(seed=load_seed)
        print(result.render())
        verdict = "SERVED" if result.healthy else "NO TRAFFIC SERVED"
        print(f"\n=> Service load {verdict}\n")
        ok = result.healthy and ok
    if tiers_seed is not None:
        print(f"{'=' * 72}\ntiers\n{'=' * 72}")
        tiers = run_tiers_scenario(seed=tiers_seed)
        print(tiers.render())
        verdict = (
            "FULL LIFE-CYCLE" if tiers.healthy else "MIGRATION DID NOT FIRE"
        )
        print(f"\n=> Tiered storage {verdict}\n")
        ok = tiers.healthy and ok
    if show_metrics:
        print(f"{'=' * 72}\nmetrics\n{'=' * 72}")
        registry = get_registry()
        print(render_metrics_report(registry.snapshot(), registry.host_snapshot()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
