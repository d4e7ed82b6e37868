"""Self-tests of the benchmark: tracing, correctness checks, result format.

Run from the repository root::

    python3 -m pytest e2ebench -q

Workloads run at a tenth to a half of their reference size, so the suite
takes two to three minutes on a 2-core host.
"""

from __future__ import annotations

import dataclasses
import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run

run.import_program()

import layers  # noqa: E402
import spantrace  # noqa: E402
import workloads as wl  # noqa: E402
from repro.core.policy import PRACTICAL_COMPUTATIONAL  # noqa: E402

#: Work per test pass, as a share of the reference run; the tiered
#: workload needs three epochs before an object has been idle long enough
#: to migrate.
SCALES = {"tiered-renewal": 0.5}
SCALE = 0.1
SEED = 1
#: A seed never used while the benchmark was tuned.
HELD_OUT_SEED = 20261017
BENCHMARK = json.loads(run.BENCHMARK.read_text())


def steps(workload, seed):
    return wl.schedule(workload, seed, SCALES.get(workload.name, SCALE))


def wrapped_sites():
    """Every boundary lookup site that currently holds a wrapper."""
    found = []
    for boundary in spantrace.BOUNDARIES:
        _, sites = spantrace._lookup_sites(boundary.target)
        for owner, attr in sites:
            if hasattr(getattr(owner, attr), "__e2ebench_wrapped__"):
                found.append(f"{boundary.target} at {owner!r}.{attr}")
    return found


@pytest.fixture(scope="module", params=sorted(wl.WORKLOADS))
def passes(request):
    """One untraced and two traced passes of one seed, reduced to what the
    tests compare (the spans themselves are dropped)."""
    workload = wl.WORKLOADS[request.param]
    untraced = run.plain_pass(workload, SEED, steps(workload, SEED))
    traced = []
    for _ in range(2):
        tracer, result, before, after = run.traced_pass(workload, SEED, steps(workload, SEED))
        fired = {}
        for span in tracer.spans:
            name = spantrace.NAMES[span[1]]
            fired[name] = fired.get(name, 0) + 1
        for (name, _kind), n in tracer.counts().items():
            fired[name] = fired.get(name, 0) + n
        metrics = layers.per_layer(tracer, result, untraced, before, after)
        traced.append({"result": result, "fired": fired, "metrics": metrics,
                       "calls": dict(layers.SpanTable(tracer).calls)})
        assert wrapped_sites() == [], "wrappers outlived the traced pass"
        del tracer
    return workload, untraced, traced


def test_every_boundary_fires_on_its_workloads(passes):
    workload, _, traced = passes
    fired = traced[0]["fired"]
    silent = [
        boundary.target
        for boundary in spantrace.BOUNDARIES
        if workload.name in boundary.fires_on and not fired.get(boundary.name)
    ]
    assert silent == [], f"{workload.name}: no caller reached {silent}"


def test_tracing_leaves_node_contents_unchanged(passes):
    workload, untraced, traced = passes
    assert untraced.correct and untraced.failed == 0
    for run_ in traced:
        assert run_["result"].correct and run_["result"].failed == 0
        assert run_["result"].node_digest == untraced.node_digest, workload.name


def test_counts_repeat_exactly_across_traced_runs(passes):
    _, _, (first, second) = passes
    assert first["calls"] == second["calls"]
    exact = {name: first["metrics"][name] for name in layers.EXACT}
    assert exact == {name: second["metrics"][name] for name in layers.EXACT}


def test_counts_match_the_workload_shape(passes):
    workload, _, traced = passes
    metrics = {name: value for name, (value, _) in traced[0]["metrics"].items()}
    share_ratio = {"small-objects": 5.0, "bulk-segmented": 1.5, "tiered-renewal": 7 / 3}
    assert metrics["storage.put_bytes_per_user_byte"] == pytest.approx(
        share_ratio[workload.name], rel=1e-3)
    assert metrics["integrity.signer_keygens"] >= 1
    if workload.tiered:
        # The fault plan and the tier layout are on every tiered read path.
        assert metrics["storage.retries_per_op"] > 0
        assert metrics["storage.repairs_per_retrieve"] > 0
        assert metrics["storage.cold_reads_per_retrieve"] > 0
        assert metrics["storage.migrations_per_epoch"] > 0
    else:
        assert metrics["storage.retries_per_op"] == 0
        assert metrics["storage.cold_reads_per_retrieve"] == 0


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_held_out_seed_runs_clean(name):
    workload = wl.WORKLOADS[name]
    result = run.plain_pass(workload, HELD_OUT_SEED, steps(workload, HELD_OUT_SEED))
    assert result.correct and result.failed == 0, result.failures
    assert all(rewritten > 0 for rewritten in result.rewritten)


def test_maintenance_that_rewrites_nothing_is_incorrect():
    # PRACTICAL_COMPUTATIONAL never renews: timing its advance_epoch would
    # time a no-op, so the pass must refuse it.
    workload = dataclasses.replace(wl.WORKLOADS["small-objects"], policy=PRACTICAL_COMPUTATIONAL)
    result = run.plain_pass(workload, SEED, steps(workload, SEED))
    assert result.noop_maintenance == 1
    assert not result.correct


def test_a_wrong_read_is_caught():
    workload = wl.WORKLOADS["small-objects"]
    bundle = wl.build(workload, SEED)
    client = wl.Client(workload, SEED, bundle)
    client.run([("store", 0)])
    original = bundle.archive.retrieve
    bundle.archive.retrieve = lambda object_id: original(object_id)[::-1]
    client.run([("retrieve", 0)])
    assert client.result.failures == {"mismatch": 1}
    assert not client.result.correct


def test_self_time_subtracts_the_union_of_children():
    tracer = spantrace.Tracer()
    tracer.ops = ["store"]
    batch = spantrace.NAMES.index("core.store_batch")
    split = spantrace.NAMES.index("secretsharing.split")
    place = spantrace.NAMES.index("storage.place")
    tracer.spans = [
        (0, batch, 0.0, 10.0, None, 0, 0, None),
        # Two overlapping pool-thread children and one on the client thread.
        (1, split, 1.0, 3.0, 0, 1, 0, None),
        (2, split, 2.0, 5.0, 0, 2, 0, None),
        (3, place, 6.0, 7.0, 0, 0, 0, None),
    ]
    table = layers.SpanTable(tracer)
    assert table.self_seconds["core.store_batch", "store"] == pytest.approx(5.0)
    # Waiting on the pool: client-thread time not covered by client children.
    assert table.batch_wait == pytest.approx(9.0)


def test_too_short_a_run_for_a_tail_is_refused(capsys):
    with pytest.raises(SystemExit) as exit_:
        run.main(["--workload", "bulk-segmented", "--seconds", "10", "--trace", "0"])
    assert exit_.value.code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_tail_percentile_keeps_ten_samples_beyond():
    assert wl.tail_percentile(40) == 75.0
    assert wl.tail_percentile(344) == 95.0
    assert wl.tail_percentile(1520) == 99.0
    with pytest.raises(ValueError):
        wl.tail_percentile(39)


def run_main(args):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run.main(args) == 0
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2])["e2ebench"], json.loads(lines[-1])


def test_untraced_run_installs_no_wrapper_and_reports_end_to_end(monkeypatch):
    def refuse(self):
        raise AssertionError("the untraced run installed a wrapper")

    monkeypatch.setattr(spantrace.Tracer, "installed", refuse)
    record, result = run_main(["--workload", "small-objects", "--seed", str(SEED),
                               "--seconds", "4", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["unit"] == units[k] for k, v in result["metrics"].items())
    assert set(record["ungated"]) == {"store_mbps", "store_p50_ms", "retrieve_mbps",
                                      "retrieve_p50_ms", "maintain_mbps"}
    assert record["seed"] == SEED and record["host"]["cpu_count"] >= 1
    assert wrapped_sites() == []


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    record, result = run_main(["--workload", "tiered-renewal", "--seed", str(SEED),
                               "--seconds", "2", "--trace", "1", "--out", str(tmp_path)])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert record["samples"]["node_digest_traced"] == record["samples"]["node_digest_untraced"]
    spans = (tmp_path / "tiered-renewal.spans.jsonl").read_text().splitlines()
    assert len(spans) == record["samples"]["spans"]
    first = json.loads(spans[0])
    assert set(first) >= {"id", "name", "start", "end", "parent", "thread", "op"}


def test_directory_without_the_program_fails(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "small-objects", "--seed", "1",
         "--seconds", "20", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
