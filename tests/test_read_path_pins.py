"""Byte and counter pins for the read path: fetch, decode, repair-on-read.

Each scenario stores a few objects, reads them through injected faults
(flaky first reads, silent bit-rot, one put outage during a repair), runs
two epochs where the system has them, then rots a share of every object
and reads again.  Two pins per scenario:

- a digest over the node contents, every receipt, every maintenance
  report, and every read's returned bytes and ``DegradedReadReport``;
- the metrics snapshot: the read-path counters listed in ``READ_COUNTERS``
  are pinned by value, everything else in the snapshot by one digest.

A change to how reads fetch, decode or repair may move the listed
counters (and must say so); it may not move a byte or any other metric.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.core.archive import SecureArchive
from repro.core.policy import (
    CENTURY_SAFE,
    CENTURY_SAFE_ECONOMY,
    PRACTICAL_COMPUTATIONAL,
    ArchivePolicy,
    ConfidentialityTarget,
)
from repro.crypto.drbg import DeterministicRandom
from repro.obs import use_registry
from repro.storage.faults import FaultPlan, FaultRule, flaky_first_reads, silent_bitrot
from repro.storage.node import make_node_fleet
from repro.storage.placement import share_key
from repro.storage.tiering import TIER_COLD, TIER_HOT, TIER_WARM, make_tiered_fleet
from repro.systems.aontrs_system import AontRsArchive

LRSS_POLICY = ArchivePolicy(
    target=ConfidentialityTarget.LONG_TERM_LEAKAGE_HARDENED, n=5, t=3
)

SIZES = (1000, 3001, 4096, 777)

#: Counter-name prefixes pinned by value: the read path's own accounting.
READ_COUNTERS = (
    "archive_ops_total",
    "archive_retrieve_bytes_total",
    "codec_plan_requests_total",
    "gf256_vec_ops_total",
    "repairs_on_read_total",
    "maintenance_deferred_total",
    "spans_total{span=archive.retrieve}",
    "storage_fetch_attempts_total",
    "storage_fetch_bytes_total",
    "storage_shares_fetched_total",
    "storage_shares_lost_total",
    "tier_reads_total",
)


class _Archive(SecureArchive):
    SIGNER_HEIGHT = 4


def _tiered(policy):
    def build(tag):
        plan = FaultPlan(
            [flaky_first_reads(f"node-{TIER_HOT}-1"), silent_bitrot(f"node-{TIER_HOT}-0")],
            seed=f"{tag}/faults",
        )
        fleet = plan.wrap_fleet(make_tiered_fleet({TIER_HOT: 4, TIER_WARM: 4, TIER_COLD: 6}))
        archive = _Archive(policy, fleet, DeterministicRandom(f"{tag}/archive"))
        archive.enable_tiering()
        return archive, plan

    return build


def _flat_aontrs(tag):
    plan = FaultPlan([flaky_first_reads("node-2")], seed=f"{tag}/faults")
    fleet = plan.wrap_fleet(make_node_fleet(7))
    return AontRsArchive(fleet, DeterministicRandom(f"{tag}/archive"), n=6, k=4), plan


SCENARIOS = {
    "century": _tiered(CENTURY_SAFE),
    "economy": _tiered(CENTURY_SAFE_ECONOMY),
    "computational": _tiered(PRACTICAL_COMPUTATIONAL),
    "lrss": _tiered(LRSS_POLICY),
    "aontrs": _flat_aontrs,
}

#: Per scenario: (digest of bytes, reads and reports; digest of the
#: snapshot without the read counters; the read counters).
PINNED = {
    "aontrs": (
        "b50e3bee95cdef65e7acb5de334a4e462887b8d16f987bd07fa7a3de69646bc2",
        "3b68496d39616ecbf69cefdcd8e579a6e768c1e66622fc21372c54492222341c",
        {
            "codec_plan_requests_total{plan=lagrange}": 1,
            "codec_plan_requests_total{plan=rs-decode}": 6,
            "gf256_vec_ops_total": 10,
            "maintenance_deferred_total{op=repair,reason=put}": 1,
            "repairs_on_read_total": 6,
            "storage_fetch_attempts_total": 78,
            "storage_fetch_bytes_total": 37064,
            "storage_shares_fetched_total": 68,
            "storage_shares_lost_total{reason=corrupted}": 7,
        },
    ),
    "century": (
        "6bce7cb7c17f171b0f5946af1d2e2ed9f0975a1030805b0f3652321991e0d492",
        "b16e4da29cad6a955bf1d8a21d3e7211612cdbb02c32c226406e49eb4c0a23fc",
        {
            "archive_ops_total{op=advance_epoch}": 2,
            "archive_ops_total{op=retrieve}": 17,
            "archive_ops_total{op=store}": 4,
            "archive_retrieve_bytes_total": 36496,
            "codec_plan_requests_total{plan=lagrange}": 29,
            "codec_plan_requests_total{plan=vandermonde}": 16,
            "gf256_vec_ops_total": 45,
            "maintenance_deferred_total{op=repair,reason=put}": 1,
            "repairs_on_read_total": 7,
            "spans_total{span=archive.retrieve}": 17,
            "storage_fetch_attempts_total": 98,
            "storage_fetch_bytes_total": 189354,
            "storage_shares_fetched_total": 87,
            "storage_shares_lost_total{reason=corrupted}": 8,
            "tier_reads_total{tier=cold}": 8,
            "tier_reads_total{tier=hot}": 59,
            "tier_reads_total{tier=warm}": 20,
        },
    ),
    "computational": (
        "6ab5fca4eac3071e46f80bb5c8754d1d4624bd38549aa8be161f6658f7811a3a",
        "3eb0e3a17898faf33ea83ce816e4db1640dbe6918eb5552ce892f61c642801bd",
        {
            "archive_ops_total{op=advance_epoch}": 2,
            "archive_ops_total{op=retrieve}": 17,
            "archive_ops_total{op=store}": 4,
            "archive_retrieve_bytes_total": 36496,
            "codec_plan_requests_total{plan=lagrange}": 1,
            "codec_plan_requests_total{plan=rs-decode}": 9,
            "gf256_vec_ops_total": 17,
            "maintenance_deferred_total{op=repair,reason=put}": 1,
            "repairs_on_read_total": 8,
            "spans_total{span=archive.retrieve}": 17,
            "storage_fetch_attempts_total": 97,
            "storage_fetch_bytes_total": 46072,
            "storage_shares_fetched_total": 84,
            "storage_shares_lost_total{reason=corrupted}": 9,
            "tier_reads_total{tier=cold}": 9,
            "tier_reads_total{tier=hot}": 47,
            "tier_reads_total{tier=warm}": 28,
        },
    ),
    "economy": (
        "2b49ac274baf65555d36790f7d888e80131718ffe458be55cf680e0ae382f3f0",
        "b9905f2997913d1dc7b0198472edaf37edf81b6a2a0a6b23a02aa139544fdab1",
        {
            "archive_ops_total{op=advance_epoch}": 2,
            "archive_ops_total{op=retrieve}": 17,
            "archive_ops_total{op=store}": 4,
            "archive_retrieve_bytes_total": 36496,
            "codec_plan_requests_total{plan=lagrange}": 45,
            "gf256_vec_ops_total": 45,
            "maintenance_deferred_total{op=repair,reason=put}": 1,
            "repairs_on_read_total": 7,
            "spans_total{span=archive.retrieve}": 17,
            "storage_fetch_attempts_total": 185,
            "storage_fetch_bytes_total": 126324,
            "storage_shares_fetched_total": 174,
            "storage_shares_lost_total{reason=corrupted}": 8,
            "tier_reads_total{tier=cold}": 95,
            "tier_reads_total{tier=hot}": 59,
            "tier_reads_total{tier=warm}": 20,
        },
    ),
    "lrss": (
        "d639f4c2583d6b73ec128ffb00164a8f6d4775ae3da80ef0119327faf4204f03",
        "f4dccd9374cfac115e08292d3987fcf1377371832e49e40d65e28ed6953ca025",
        {
            "archive_ops_total{op=advance_epoch}": 2,
            "archive_ops_total{op=retrieve}": 17,
            "archive_ops_total{op=store}": 4,
            "archive_retrieve_bytes_total": 36496,
            "codec_plan_requests_total{plan=lagrange}": 29,
            "codec_plan_requests_total{plan=vandermonde}": 16,
            "gf256_vec_ops_total": 45,
            "maintenance_deferred_total{op=repair,reason=put}": 1,
            "repairs_on_read_total": 7,
            "spans_total{span=archive.retrieve}": 17,
            "storage_fetch_attempts_total": 98,
            "storage_fetch_bytes_total": 193530,
            "storage_shares_fetched_total": 87,
            "storage_shares_lost_total{reason=corrupted}": 8,
            "tier_reads_total{tier=cold}": 8,
            "tier_reads_total{tier=hot}": 59,
            "tier_reads_total{tier=warm}": 20,
        },
    ),
}


def _canonical(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _canonical(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def _rot(system, object_id, index):
    node_id = system.receipt(object_id).placement.node_by_share[index]
    system.placement_policy.node(node_id).corrupt_object(share_key(object_id, index), b"rot")


def _read(system, object_id, data, log):
    read, report = system.retrieve_with_report(object_id)
    assert read == data
    log.append((object_id, read, report.as_dict()))
    return report


def _run(name):
    """The scenario; returns (system, reads, epochs, snapshot)."""
    tag = f"read-path-pin/{name}"
    with use_registry() as registry:
        system, plan = SCENARIOS[name](tag)
        source = DeterministicRandom(f"{tag}/data")
        data = {f"obj-{i}": source.bytes(size) for i, size in enumerate(SIZES)}
        for object_id, blob in data.items():
            system.store(object_id, blob)
        reads: list = []
        epochs: list = []
        first = min(system.receipt("obj-0").placement.node_by_share)
        if name == "aontrs":
            # A data shard and a parity shard at once: the read falls back
            # to the second parity shard and rebuilds both.
            for index in (first + 1, first + 4):
                _rot(system, "obj-0", index)
            rotting = system.receipt("obj-0").placement.node_by_share[first + 1]
        else:
            rotting = f"node-{TIER_HOT}-0"
        # One put outage on the rotting node during the first repair: the
        # repair is deferred, and the next read of the object makes it.
        outage = FaultRule(kind="outage", op="put", node_id=rotting)
        plan.add_rule(outage)
        report = _read(system, "obj-0", data["obj-0"], reads)
        assert report.repair_candidates and report.shares_repaired == 0
        plan.rules.remove(outage)
        for _ in range(2):
            for object_id, blob in data.items():
                _read(system, object_id, blob, reads)
        if name != "aontrs":
            # Epoch maintenance on healthy media: the rot rule goes first.
            plan.rules = [rule for rule in plan.rules if rule.kind != "bitrot"]
            for _ in range(2):
                epochs.append(system.advance_epoch())
        for object_id, blob in data.items():
            _rot(system, object_id, min(system.receipt(object_id).placement.node_by_share))
            report = _read(system, object_id, blob, reads)
            assert report.shares_repaired == len(report.repair_candidates) >= 1
            _read(system, object_id, blob, reads)
        snapshot = registry.snapshot()
    counters = snapshot["counters"]
    assert counters["maintenance_deferred_total{op=repair,reason=put}"] == 1
    assert counters["repairs_on_read_total"] >= len(data) + 1
    return system, reads, epochs, snapshot


def _bytes_digest(system, reads, epochs):
    digest = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            if isinstance(part, str):
                part = part.encode()
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)

    for node in system.nodes:
        for key in node.object_ids():
            feed(node.node_id, key, node.raw_bytes(key))
    for object_id in sorted(system._receipts):
        receipt = system.receipt(object_id)
        feed(
            json.dumps(
                _canonical(
                    {
                        "object_id": object_id,
                        "length": receipt.original_length,
                        "placement": receipt.placement.node_by_share,
                        "metadata": receipt.metadata,
                        "escrow": receipt.escrow,
                    }
                ),
                sort_keys=True,
            )
        )
    for object_id, read, report in reads:
        feed(object_id, read, json.dumps(report, sort_keys=True))
    for report in epochs:
        feed(json.dumps(_canonical(report), sort_keys=True))
    return digest.hexdigest()


def _is_read_counter(metric):
    return any(
        metric == prefix or metric.startswith(prefix + "{") for prefix in READ_COUNTERS
    )


def _split_snapshot(snapshot):
    """(digest of everything but the read counters, the read counters)."""
    read_counters = {k: v for k, v in snapshot["counters"].items() if _is_read_counter(k)}
    rest = dict(snapshot)
    rest["counters"] = {
        k: v for k, v in snapshot["counters"].items() if k not in read_counters
    }
    rest_digest = hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()
    return rest_digest, read_counters


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_read_path_matches_its_pin(name):
    system, reads, epochs, snapshot = _run(name)
    bytes_digest = _bytes_digest(system, reads, epochs)
    rest_digest, read_counters = _split_snapshot(snapshot)
    pinned_bytes, pinned_rest, pinned_counters = PINNED[name]
    assert bytes_digest == pinned_bytes
    assert rest_digest == pinned_rest
    assert read_counters == pinned_counters
