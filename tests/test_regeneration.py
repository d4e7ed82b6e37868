"""Repair-on-read by regeneration: the rotted shares, rebuilt in place.

Every ``SecureArchive`` policy and ``AontRsArchive`` store shares that are
values of one GF(256) polynomial, so the quorum a read decoded from fixes
every other share byte for byte, and the decode's own interpolation
rebuilds them.  These tests rot each share a read fetches (one at a time,
and two at once where the spare shares allow) and pin that the repair
rewrites exactly those shares, with their original bytes, where they
already were -- in the read's one matmul -- and changes nothing else.
Maintenance reads (renewal, migration) are not client reads: they count
no retrieve and repair nothing the renewal replaces anyway.
"""

import copy
import dataclasses
import itertools

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
from repro.errors import ParameterError
from repro.gmath.reedsolomon import ReedSolomonCode
from repro.obs import use_registry
from repro.secretsharing.aontrs import AontRsDispersal
from repro.secretsharing.leakage import LeakageResilientSharing
from repro.secretsharing.packed import PackedSecretSharing
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.storage.faults import FaultPlan, FaultRule
from repro.storage.node import make_node_fleet
from repro.storage.placement import share_key
from repro.systems.aontrs_system import AontRsArchive

LRSS_POLICY = ArchivePolicy(
    target=ConfidentialityTarget.LONG_TERM_LEAKAGE_HARDENED, n=5, t=3
)


class _Archive(SecureArchive):
    SIGNER_HEIGHT = 4


#: name -> (builder(nodes, rng), share count n, decode quorum)
SYSTEMS = {
    "century": (lambda nodes, rng: _Archive(CENTURY_SAFE, nodes, rng), 5, 3),
    "economy": (lambda nodes, rng: _Archive(CENTURY_SAFE_ECONOMY, nodes, rng), 7, 6),
    "computational": (lambda nodes, rng: _Archive(PRACTICAL_COMPUTATIONAL, nodes, rng), 6, 4),
    "lrss": (lambda nodes, rng: _Archive(LRSS_POLICY, nodes, rng), 5, 3),
    "aontrs": (lambda nodes, rng: AontRsArchive(nodes, rng, n=6, k=4), 6, 4),
}


def _rot_cases():
    for name, (_, n, quorum) in SYSTEMS.items():
        # AONT-RS shards count from 0, the polynomial schemes' shares from 1.
        first = 0 if name in ("computational", "aontrs") else 1
        fetched = range(first, first + quorum)  # a healthy read's shares
        for index in fetched:
            yield pytest.param(name, (index,), id=f"{name}-{index}")
        if n - quorum >= 2:
            for pair in itertools.combinations(fetched, 2):
                yield pytest.param(name, pair, id=f"{name}-{pair[0]}+{pair[1]}")


def _build(name, fleet=None):
    build, n, _ = SYSTEMS[name]
    nodes = fleet if fleet is not None else make_node_fleet(n + 1)
    system = build(nodes, DeterministicRandom(f"regenerate/{name}"))
    system.record_transcript()
    data = DeterministicRandom(b"regenerate-data").bytes(999)
    system.store("doc", data)
    return system, data


def _stored(system):
    return {
        (node.node_id, key): node._objects[key]
        for node in system.nodes
        for key in node.object_ids()
    }


def _rot(system, indices):
    """Corrupt the shares at *indices*; returns their pre-rot bytes."""
    node_by_share = system.receipt("doc").placement.node_by_share
    clean = {}
    for index in indices:
        node = system.placement_policy.node(node_by_share[index])
        clean[index] = node.peek(share_key("doc", index))
        node.corrupt_object(share_key("doc", index), b"rotted")
    return clean


@pytest.mark.parametrize("name, rotted", _rot_cases())
def test_read_regenerates_exactly_the_rotted_shares(name, rotted):
    system, data = _build(name)
    receipt = system.receipt("doc")
    placement, metadata = receipt.placement, copy.deepcopy(receipt.metadata)
    clean = _rot(system, rotted)
    before = _stored(system)
    sent = len(system.transcript)
    twin_rng = copy.deepcopy(system.rng)

    with use_registry() as registry:
        read, report = system.retrieve_with_report("doc")
        assert read == data
        assert report.repair_candidates == sorted(rotted)
        assert report.shares_repaired == len(rotted)
        counters = registry.snapshot()["counters"]
        assert counters["repairs_on_read_total"] == len(rotted)
        # The decode and the regeneration are one interpolation.
        assert counters["gf256_vec_ops_total"] == 1
        assert not any(key.startswith("secretsharing_splits_total") for key in counters)
        assert not any(key.startswith("maintenance_deferred_total") for key in counters)

        # Healed in place, byte for byte; nothing else was rewritten.
        after = _stored(system)
        assert after.keys() == before.keys()
        for (node_id, key), stored in after.items():
            index = int(key.rsplit("-", 1)[1])
            if index in rotted:
                node = system.placement_policy.node(node_id)
                assert node.peek(key) == clean[index]
            else:
                assert stored is before[(node_id, key)]
        assert system.receipt("doc") is receipt
        assert receipt.placement is placement
        assert receipt.metadata == metadata
        assert len(system.transcript) == sent + len(rotted)
        # No randomness was drawn.
        assert system.rng.bytes(16) == twin_rng.bytes(16)

        # The second read finds nothing to repair.
        read, report = system.retrieve_with_report("doc")
        assert read == data
        assert report.repair_candidates == [] and report.shares_repaired == 0
        assert registry.snapshot()["counters"]["repairs_on_read_total"] == len(rotted)


def test_batch_read_repairs_each_object_in_its_decode():
    archive = _Archive(CENTURY_SAFE, make_node_fleet(6), DeterministicRandom(b"batch"))
    items = [(f"obj-{i}", DeterministicRandom(f"batch/{i}").bytes(700 + i)) for i in range(3)]
    archive.store_batch(items)
    clean = {}
    for (object_id, _), index in zip(items, (1, 2, 3)):
        node_id = archive.receipt(object_id).placement.node_by_share[index]
        node = archive.placement_policy.node(node_id)
        clean[object_id, index] = (node, node.peek(share_key(object_id, index)))
        node.corrupt_object(share_key(object_id, index), b"rotted")
    with use_registry() as registry:
        assert archive.retrieve_batch([oid for oid, _ in items]) == [d for _, d in items]
        counters = registry.snapshot()["counters"]
    assert counters["repairs_on_read_total"] == len(items)
    assert counters["gf256_vec_ops_total"] == len(items)
    for (object_id, index), (node, before) in clean.items():
        assert node.peek(share_key(object_id, index)) == before


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_repair_whose_put_fails_is_deferred_until_the_node_takes_writes(name):
    _, n, _ = SYSTEMS[name]
    plan = FaultPlan(seed=1)
    system, data = _build(name, plan.wrap_fleet(make_node_fleet(n + 1)))
    index = min(system.receipt("doc").placement.node_by_share)
    clean = _rot(system, [index])
    holder = system.receipt("doc").placement.node_by_share[index]
    outage = FaultRule(kind="outage", op="put", node_id=holder)
    plan.add_rule(outage)

    with use_registry() as registry:
        read, report = system.retrieve_with_report("doc")
        assert read == data
        assert report.shares_repaired == 0
        counters = registry.snapshot()["counters"]
        assert counters["maintenance_deferred_total{op=repair,reason=put}"] == 1
        assert "repairs_on_read_total" not in counters
        assert system.placement_policy.node(holder).peek(share_key("doc", index)) is None

        plan.rules.remove(outage)
        read, report = system.retrieve_with_report("doc")
        assert read == data
        assert report.shares_repaired == 1
        counters = registry.snapshot()["counters"]
        assert counters["repairs_on_read_total"] == 1
        assert counters["maintenance_deferred_total{op=repair,reason=put}"] == 1
        assert system.placement_policy.node(holder).peek(share_key("doc", index)) == clean[index]


@pytest.mark.parametrize(
    "scheme",
    [
        ShamirSecretSharing(5, 3),
        PackedSecretSharing(7, 3, 3),
        LeakageResilientSharing(5, 3),
        AontRsDispersal(6, 4),
    ],
    ids=["shamir", "packed", "lrss", "aont-rs"],
)
def test_any_quorum_regenerates_every_share(scheme):
    data = DeterministicRandom(b"split-data").bytes(301)
    split = scheme.split(data, DeterministicRandom(3))
    shares = list(split.shares)
    indices = [share.index for share in shares]
    for quorum in itertools.combinations(shares, split.threshold):
        quorum_split = dataclasses.replace(split, shares=quorum)
        assert scheme.reconstruct(quorum_split, regenerate=indices) == (data, shares)
        assert scheme.reconstruct(quorum_split, regenerate=[]) == (data, [])
        assert scheme.reconstruct(quorum_split) == data
    with pytest.raises(ParameterError):
        scheme.reconstruct(split, regenerate=[max(indices) + 1])


def test_reed_solomon_regenerates_data_and_parity_shards():
    data = DeterministicRandom(b"rs-data").bytes(103)
    code = ReedSolomonCode(6, 4)
    shards = code.encode(data)
    # Interpolated decode: the plan gains the rebuilt shards' rows.
    payload, rebuilt = code.decode_array(shards[2:], len(data), regenerate=[0, 1])
    assert payload.tobytes() == data and rebuilt == shards[:2]
    # Systematic decode: the rebuilt shards are its one matmul.
    with use_registry() as registry:
        payload, rebuilt = code.decode_array(shards[:4], len(data), regenerate=[4, 5])
        assert registry.snapshot()["counters"]["gf256_vec_ops_total"] == 1
    assert payload.tobytes() == data and rebuilt == shards[4:]
    with pytest.raises(ParameterError):
        code.decode_array(shards, len(data), regenerate=[6])


class TestMaintenanceReads:
    """Renewal reads through the fetch and decode, not the client retrieve."""

    def _archive(self):
        archive = _Archive(CENTURY_SAFE, make_node_fleet(6), DeterministicRandom(b"renew"))
        archive.store("doc", DeterministicRandom(b"renew-data").bytes(1000))
        return archive

    def test_epochs_count_no_client_retrieve(self):
        archive = self._archive()
        with use_registry() as registry:
            archive.advance_epoch()
            archive.advance_epoch()
            counters = registry.snapshot()["counters"]
        assert counters["archive_renewed_objects_total"] == 2
        assert "archive_ops_total{op=retrieve}" not in counters
        assert "archive_retrieve_bytes_total" not in counters
        assert "spans_total{span=archive.retrieve}" not in counters

    def test_renewal_does_not_repair_the_shares_it_replaces(self):
        archive = self._archive()
        data = archive.retrieve("doc")
        _rot(archive, [1])
        with use_registry() as registry:
            report = archive.advance_epoch()
            counters = registry.snapshot()["counters"]
        assert report.objects_renewed == 1
        # The renewal's five puts, and no repair put before them.
        assert counters["storage_puts_total"] == CENTURY_SAFE.n
        assert "repairs_on_read_total" not in counters
        assert archive.retrieve("doc") == data


def test_replacement_rejects_an_encoding_that_differs_from_its_placement():
    system, data = _build("century")
    receipt = system.receipt("doc")
    before = _stored(system)
    placement = system.placement_policy.place("doc", [1, 2, 3, 4, 5])
    with pytest.raises(ParameterError):
        system._replace_shares(receipt, placement, {i: b"x" for i in range(1, 7)})
    assert _stored(system) == before
    assert system.retrieve("doc") == data
