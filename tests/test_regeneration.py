"""Repair-on-read by regeneration: the rotted shares, rebuilt in place.

On every archival system the quorum a read decoded fixes every other share
byte for byte: a replica is its own copy, and Shamir, packed, LRSS and
Reed-Solomon shares are values of one GF(256) polynomial, so the decode's
own interpolation rebuilds them.  These tests rot each share a healthy
read fetches (one at a time, and two at once where the spare shares
allow) and pin that the repair rewrites exactly those shares, with their
original bytes, where they already were -- in the read's own decode --
and changes nothing else: no randomness, placement, receipt, key or seal.
Maintenance reads (renewal, migration) are not client reads: they count
no retrieve and repair nothing the renewal replaces anyway.
"""

import copy
import dataclasses
import itertools
from typing import Callable, NamedTuple

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
from repro.crypto.registry import BreakTimeline
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
from repro.systems import (
    ArchiveSafeLT,
    CloudProviderArchive,
    ElsaStyleArchive,
    HasDpss,
    Lincos,
    Pasis,
    PasisPolicy,
    Potshards,
    VsrArchive,
)
from repro.systems.aontrs_system import AontRsArchive
from repro.systems.pasis import PasisParameters

LRSS_POLICY = ArchivePolicy(
    target=ConfidentialityTarget.LONG_TERM_LEAKAGE_HARDENED, n=5, t=3
)


class _Archive(SecureArchive):
    SIGNER_HEIGHT = 4


class System(NamedTuple):
    build: Callable  # (nodes, rng) -> system
    shares: int  # shares an object is stored as
    quorum: int | None  # shares a healthy read fetches (None: every one)
    matmuls: int  # GF(256) matmuls of a repaired read
    after_store: Callable | None = None  # maintenance before the rot


def _pasis(policy, n, threshold):
    return lambda nodes, rng: Pasis(
        nodes, rng, default_parameters=PasisParameters(policy, n, threshold)
    )


def _wrap(system):
    timeline = BreakTimeline()
    timeline.schedule_break("aes-256-ctr", 1)
    system.respond_to_break(timeline, epoch=1)


SYSTEMS = {
    "century": System(lambda nodes, rng: _Archive(CENTURY_SAFE, nodes, rng), 5, 3, 1),
    "economy": System(lambda nodes, rng: _Archive(CENTURY_SAFE_ECONOMY, nodes, rng), 7, 6, 1),
    "computational": System(
        lambda nodes, rng: _Archive(PRACTICAL_COMPUTATIONAL, nodes, rng), 6, 4, 1
    ),
    "lrss": System(lambda nodes, rng: _Archive(LRSS_POLICY, nodes, rng), 5, 3, 1),
    "aontrs": System(lambda nodes, rng: AontRsArchive(nodes, rng, n=6, k=4), 6, 4, 1),
    "cloud": System(lambda nodes, rng: CloudProviderArchive(nodes, rng, replication=3), 3, 1, 0),
    "archivesafelt": System(
        lambda nodes, rng: ArchiveSafeLT(nodes, rng, replication=3), 3, 1, 0, after_store=_wrap
    ),
    "lincos": System(Lincos, 5, 3, 1),
    "vsr": System(VsrArchive, 6, 4, 1, after_store=lambda s: s.redistribute_all(6, 4)),
    "hasdpss": System(HasDpss, 5, 3, 1),
    "elsa": System(ElsaStyleArchive, 6, 4, 1),
    "pasis-replication": System(_pasis(PasisPolicy.REPLICATION, 3, 1), 3, 1, 0),
    "pasis-erasure": System(_pasis(PasisPolicy.ERASURE, 6, 4), 6, 4, 1),
    "pasis-shamir": System(_pasis(PasisPolicy.SHAMIR, 5, 3), 5, 3, 1),
    # Two XOR fragments, each a (4, 3) Shamir group: one matmul per group.
    "potshards": System(Potshards, 8, None, 2),
}

#: Where each system keeps an object's client-side keys.
KEY_STORES = ("_kms", "_key_history", "_key_groups")


def _build(name, fleet=None):
    case = SYSTEMS[name]
    nodes = fleet if fleet is not None else make_node_fleet(case.shares + 1)
    system = case.build(nodes, DeterministicRandom(f"regenerate/{name}"))
    system.record_transcript()
    data = DeterministicRandom(b"regenerate-data").bytes(999)
    system.store("doc", data)
    if case.after_store is not None:
        case.after_store(system)
    return system, data


def _fetched(system):
    """The share indices a healthy read of "doc" fetches, in order."""
    receipt = system.receipt("doc")
    return sorted(system._fetch_shares(receipt, need=system._quorum(receipt)))


def _stored(system):
    return {
        (node.node_id, key): node._objects[key]
        for node in system.nodes
        for key in node.object_ids()
    }


def _keys(system):
    """Each key store's entry for "doc", with a copy of its contents."""
    entries = {}
    for store in KEY_STORES:
        if hasattr(system, store):
            entry = getattr(system, store)["doc"]
            entries[store] = (entry, copy.copy(entry))
    return entries


def _seals(system):
    """What a seal would grow: the timestamp chain and the ledger."""
    return len(getattr(system, "chain", ())), getattr(getattr(system, "ledger", None), "height", 0)


def _rot(system, indices):
    """Corrupt the shares at *indices*; returns their pre-rot bytes."""
    node_by_share = system.receipt("doc").placement.node_by_share
    clean = {}
    for index in indices:
        node = system.placement_policy.node(node_by_share[index])
        clean[index] = node.peek(share_key("doc", index))
        node.corrupt_object(share_key("doc", index), b"rotted")
    return clean


def _rot_cases():
    for name, case in SYSTEMS.items():
        # Indices from a healthy read: systems count from 0, 1 or 101.
        fetched = _fetched(_build(name)[0])
        for index in fetched:
            yield pytest.param(name, (index,), id=f"{name}-{index}")
        if name == "potshards":
            # One spare shard per XOR fragment, whose groups the fetch reads
            # in turn: rot one shard in each.
            half = len(fetched) // 2
            pairs = itertools.product(fetched[:half], fetched[half:])
        elif case.shares - case.quorum >= 2:
            pairs = itertools.combinations(fetched, 2)
        else:
            pairs = ()
        for pair in pairs:
            yield pytest.param(name, pair, id=f"{name}-{pair[0]}+{pair[1]}")


@pytest.mark.parametrize("name, rotted", _rot_cases())
def test_read_regenerates_exactly_the_rotted_shares(name, rotted):
    system, data = _build(name)
    assert set(rotted) <= set(_fetched(system))
    receipt = system.receipt("doc")
    placement, metadata = receipt.placement, copy.deepcopy(receipt.metadata)
    escrow = dict(receipt.escrow)
    keys, seals = _keys(system), _seals(system)
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
        # The decode and the regeneration are one pass over the quorum.
        assert counters.get("gf256_vec_ops_total", 0) == SYSTEMS[name].matmuls
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
        assert receipt.escrow.keys() == escrow.keys()
        assert all(receipt.escrow[key] is value for key, value in escrow.items())
        # No key was replaced or re-dealt, and nothing was sealed again.
        for store, (entry, contents) in keys.items():
            assert getattr(system, store)["doc"] is entry
            assert entry == contents
        assert _seals(system) == seals
        assert len(system.transcript) == sent + len(rotted)
        # No randomness was drawn, except that LINCOS's QKD link generates
        # the one-time pad each rebuilt share is sent under.
        if isinstance(system, Lincos):
            for index in rotted:
                twin_rng.bytes(len(clean[index]))
        assert system.rng.bytes(16) == twin_rng.bytes(16)

        # The second read finds nothing to repair.
        read, report = system.retrieve_with_report("doc")
        assert read == data
        assert report.repair_candidates == [] and report.shares_repaired == 0
        assert registry.snapshot()["counters"]["repairs_on_read_total"] == len(rotted)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_read_rewrites_a_missing_share_under_its_key(name):
    """A share whose node is online but no longer holds it is rebuilt in
    the read's decode and rewritten under the same node and key with its
    old bytes; every other stored share stays as it was."""
    system, data = _build(name)
    index = _fetched(system)[0]
    node = system.placement_policy.node(system.receipt("doc").placement.node_by_share[index])
    key = share_key("doc", index)
    lost = node.peek(key)
    node.delete(key)
    before = _stored(system)

    with use_registry() as registry:
        read, report = system.retrieve_with_report("doc")
        assert read == data
        assert report.shares_failed == {index: "missing"}
        assert report.repair_candidates == [index]
        assert report.shares_repaired == 1
        counters = registry.snapshot()["counters"]
        assert counters["repairs_on_read_total"] == 1
        assert counters.get("gf256_vec_ops_total", 0) == SYSTEMS[name].matmuls
    assert node.peek(key) == lost
    after = _stored(system)
    assert after.keys() == before.keys() | {(node.node_id, key)}
    assert all(after[stored] is before[stored] for stored in before)

    read, report = system.retrieve_with_report("doc")
    assert read == data
    assert report.shares_failed == {} and report.shares_repaired == 0


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
    plan = FaultPlan(seed=1)
    system, data = _build(name, plan.wrap_fleet(make_node_fleet(SYSTEMS[name].shares + 1)))
    index = _fetched(system)[0]
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
