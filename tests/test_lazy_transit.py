"""Lazy transit, the shares oracle, and memory that follows live data.

A transmission carries its payload and derives its wire bytes when read;
only a harness that asked to record the wire keeps transmissions; no
receipt keeps a plaintext copy, and post-break recovery of a
sub-threshold haul decodes the shares the nodes hold.  These tests pin
that the wire bytes, the node contents and ``bytes_sent`` are exactly what
an eager channel produces, that no store, renewal or repair runs the
transit cipher, that the oracle changes nothing a later call sees, and
that neither renewed share generations nor retired signers' one-time keys
stay reachable from an archive.
"""

import copy
import gc
import hashlib
import sys
import types

import pytest

from repro.channels import tls
from repro.channels.base import Transmission
from repro.core.archive import SecureArchive
from repro.core.policy import CENTURY_SAFE, CENTURY_SAFE_ECONOMY, PRACTICAL_COMPUTATIONAL
from repro.crypto.chacha20 import chacha20_xor
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.kdf import hkdf
from repro.crypto.registry import BreakTimeline
from repro.errors import StillSecureError
from repro.integrity.auditor import ChainAuditor
from repro.integrity.timestamp import MerkleChainVerifier
from repro.obs import use_registry
from repro.storage.faults import FaultPlan, FaultRule, injected_latency
from repro.storage.node import make_node_fleet
from repro.systems import AontRsArchive, CloudProviderArchive, Lincos

#: One sha256 per pinned system over its transcript (node, object,
#: sequence, channel, wire, escrow), node contents and ``bytes_sent`` after
#: the scenario in :func:`_exercise`, so a move names the system that
#: moved.  First recorded as one digest over all six from the eager
#: channels that encrypted every share on send and decrypted it on receive;
#: that digest moved once, when SecureArchive and AONT-RS repair-on-read
#: began sending only the regenerated share.  Cloud and LINCOS moved when
#: they began doing the same: their repair sends one share instead of a
#: fresh encoding (Cloud 8 -> 7 transmissions, LINCOS 20 -> 16), and
#: LINCOS no longer timestamps a repaired object again.  LINCOS and the
#: three SecureArchive digests moved when the chain signer became
#: Merkle-WOTS: its keygen draws fewer DRBG bytes, so every later random
#: byte (shares, pads) shifts.
PINNED_DIGESTS = {
    "cloud": "d9582f63cf64aa3c527bf7b7ef93d4f11d466dd5ca1c26745b69aadb7876a625",
    "aontrs": "f9c3008ca8710480e9b97d0c34efe54de505e7d9fc5a2b40616b8160242515ab",
    "lincos": "f1ea51b3b42c15edd40ca11b127bcf0a90112d974c9b693824bfb016e8b96bc5",
    "century": "f0f43966ea77065aef45ff95ac4e954b4c36c21dc12ab19b40dedf17ddddbea6",
    "economy": "90d6f3954e0da42061c3c5b869c98e535298c05ad88015ebe03c7f190dd5a877",
    "computational": "7a9e9bf7e31aff16b9e81d3f6c44dc9209d82169254039e5f922aea9a7f67d84",
}


class _QuickArchive(SecureArchive):
    # A small signer keeps construction fast; the pinned digests were
    # recorded with this height.
    SIGNER_HEIGHT = 4


def _pinned_systems():
    yield "cloud", CloudProviderArchive(
        make_node_fleet(3, providers=["aws"]),
        DeterministicRandom(b"pin-cloud"),
        replication=2,
    )
    yield "aontrs", AontRsArchive(make_node_fleet(6), DeterministicRandom(b"pin-aontrs"))
    yield "lincos", Lincos(make_node_fleet(5), DeterministicRandom(b"pin-lincos"))
    for name, policy in (
        ("century", CENTURY_SAFE),
        ("economy", CENTURY_SAFE_ECONOMY),
        ("computational", PRACTICAL_COMPUTATIONAL),
    ):
        yield name, _QuickArchive(
            policy, make_node_fleet(8), DeterministicRandom(b"pin-" + name.encode())
        )


def _rot_first_share(system, object_id):
    receipt = system.receipt(object_id)
    index = min(receipt.placement.node_by_share)
    node = system.placement_policy.node(receipt.placement.node_by_share[index])
    node.corrupt_object(f"{object_id}/share-{index}", b"rotten")


def _exercise(system):
    """Seeded stores, one renewal (SecureArchive) and one repair-on-read."""
    data = DeterministicRandom(b"pin-data")
    for i, size in enumerate((100, 777, 4096)):
        system.store(f"obj-{i}", data.bytes(size))
    if isinstance(system, SecureArchive):
        system.advance_epoch()
    _rot_first_share(system, "obj-0")
    system.retrieve("obj-0")


def _break_at(epoch, *primitives):
    timeline = BreakTimeline()
    for name in primitives:
        timeline.schedule_break(name, epoch)
    return timeline


def _pinned_parts(system):
    """What the pin hashes for *system*, once :func:`_exercise` ran."""
    yield system.name
    for entry in system.transcript:
        t = entry.transmission
        yield from (entry.node_id, entry.object_id, t.sequence, t.channel, t.wire, t._escrow)
    for node in system.nodes:
        for key in node.object_ids():
            yield from (node.node_id, key, node.raw_bytes(key))
    yield system.transit.bytes_sent


def test_transcript_nodes_and_bytes_sent_match_eager_transit():
    digests = {}
    for name, system in _pinned_systems():
        system.record_transcript()
        _exercise(system)
        digest = hashlib.sha256()
        for part in _pinned_parts(system):
            if isinstance(part, int):
                part = str(part).encode()
            elif isinstance(part, str):
                part = part.encode()
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)
        digests[name] = digest.hexdigest()
    assert digests == PINNED_DIGESTS


def test_store_renewal_and_repair_run_no_transit_cipher(monkeypatch):
    archive = _QuickArchive(CENTURY_SAFE, make_node_fleet(6), DeterministicRandom(b"lazy"))
    archive.record_transcript()
    data = DeterministicRandom(b"lazy-data").bytes(3000)

    def refuse(*args):
        raise AssertionError("the transit cipher ran on the store path")

    with monkeypatch.context() as patch:
        patch.setattr(tls, "chacha20_xor", refuse)
        archive.store("doc", data)
        assert archive.advance_epoch().objects_renewed == 1
        _rot_first_share(archive, "doc")
        retrieved, report = archive.retrieve_with_report("doc")
        assert retrieved == data and report.shares_repaired == 1

    channel = archive.transit
    # Store and renewal each sent every share once; the repair regenerated
    # and sent only the rotted share.
    assert len(archive.transcript) == 2 * CENTURY_SAFE.n + 1
    timeline = _break_at(10, "toy-dh", "chacha20")
    delivered = {}
    for entry in archive.transcript:
        t = entry.transmission
        payload = channel.receive(t)
        key = hkdf(channel._session_secret, 32, info=f"msg-{t.sequence}".encode())
        assert t.wire == chacha20_xor(key, b"\x00" * 12, payload)
        assert channel.break_open(t, timeline, epoch=10) == payload
        delivered[(entry.node_id, entry.object_id)] = payload
    assert channel.bytes_sent == sum(len(e.transmission) for e in archive.transcript)
    # A live share is the very object its transmission carried.
    for index, node_id in archive.receipt("doc").placement.node_by_share.items():
        stored = archive.placement_policy.node(node_id).peek(f"doc/share-{index}")
        assert stored is delivered[(node_id, "doc")]


def _reachable(*roots, skip=()):
    """Every object reachable from *roots* without passing through *skip*
    (classes, modules, functions aside)."""
    seen = {id(obj) for obj in skip}
    found = []
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
            obj, (type, types.ModuleType, types.FunctionType)
        ):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def _retained_bytes(*roots, skip=()):
    return sum(sys.getsizeof(obj) for obj in _reachable(*roots, skip=skip))


def _assert_no_plaintext(receipts, plaintexts):
    held = _reachable(*receipts)
    assert not any(isinstance(obj, memoryview) for obj in held)
    blobs = [obj for obj in held if isinstance(obj, (bytes, bytearray))]
    assert not any(blob == plain for blob in blobs for plain in plaintexts)


def test_store_large_receipts_hold_no_plaintext_and_one_share_opens_after_break():
    archive = _QuickArchive(
        PRACTICAL_COMPUTATIONAL, make_node_fleet(7), DeterministicRandom(b"large")
    )
    data = DeterministicRandom(b"large-data").bytes(10_000)
    receipts = archive.store_large("big", data, segment_bytes=4096)
    segments = [data[k * 4096 : (k + 1) * 4096] for k in range(len(receipts))]
    assert len(segments) == 3

    _assert_no_plaintext(receipts, [data, *segments])

    timeline = _break_at(5, "aes-256-ctr")
    timeline.schedule_break("sha256", 8)
    for receipt, segment in zip(receipts, segments):
        first = min(receipt.placement.node_by_share)
        haul = archive.steal_at_rest(receipt.object_id, share_indices=[first])
        with pytest.raises(StillSecureError):
            archive.attempt_recovery(receipt.object_id, haul, timeline, epoch=7)
        assert archive.attempt_recovery(receipt.object_id, haul, timeline, epoch=8) == segment


def test_aontrs_receipts_hold_no_plaintext_and_one_share_opens_after_break():
    system = AontRsArchive(make_node_fleet(6), DeterministicRandom(b"aontrs-receipt"))
    plaintexts = [DeterministicRandom(b"aontrs-data").bytes(size) for size in (100, 4096)]
    receipts = [system.store(f"doc-{i}", data) for i, data in enumerate(plaintexts)]
    _assert_no_plaintext(receipts, plaintexts)

    timeline = _break_at(5, "aes-256-ctr", "sha256")
    for receipt, data in zip(receipts, plaintexts):
        first = min(receipt.placement.node_by_share)
        haul = system.steal_at_rest(receipt.object_id, share_indices=[first])
        with pytest.raises(StillSecureError):
            system.attempt_recovery(receipt.object_id, haul, timeline, epoch=4)
        assert system.attempt_recovery(receipt.object_id, haul, timeline, epoch=5) == data


def test_shares_oracle_changes_nothing_a_later_call_sees():
    # Every op the plan sees would draw from its rng and bump an ordinal.
    plan = FaultPlan(
        rules=[FaultRule(kind="latency", op="any", latency_s=1e-3, probability=0.5)],
        seed=3,
    )
    fleet = plan.wrap_fleet(make_node_fleet(6))
    system = AontRsArchive(fleet, DeterministicRandom(b"oracle"), n=6, k=4)
    data = DeterministicRandom(b"oracle-data").bytes(2048)
    system.store("doc", data)
    receipt = system.receipt("doc")
    shares = system.steal_at_rest("doc")
    rotted, offline = sorted(receipt.placement.node_by_share)[:2]
    system.placement_policy.node(receipt.placement.node_by_share[rotted]).corrupt_object(
        f"doc/share-{rotted}", b"rotten"
    )
    system.placement_policy.node(receipt.placement.node_by_share[offline]).set_online(False)

    def observable():
        return (
            [(vars(node.stats).copy(), list(node.compromise_epochs)) for node in fleet],
            plan.drain_wait_s(),  # latency accrued since the last drain
        )

    plan.drain_wait_s()
    with use_registry() as registry:
        before = observable(), registry.snapshot()
        twin_rng = copy.deepcopy(plan.rng)
        held = system._held_shares(receipt)
        assert (observable(), registry.snapshot()) == before
    assert plan.rng.bytes(16) == twin_rng.bytes(16)
    # The rotted share is left out; the offline node's share is still read.
    assert held == {i: p for i, p in shares.items() if i != rotted}

    timeline = _break_at(1, "aes-256-ctr", "sha256")
    one = {offline: shares[offline]}
    assert system.attempt_recovery("doc", one, timeline, epoch=1) == data


def test_renewal_and_signer_rollover_keep_memory_at_live_data():
    archive = _QuickArchive(
        CENTURY_SAFE_ECONOMY, make_node_fleet(8), DeterministicRandom(b"live-memory")
    )
    data = DeterministicRandom(b"live-memory-data")
    for i in range(24):
        archive.store(f"obj-{i}", data.bytes(4096))

    def archive_bytes():
        # The timestamp chain is the audit record; it grows by design.
        return _retained_bytes(archive, skip=(archive.chain,))

    # A 16-key signer rolls over every 14 renewal epochs, so two rollovers
    # land between the two measurements.
    for _ in range(28):
        assert archive.advance_epoch().objects_renewed == 24
    at_e, signers = archive_bytes(), len(archive.signer_history)
    for _ in range(28):
        archive.advance_epoch()
    at_2e = archive_bytes()

    assert len(archive.signer_history) - signers >= 2
    assert abs(at_2e - at_e) <= 0.01 * at_e, (at_e, at_2e)
    # No harness asked to record the wire, so no transmission survives.
    assert archive.transcript is None
    assert not any(isinstance(obj, Transmission) for obj in _reachable(archive))
    # Retired signers are verifiers holding a root, and still audit the chain.
    auditor = ChainAuditor({})
    for signer in archive.signer_history[:-1]:
        assert isinstance(signer, MerkleChainVerifier)
        assert _retained_bytes(signer) < 1024
        auditor.register(signer)
    auditor.register(archive.signer_history[-1])
    verdict = auditor.audit(archive.chain, BreakTimeline(), now_epoch=archive.epoch)
    assert verdict.valid, verdict.explain()


def test_fault_plan_memory_stays_flat_as_faults_fire():
    # A fault's record is its counter and the error it raised; the plan
    # keeps no per-fault log.
    plan = FaultPlan([injected_latency("node-0", latency_s=1e-3)])
    (node,) = plan.wrap_fleet(make_node_fleet(1))
    node.put("doc", b"x")

    def retained_after(faults):
        for _ in range(faults):
            node.get("doc")
        plan.drain_wait_s()
        return _retained_bytes(plan)

    with use_registry() as registry:
        at_1k = retained_after(1000)
        at_2k = retained_after(1000)
        assert registry.snapshot()["counters"]["faults_injected_total{kind=latency}"] == 2000
    assert at_1k == at_2k, (at_1k, at_2k)
