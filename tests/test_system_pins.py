"""Byte-level pins for the archival systems the lazy-transit digest misses.

Each system runs one seeded scenario: three stores, the system's own
maintenance call, then one repair-on-read per object.  The digest covers
the node contents, the recorded transcript, ``bytes_sent``, every receipt
(placement, metadata and escrow) and the metrics snapshot, so any change
to what a system encodes, places, records or counts shows up here.
"""

import hashlib
import json

import pytest

from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.obs import use_registry
from repro.storage.node import make_node_fleet
from repro.storage.placement import share_key
from repro.systems import (
    ArchiveSafeLT,
    ElsaStyleArchive,
    HasDpss,
    Pasis,
    PasisPolicy,
    Potshards,
    VsrArchive,
)
from repro.systems.pasis import PasisParameters

#: One sha256 per scenario, first recorded before the store/retrieve
#: pipeline moved into ``ArchivalSystem``.  Every value moved when
#: repair-on-read began rebuilding the rotted share in place from the
#: quorum the read decoded: each repair now sends that one share, draws no
#: randomness and keeps the object's keys, where it used to re-encode the
#: whole object.  "pasis-erasure" and "elsa" moved again when Reed-Solomon
#: decode began building its plan as a Lagrange plan: the snapshot's
#: ``codec_plan_requests_total{plan=rs-decode}`` folded into
#: ``{plan=lagrange}``, and no byte, transcript or receipt moved.
PINNED = {
    "archivesafelt": "e656b9c953244fd5ccaac7f62e0e2b90f6711c18d275df1b124cb14b62573168",
    "potshards": "b5764b559eb74dc3a9c383d4a402ef658329cda990d76463072f6d1e3517833c",
    "pasis-replication": "9c54fc956043061f530a95334b4d0ce49c60f0ad83a607bdbfe6c88054cb216a",
    "pasis-erasure": "468cd3ba4eb4c7a1f84be40a27de2e5fc10e6b15b490bcea88338588376cc4d7",
    "pasis-shamir": "08bcbb18fe66b20e05a4aeae91af186eb4c1b0472f7aafbd8c5a478d7db205f7",
    "vsr": "26cf70d736640c772829520449a48a9472687967523073d6713699be7e37f7b0",
    "hasdpss": "8c5b3a1ec26d1d090278034e2dfb9c8a65da584634f20f69ea9c12d66fd0479e",
    "elsa": "963f1f34a3d788cfd6a950e34e9ea9b564e7fa0fdf1c99c0016655e9a8868f9e",
}

SIZES = (100, 777, 4096)


def _aes_broken():
    timeline = BreakTimeline()
    timeline.schedule_break("aes-256-ctr", 1)
    return timeline


def _pasis(policy, n, threshold):
    def build(rng):
        return Pasis(
            make_node_fleet(8), rng, default_parameters=PasisParameters(policy, n, threshold)
        )

    return build, lambda system, data: None


def _recover_first(system, data):
    receipt = system.receipt("obj-0")
    first = min(receipt.placement.node_by_share)
    shard = system.steal_at_rest("obj-0", [first])[first]
    assert system.recover_without_index(shard, len(data[0])) == data[0]


SCENARIOS = {
    "archivesafelt": (
        lambda rng: ArchiveSafeLT(
            make_node_fleet(3, providers=["aws"]), rng, replication=2
        ),
        lambda system, data: system.respond_to_break(_aes_broken(), epoch=1),
    ),
    "potshards": (lambda rng: Potshards(make_node_fleet(8), rng), _recover_first),
    "pasis-replication": _pasis(PasisPolicy.REPLICATION, 3, 1),
    "pasis-erasure": _pasis(PasisPolicy.ERASURE, 6, 4),
    "pasis-shamir": _pasis(PasisPolicy.SHAMIR, 5, 3),
    "vsr": (
        lambda rng: VsrArchive(make_node_fleet(8), rng),
        lambda system, data: system.redistribute_all(6, 4),
    ),
    "hasdpss": (
        lambda rng: HasDpss(make_node_fleet(8), rng),
        lambda system, data: system.change_committee(6, 4),
    ),
    "elsa": (
        lambda rng: ElsaStyleArchive(make_node_fleet(6), rng),
        lambda system, data: system.renew_key_plane(),
    ),
}


def _canonical(value):
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (bytes, bytearray)):
        return bytes(value).hex()
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def _rot_first_share(system, object_id):
    receipt = system.receipt(object_id)
    index = min(receipt.placement.node_by_share)
    node = system.placement_policy.node(receipt.placement.node_by_share[index])
    node.corrupt_object(share_key(object_id, index), b"rotten")


def _run(name):
    build, maintain = SCENARIOS[name]
    with use_registry() as registry:
        system = build(DeterministicRandom(b"system-pin-" + name.encode()))
        system.record_transcript()
        source = DeterministicRandom(b"system-pin-data")
        data = [source.bytes(size) for size in SIZES]
        for i, blob in enumerate(data):
            system.store(f"obj-{i}", blob)
        maintain(system, data)
        for i, blob in enumerate(data):
            _rot_first_share(system, f"obj-{i}")
            retrieved, report = system.retrieve_with_report(f"obj-{i}")
            assert retrieved == blob and report.shares_repaired == 1
            assert system.retrieve(f"obj-{i}") == blob
        snapshot = registry.snapshot()
    return system, snapshot


def _digest(system, snapshot):
    digest = hashlib.sha256()

    def feed(*parts):
        for part in parts:
            if isinstance(part, int):
                part = str(part).encode()
            elif isinstance(part, str):
                part = part.encode()
            digest.update(len(part).to_bytes(8, "big"))
            digest.update(part)

    for node in system.nodes:
        for key in node.object_ids():
            feed(node.node_id, key, node.raw_bytes(key))
    for entry in system.transcript:
        t = entry.transmission
        feed(entry.node_id, entry.object_id, t.sequence, t.channel, t.wire)
    feed(system.transit.bytes_sent)
    for object_id in sorted(system._receipts):
        receipt = system.receipt(object_id)
        feed(
            object_id,
            receipt.original_length,
            json.dumps(
                _canonical(
                    {
                        "placement": receipt.placement.node_by_share,
                        "metadata": receipt.metadata,
                        "escrow": receipt.escrow,
                    }
                ),
                sort_keys=True,
            ),
        )
    feed(json.dumps(snapshot, sort_keys=True))
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_system_scenario_matches_its_pin(name):
    assert _digest(*_run(name)) == PINNED[name]
