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

#: One sha256 per scenario, recorded before the store/retrieve pipeline
#: moved into ``ArchivalSystem``.  ArchiveSafeLT's moved once since: its
#: repairs now re-encode under the object's own (wrapped) layers.
PINNED = {
    "archivesafelt": "783dcfddb67c3439814441176b27f4400a888cedd35255bd2df95df0c0dbaf61",
    "potshards": "b04325fe1438f50014b74910fde65ded7f19e30bf7f7bf99f7a4129430c61db7",
    "pasis-replication": "396731e6cf5b03113d3388a51ea8c95f316f3d3852d04f9087208e5a658a7d24",
    "pasis-erasure": "69d8042a5fe9a229f215df5ccdeebb86ab90f0977e3cb4906fd1bff70bfd2fce",
    "pasis-shamir": "c47b00f6c202ba50a32db8b900c48c25efc0c028c8f07c44ed7380eabfb8befd",
    "vsr": "dc8c738ddf16fdee609a77563df3616849c8621b38010cd803102db9c94727f7",
    "hasdpss": "ffe96fdb6dae01029bc39b2027e061027156fc4611b81b481cb0763ce9106ffe",
    "elsa": "b9c4fbab77ab7ab10b6e7d577722142de48e820ef749e49e357d3aa732d7e41a",
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
