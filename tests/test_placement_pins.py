"""Byte-level pins for share placement.

Each scenario runs seeded stores against one fleet while nodes go offline
and come back between them, then hashes where every share landed: each
receipt's ``node_by_share``, which stores failed for want of nodes, and the
``tier_*`` counters.  Any change to how placement walks the fleet -- the
rotation, provider independence, tier preference and fallback -- shows up
here.
"""

import hashlib
import json

import pytest

from repro.core.archive import SecureArchive
from repro.core.policy import CENTURY_SAFE
from repro.crypto.drbg import DeterministicRandom
from repro.errors import DecodingError, StorageError
from repro.obs import use_registry
from repro.storage.node import make_node_fleet
from repro.storage.tiering import TIER_COLD, TIER_HOT, TIER_WARM, make_tiered_fleet
from repro.systems.cloud import CloudProviderArchive

#: One sha256 per scenario, recorded while placement kept two algorithms:
#: the untiered rotation and a separate tiered walk.  "tiered-failing" moved
#: (from 456d4c53...) when they became one walk, because a failed placement
#: no longer advances the rotation, assigns the object a tier, records an
#: access or counts the shares it chose before failing.  "tiered" and
#: "tiered-failing" moved (from 73774a22... and f501bade...) when an
#: epoch's maintenance became one pass: an object due for renewal and a
#: tier move is placed once, so the rotation advances once for it.
PINNED = {
    "untiered": "feb4e622e70816ef87df56a1fe387ae860bb0b9e3580d0af772ec0980e265e28",
    "repeated-providers": "fb19afa99bea1dbeb59bcda3c96db17b26c3c5cb949fa5bfb2678ce164436acc",
    "cloud": "8f27d87984582db62cedd9f608bb6c8d513c46a6a5bd6043a3d4c86aeb539016",
    "tiered": "54222277f7eb02bc58e7c9c77dd848fc1d5db3924f70005a1f1bb26e26721a59",
    "tiered-failing": "f07a62aae8f47da752ad460433cbff1cabddbc565cb256d6284941177199d63e",
}

TIERED_COUNTS = {TIER_HOT: 4, TIER_WARM: 4, TIER_COLD: 6}


def _toggle(rng, nodes, max_offline):
    """Flip one random node, keeping at most *max_offline* offline."""
    node = nodes[rng.randrange(len(nodes))]
    offline = sum(not n.online for n in nodes)
    if node.online and offline >= max_offline:
        return
    node.set_online(not node.online)


def _drive(system, rng, stores, max_offline, flips=1, epoch_every=None, reads=0):
    """Seeded stores with *flips* node toggles before each; returns the
    outcome of each store ("ok" or "failed") and each failed read."""
    outcomes = []
    for k in range(stores):
        for _ in range(flips):
            _toggle(rng, system.nodes, max_offline)
        object_id = f"obj-{k}"
        try:
            system.store(object_id, rng.bytes(64 + rng.randrange(256)))
        except StorageError:
            outcomes.append([object_id, "failed"])
        else:
            outcomes.append([object_id, "ok"])
        stored = [oid for oid, outcome in outcomes if outcome == "ok"]
        # Reads start halfway, on a small working set, so demand promotes
        # what the idle first half demoted.
        for _ in range(reads if stored and 2 * k >= stores else 0):
            object_id = stored[rng.randrange(min(3, len(stored)))]
            try:
                system.retrieve(object_id)
            except DecodingError:
                outcomes.append([object_id, "unreadable"])
        if epoch_every and k % epoch_every == epoch_every - 1:
            for node in system.nodes:
                node.set_online(True)
            system.advance_epoch()
    return outcomes


def _digest(system, outcomes, snapshot):
    state = {
        "outcomes": outcomes,
        "placements": [
            [oid, sorted(system.receipt(oid).placement.node_by_share.items())]
            for oid, outcome in outcomes
            if outcome == "ok"
        ],
        "tier_counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith("tier_")
        },
    }
    return hashlib.sha256(json.dumps(state, sort_keys=True).encode()).hexdigest()


def _untiered(max_offline, providers=None):
    def run(rng):
        nodes = make_node_fleet(8 if providers is None else len(providers), providers)
        system = SecureArchive(CENTURY_SAFE, nodes, DeterministicRandom(b"pins"))
        return system, _drive(system, rng, stores=30, max_offline=max_offline)

    return run


def _cloud(rng):
    system = CloudProviderArchive(
        make_node_fleet(5, providers=["aws"]), DeterministicRandom(b"pins"), replication=3
    )
    return system, _drive(system, rng, stores=30, max_offline=3)


def _tiered(max_offline, flips):
    def run(rng):
        system = SecureArchive(
            CENTURY_SAFE, make_tiered_fleet(TIERED_COUNTS), DeterministicRandom(b"pins")
        )
        system.enable_tiering()
        return system, _drive(
            system,
            rng,
            stores=24,
            max_offline=max_offline,
            flips=flips,
            epoch_every=4,
            reads=2,
        )

    return run


SCENARIOS = {
    "untiered": _untiered(max_offline=4),
    "repeated-providers": _untiered(3, ["a", "a", "b", "c", "c", "d", "e", "e", "f"]),
    "cloud": _cloud,
    "tiered": _tiered(max_offline=2, flips=1),
    "tiered-failing": _tiered(max_offline=11, flips=4),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_placement_pin(name):
    with use_registry() as registry:
        system, outcomes = SCENARIOS[name](DeterministicRandom(f"placement-pins:{name}"))
        digest = _digest(system, outcomes, registry.snapshot())
    assert digest == PINNED[name], digest


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_exercises_what_it_pins(name):
    """Every scenario but "tiered" fails some stores for want of nodes, and
    every scenario places most of its stores."""
    _, outcomes = SCENARIOS[name](DeterministicRandom(f"placement-pins:{name}"))
    failed = sum(outcome == "failed" for _, outcome in outcomes)
    if name == "tiered":
        assert failed == 0
    else:
        assert 0 < failed < len(outcomes) // 2
