"""Property-based chaos suite: store/retrieve under random seeded faults.

Each case derives a policy, a fleet, a payload, and a ``FaultPlan`` from a
single seed, stores the payload, and retrieves it under fire.  The archive
is allowed to *fail loudly* (a typed ``ReproError`` subclass) when the
faults exceed what the encoding can survive -- what it must never do is
return wrong bytes or leak an untyped exception.  Failure messages carry
the seed so any counterexample replays exactly.

Run with ``make test-chaos`` or ``pytest -m chaos``; the suite is excluded
from the default ``pytest`` invocation via ``addopts``.
"""

from __future__ import annotations

import pytest

from repro.analysis.faults_scenario import run_chaos_scenario
from repro.core.archive import SecureArchive
from repro.core.policy import ArchivePolicy, ConfidentialityTarget
from repro.crypto.drbg import DeterministicRandom
from repro.errors import DecodingError, IntegrityError, StorageError
from repro.obs import use_registry
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    flaky_first_reads,
    injected_latency,
    silent_bitrot,
    transient_outage,
)
from repro.storage.node import make_node_fleet
from repro.storage.placement import share_key
from repro.storage.tiering import (
    TIER_COLD,
    TIER_HOT,
    TIER_WARM,
    MigrationPolicy,
    TierMigrator,
    make_tiered_fleet,
)
from repro.systems import (
    AontRsArchive,
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
from repro.systems.pasis import PasisParameters

pytestmark = pytest.mark.chaos

#: Exceptions an overwhelmed archive may legitimately raise on retrieve.
TYPED_FAILURES = (DecodingError, IntegrityError, StorageError)

NUM_CASES = 200


def _derive_policy(rng: DeterministicRandom) -> ArchivePolicy:
    target = list(ConfidentialityTarget)[rng.randrange(4)]
    n = 3 + rng.randrange(6)  # 3..8 providers
    t = 2 + rng.randrange(n - 2)  # 2..n-1 (AONT-RS needs k < n)
    if target is ConfidentialityTarget.LONG_TERM_ECONOMY:
        # packed sharing needs n >= t + pack_width
        pack_width = 1 + rng.randrange(n - t)
    else:
        pack_width = 2
    return ArchivePolicy(
        target=target, n=n, t=max(1, t), pack_width=pack_width,
        renew_every_epochs=None,
    )


def _derive_fault_plan(rng: DeterministicRandom, policy: ArchivePolicy) -> FaultPlan:
    plan = FaultPlan(seed=rng.randrange(2**31), deadline_s=0.5)
    for _ in range(rng.randrange(5)):
        node_id = f"node-{rng.randrange(policy.n)}"
        kind = rng.randrange(4)
        if kind == 0:
            plan.add_rule(
                transient_outage(
                    node_id,
                    first_op=rng.randrange(3),
                    attempts=1 + rng.randrange(4),
                )
            )
        elif kind == 1:
            plan.add_rule(flaky_first_reads(node_id, fail_reads=1 + rng.randrange(2)))
        elif kind == 2:
            plan.add_rule(
                injected_latency(
                    node_id,
                    latency_s=0.01 * (1 + rng.randrange(100)),
                    probability=0.5 + 0.5 * rng.random(),
                )
            )
        else:
            plan.add_rule(silent_bitrot(node_id))
    return plan


def _run_case(seed: int) -> None:
    rng = DeterministicRandom(("chaos", seed).__repr__())
    policy = _derive_policy(rng)
    plan = _derive_fault_plan(rng, policy)
    fleet = plan.wrap_fleet(make_node_fleet(policy.n))
    # Some nodes may be hard-down for the whole case (beyond any retry).
    for node in fleet:
        if rng.random() < 0.15:
            node.set_online(False)
    archive = SecureArchive(policy, fleet, DeterministicRandom(seed))
    payload = rng.bytes(1 + rng.randrange(300))

    try:
        archive.store("doc", payload)
        retrieved = archive.retrieve("doc")
    except TYPED_FAILURES:
        return  # loud, typed failure: acceptable under injected faults
    assert retrieved == payload, (
        f"silent corruption! retrieve returned wrong bytes; "
        f"reproduce with seed={seed} (policy={policy.target.value} "
        f"n={policy.n} t={policy.t})"
    )


@pytest.mark.parametrize("seed", range(NUM_CASES))
def test_round_trip_is_exact_or_fails_loudly(seed):
    _run_case(seed)


# -- tiered topologies ---------------------------------------------------------------

TIERED_CHAOS_POLICY = ArchivePolicy(
    target=ConfidentialityTarget.LONG_TERM, n=5, t=3, renew_every_epochs=None
)


def _make_tiered_archive(seed) -> SecureArchive:
    archive = SecureArchive(
        TIERED_CHAOS_POLICY,
        make_tiered_fleet({TIER_HOT: 4, TIER_WARM: 4, TIER_COLD: 6}),
        DeterministicRandom(seed),
    )
    archive.enable_tiering(
        TierMigrator(policy=MigrationPolicy(demote_idle_epochs=2))
    )
    return archive


@pytest.mark.parametrize("seed", range(100))
def test_cold_tier_faults_never_lose_data(seed):
    """Chaos confined to the cold tier must *never* cost data -- not even a
    typed failure.  The decode quorum rides the object's own (hot or warm)
    tier, cold holds only parity, and the hot-first fetch order means cold
    faults are at worst a priced detour, never a loss.
    """
    rng = DeterministicRandom(("tiered-chaos", seed).__repr__())
    archive = _make_tiered_archive(seed)
    payloads = {}
    for k in range(3):
        object_id = f"doc-{k}"
        payloads[object_id] = rng.bytes(1 + rng.randrange(200))
        archive.store(object_id, payloads[object_id])
    # Let some objects cool one ladder step (quorum stays off cold: the
    # demote window is 2 epochs, so at most hot -> warm here).
    for _ in range(rng.randrange(3)):
        archive.advance_epoch()

    # Chaos on cold nodes only: hard outages and silent bitrot.
    cold_nodes = [n for n in archive.nodes if n.tier == TIER_COLD]
    for node in cold_nodes:
        if rng.random() < 0.4:
            node.set_online(False)
        for share_id in node.object_ids():
            if rng.random() < 0.4:
                node.corrupt_object(share_id, rng.bytes(8))

    for object_id, payload in sorted(payloads.items()):
        data, report = archive.retrieve_with_report(object_id)
        assert data == payload, (
            f"tiered data loss! reproduce with seed={seed} ({object_id})"
        )
        # Every failed share, if any, was a cold one; the quorum held on
        # the warmer tiers.
        receipt = archive.receipt(object_id)
        for index in report.shares_failed:
            node = archive.placement_policy.node(
                receipt.placement.node_by_share[index]
            )
            assert node.tier == TIER_COLD, (
                f"non-cold share failed under cold-only chaos; seed={seed}"
            )


@pytest.mark.parametrize("seed", [0, 3, 11, 29, 77])
def test_repair_on_read_replaces_shares_in_correct_tier(seed):
    """A degraded read that trips repair-on-read must leave the object's
    shares tier-correct: the rotted share is regenerated in place, so the
    quorum stays on the object's tier and parity on cold -- even while a
    hot node is down and the fetch leaned on cold."""
    archive = _make_tiered_archive(seed)
    payload = DeterministicRandom(("repair", seed).__repr__()).bytes(120)
    archive.store("doc", payload)
    receipt = archive.receipt("doc")
    by_tier = {
        index: archive.placement_policy.node(node_id)
        for index, node_id in sorted(receipt.placement.node_by_share.items())
    }
    hot_indices = [i for i, n in by_tier.items() if n.tier == TIER_HOT]
    cold_indices = [i for i, n in by_tier.items() if n.tier == TIER_COLD]
    # One hot node down, one cold share rotted: the read must degrade onto
    # cold, detect the rot, decode from the rest, and repair.
    by_tier[hot_indices[0]].set_online(False)
    by_tier[cold_indices[0]].corrupt_object(
        f"doc/share-{cold_indices[0]}", b"\x00" * 8
    )
    data, report = archive.retrieve_with_report("doc")
    assert data == payload
    assert report.shares_repaired > 0, f"repair did not fire; seed={seed}"

    # The placement after the repair is tier-correct: quorum on the
    # object's tier (still hot -- the read itself is demand), parity on cold.
    repaired = archive.receipt("doc").placement
    tiers = [
        archive.placement_policy.node(repaired.node_by_share[index]).tier
        for index in sorted(repaired.node_by_share)
    ]
    t = TIERED_CHAOS_POLICY.t
    assert tiers[:t] == [TIER_HOT] * t
    assert tiers[t:] == [TIER_COLD] * (len(tiers) - t)
    # And the repaired object reads back clean with the hot node still down.
    assert archive.retrieve("doc") == payload


@pytest.mark.parametrize("seed", [0, 7, 42, 1999])
def test_chaos_scenario_matrix_is_deterministic(seed):
    """Two runs of any seeded scenario agree byte-for-byte: same degraded-
    read report, same metric snapshot, same rendering."""
    with use_registry():
        first = run_chaos_scenario(seed=seed)
    with use_registry():
        second = run_chaos_scenario(seed=seed)
    assert first.report.as_dict() == second.report.as_dict(), (
        f"non-deterministic report; reproduce with seed={seed}"
    )
    assert first.snapshot == second.snapshot, (
        f"non-deterministic metrics; reproduce with seed={seed}"
    )
    assert first.render() == second.render()
    assert first.plaintext_ok and second.plaintext_ok


# -- the other nine archival systems ---------------------------------------------------

#: name -> (builder(nodes, rng), fleet size): a spare node or two beyond
#: the shares of one object.
OTHER_SYSTEMS = {
    "aontrs": (lambda nodes, rng: AontRsArchive(nodes, rng, n=6, k=4), 8),
    "archivesafelt": (lambda nodes, rng: ArchiveSafeLT(nodes, rng, replication=3), 5),
    "cloud": (lambda nodes, rng: CloudProviderArchive(nodes, rng, replication=3), 5),
    "elsa": (ElsaStyleArchive, 8),
    "hasdpss": (HasDpss, 7),
    "lincos": (Lincos, 7),
    "pasis": (Pasis, 8),
    "potshards": (Potshards, 10),
    "vsr": (VsrArchive, 7),
}

PASIS_PARAMETERS = (
    PasisParameters(PasisPolicy.REPLICATION, 3, 1),
    PasisParameters(PasisPolicy.ERASURE, 6, 4),
    PasisParameters(PasisPolicy.SHAMIR, 5, 3),
)

NUM_OTHER_CASES = 180


def _stored_shares(system) -> dict[tuple[str, str], bytes]:
    return {
        (node.node_id, key): node.peek(key)
        for node in system.nodes
        for key in node.object_ids()
    }


@pytest.mark.parametrize("seed", range(NUM_OTHER_CASES))
def test_other_systems_repair_rotted_shares_to_their_stored_bytes(seed):
    """Every system but SecureArchive, under bitrot, flaky reads and one
    node that refuses puts: a read returns the exact bytes or fails typed,
    a share a read repaired holds exactly its bytes from the store, and no
    share is lost or orphaned.  The refusing node holds at most one share
    of an object, which every system's spare shares cover."""
    name = sorted(OTHER_SYSTEMS)[seed % len(OTHER_SYSTEMS)]
    build, fleet_size = OTHER_SYSTEMS[name]
    rng = DeterministicRandom(("other-chaos", seed).__repr__())
    plan = FaultPlan(seed=rng.randrange(2**31))
    system = build(plan.wrap_fleet(make_node_fleet(fleet_size)), DeterministicRandom(seed))
    payloads = {}
    for k in range(3):
        object_id = f"doc-{k}"
        payloads[object_id] = rng.bytes(1 + rng.randrange(300))
        if isinstance(system, Pasis):
            parameters = PASIS_PARAMETERS[rng.randrange(len(PASIS_PARAMETERS))]
            system.store(object_id, payloads[object_id], parameters=parameters)
        else:
            system.store(object_id, payloads[object_id])
    stored = _stored_shares(system)

    node_ids = [node.node_id for node in system.nodes]
    for node_id in node_ids:
        kind = rng.randrange(4)
        if kind == 0:
            plan.add_rule(silent_bitrot(node_id))
        elif kind == 1:
            plan.add_rule(flaky_first_reads(node_id, fail_reads=1 + rng.randrange(2)))
    plan.add_rule(FaultRule(kind="outage", op="put", node_id=node_ids[rng.randrange(fleet_size)]))

    def read_everything():
        for object_id, payload in sorted(payloads.items()):
            try:
                data = system.retrieve(object_id)
            except TYPED_FAILURES:
                continue
            assert data == payload, (
                f"silent corruption in {name}! reproduce with seed={seed} ({object_id})"
            )
        # A share is still rotted (None) or holds its stored bytes: a repair
        # rewrote exactly what the store wrote.
        for (node_id, key), clean in stored.items():
            held = system.placement_policy.node(node_id).peek(key)
            assert held is None or held == clean, (
                f"{name} repaired {key} on {node_id} to other bytes; seed={seed}"
            )

    read_everything()
    plan.rules.clear()
    read_everything()
    placed = {
        (node_id, share_key(receipt.object_id, index))
        for receipt in system._receipts.values()
        for index, node_id in receipt.placement.node_by_share.items()
    }
    assert set(_stored_shares(system)) == placed, f"{name} lost or orphaned a share; seed={seed}"
