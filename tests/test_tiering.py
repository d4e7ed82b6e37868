"""Tiered hot/warm/cold storage: registry, tracking, migration, invariants.

Three layers of pinning:

- unit tests for the tier registry (the closed tier vocabulary), the
  decayed access tracker, and the migration policy knobs;
- behavioral tests for tier-aware placement (quorum hot / parity cold,
  hot-first fetch, cold fallback priced by the archive I/O model) and the
  migrator's promote/demote ladder riding the renewal pipeline;
- the migration-invariant property suite: 200 seeded simulations that
  interleave stores, retrieves, and migration ticks, asserting after every
  operation that (a) every object stays decodable at quorum, (b) share
  counts per object are conserved, and (c) identically seeded runs produce
  byte-identical tier-assignment traces -- with zero decode failures.

The zipfian regression pins the economic point of the whole subsystem:
popular traffic drives the hot tier to majority occupancy of recent
objects, and untouched objects demote after the configured idle window.
"""

import pytest

from repro.analysis.tiers_scenario import run_tiers_scenario
from repro.core.archive import SecureArchive
from repro.core.policy import PRACTICAL_COMPUTATIONAL, ArchivePolicy, ConfidentialityTarget
from repro.crypto.drbg import DeterministicRandom
from repro.errors import ParameterError, StorageError
from repro.obs.metrics import use_registry
from repro.storage.tiering import (
    TIER_COLD,
    TIER_HOT,
    TIER_WARM,
    AccessTracker,
    MigrationPolicy,
    TierMigrator,
    TierRegistry,
    default_tier_registry,
    make_tiered_fleet,
)
from repro.storage.workload import ZipfianPopularity


@pytest.fixture
def registry():
    with use_registry() as reg:
        yield reg


FLEET_COUNTS = {TIER_HOT: 4, TIER_WARM: 4, TIER_COLD: 6}

TIERED_POLICY = ArchivePolicy(
    target=ConfidentialityTarget.LONG_TERM, n=5, t=3, renew_every_epochs=None
)


class FastSignerArchive(SecureArchive):
    """SecureArchive with a 16-key Merkle signer: signer keygen dominates
    archive construction, and the 400 seeded simulations below each build
    a fresh archive.  Rollover semantics are identical at any height (and
    fire *more* often with fewer keys, so the small signer exercises the
    rollover path harder, not less)."""

    SIGNER_HEIGHT = 4


def make_tiered_archive(seed=0, counts=None, migration=None, cls=SecureArchive):
    """A LONG_TERM n=5/t=3 archive on a hot/warm/cold fleet with tiering on."""
    archive = cls(
        TIERED_POLICY,
        make_tiered_fleet(counts or dict(FLEET_COUNTS)),
        DeterministicRandom(seed),
    )
    migrator = archive.enable_tiering(
        TierMigrator(policy=migration) if migration is not None else None
    )
    return archive, migrator


def share_tiers(archive, object_id):
    """share index -> tier of the node actually holding that share."""
    receipt = archive.receipt(object_id)
    return {
        index: archive.placement_policy.node(node_id).tier
        for index, node_id in sorted(receipt.placement.node_by_share.items())
    }


class TestTierRegistry:
    def test_default_registry_order_and_media(self):
        reg = default_tier_registry()
        assert reg.names == (TIER_HOT, TIER_WARM, TIER_COLD)
        assert reg.hottest.name == TIER_HOT
        assert reg.coldest.name == TIER_COLD
        # Media bindings follow the Section 4 catalog: SSD/HDD/tape.
        assert reg.get(TIER_HOT).media.name == "QLC SSD"
        assert reg.get(TIER_WARM).media.name == "Archival HDD"
        assert reg.get(TIER_COLD).media.name == "LTO-9 tape"

    def test_rank_and_neighbors_clamp(self):
        reg = default_tier_registry()
        assert [reg.rank(name) for name in reg.names] == [0, 1, 2]
        assert reg.colder(TIER_HOT).name == TIER_WARM
        assert reg.colder(TIER_COLD).name == TIER_COLD  # clamped
        assert reg.warmer(TIER_COLD).name == TIER_WARM
        assert reg.warmer(TIER_HOT).name == TIER_HOT  # clamped

    def test_unknown_tier_raises(self):
        reg = default_tier_registry()
        with pytest.raises(StorageError):
            reg.get("lukewarm")
        with pytest.raises(StorageError):
            reg.rank("lukewarm")

    def test_duplicate_names_rejected(self):
        spec = default_tier_registry().hottest
        with pytest.raises(ParameterError):
            TierRegistry([spec, spec])
        with pytest.raises(ParameterError):
            TierRegistry([])

    def test_fallback_order_prefers_near_then_cold(self):
        reg = default_tier_registry()
        assert reg.fallback_order(TIER_HOT) == (TIER_HOT, TIER_WARM, TIER_COLD)
        # Ties break colder-first: overflow onto cheap media, not expensive.
        assert reg.fallback_order(TIER_WARM) == (TIER_WARM, TIER_COLD, TIER_HOT)
        assert reg.fallback_order(TIER_COLD) == (TIER_COLD, TIER_WARM, TIER_HOT)

    def test_tier_read_pricing_orders_hot_below_cold(self):
        reg = default_tier_registry()
        payload = 1 << 20
        hot_s = reg.get(TIER_HOT).read_seconds(payload)
        cold_s = reg.get(TIER_COLD).read_seconds(payload)
        assert 0 < hot_s < cold_s
        # Writes are slower than reads (the paper's asymmetry).
        spec = reg.get(TIER_COLD)
        assert spec.write_seconds(payload) > spec.read_seconds(payload)


class TestMakeTieredFleet:
    def test_counts_labels_and_distinct_providers(self):
        nodes = make_tiered_fleet(FLEET_COUNTS)
        assert len(nodes) == sum(FLEET_COUNTS.values())
        by_tier = {}
        for node in nodes:
            by_tier.setdefault(node.tier, []).append(node)
        assert {tier: len(ns) for tier, ns in by_tier.items()} == FLEET_COUNTS
        providers = [node.provider for node in nodes]
        assert len(set(providers)) == len(providers)

    def test_unknown_tier_and_empty_fleet_rejected(self):
        with pytest.raises(StorageError):
            make_tiered_fleet({"lukewarm": 3})
        with pytest.raises(ParameterError):
            make_tiered_fleet({})


class TestAccessTracker:
    def test_decay_arithmetic(self):
        tracker = AccessTracker(decay=0.5)
        tracker.record("obj")
        tracker.record("obj")
        assert tracker.score("obj") == 2.0
        tracker.advance_to(2)
        assert tracker.score("obj") == 0.5  # 2 * 0.5^2
        tracker.record("obj")
        assert tracker.score("obj") == 1.5

    def test_idle_epochs(self):
        tracker = AccessTracker()
        assert tracker.idle_epochs("never-seen") == 0
        tracker.advance_to(3)
        assert tracker.idle_epochs("never-seen") == 3
        tracker.record("obj")
        assert tracker.idle_epochs("obj") == 0
        tracker.advance_to(5)
        assert tracker.idle_epochs("obj") == 2

    def test_suspended_records_nothing(self):
        tracker = AccessTracker()
        with tracker.suspended():
            tracker.record("obj")
            with tracker.suspended():  # nests
                tracker.record("obj")
        assert tracker.score("obj") == 0.0
        tracker.record("obj")  # suspension lifted
        assert tracker.score("obj") == 1.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            AccessTracker(decay=1.0)
        tracker = AccessTracker()
        tracker.advance_to(2)
        with pytest.raises(ParameterError):
            tracker.advance_to(1)
        with pytest.raises(ParameterError):
            tracker.record("obj", weight=-1.0)


class TestMigrationPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"promote_score": 0.0},
            {"demote_idle_epochs": 0},
            {"decay": 0.0},
            {"max_migrations_per_tick": 0},
        ],
    )
    def test_knob_validation(self, kwargs):
        with pytest.raises(ParameterError):
            MigrationPolicy(**kwargs)


class TestTieredPlacement:
    def test_quorum_hot_parity_cold(self, registry):
        archive, _ = make_tiered_archive()
        archive.store("obj", b"straddle the tiers")
        tiers = share_tiers(archive, "obj")
        ordered = [tiers[i] for i in sorted(tiers)]
        # First t=3 share indices (the decode quorum) ride the object's
        # (hottest) tier, the n-t=2 parity shares ride the coldest.
        assert ordered == [TIER_HOT, TIER_HOT, TIER_HOT, TIER_COLD, TIER_COLD]

    def test_healthy_read_never_touches_cold(self, registry):
        archive, _ = make_tiered_archive()
        archive.store("obj", b"hot quorum only")
        data, report = archive.retrieve_with_report("obj")
        assert data == b"hot quorum only"
        # Quorum satisfied from the 3 hot shares; fetch stopped early.
        assert report.shares_tried == archive.policy.t
        assert report.stopped_early
        snapshot = registry.snapshot()["counters"]
        assert f"tier_reads_total{{tier={TIER_COLD}}}" not in snapshot

    def test_cold_fallback_is_priced(self, registry):
        archive, _ = make_tiered_archive()
        archive.store("obj", b"degrade to the cold shares")
        tiers = share_tiers(archive, "obj")
        receipt = archive.receipt("obj")
        # Take 2 of the 3 hot shares away (n-t failures, the tolerated
        # maximum): the read must fall back onto both cold parity shares.
        hot_indices = [i for i, tier in tiers.items() if tier == TIER_HOT]
        for index in hot_indices[:2]:
            archive.placement_policy.node(
                receipt.placement.node_by_share[index]
            ).set_online(False)
        data, report = archive.retrieve_with_report("obj")
        assert data == b"degrade to the cold shares"
        counters = registry.snapshot()["counters"]
        assert counters[f"tier_reads_total{{tier={TIER_COLD}}}"] >= 1
        # The degraded read paid the tape tier's archive-model read time.
        cold_spec = archive.tiering.registry.get(TIER_COLD)
        assert report.simulated_wait_s >= cold_spec.read_seconds(1)

    def test_failed_placement_changes_nothing(self, registry):
        archive, migrator = make_tiered_archive()
        for node in archive.nodes[: len(archive.nodes) - TIERED_POLICY.n + 1]:
            node.set_online(False)
        with pytest.raises(StorageError):
            archive.store("obj", b"too few nodes online")
        # No tier assigned, no access recorded, no share counted as placed.
        assert "obj" not in migrator.assignments
        counters = registry.snapshot()["counters"]
        assert not any(name.startswith("tier_") for name in counters)

    def test_untiered_fleet_unaffected(self, registry):
        from repro.storage.node import make_node_fleet

        archive = SecureArchive(
            TIERED_POLICY, make_node_fleet(6), DeterministicRandom(b"untiered")
        )
        archive.store("obj", b"no tiers configured")
        assert archive.retrieve("obj") == b"no tiers configured"
        counters = registry.snapshot()["counters"]
        assert not any(name.startswith("tier_") for name in counters)


class TestTierMigrator:
    def test_demote_ladder_one_step_per_tick(self, registry):
        archive, migrator = make_tiered_archive(
            migration=MigrationPolicy(demote_idle_epochs=2)
        )
        archive.store("obj", b"left to cool")
        assert migrator.tier_of("obj") == TIER_HOT
        archive.advance_epoch()
        assert migrator.tier_of("obj") == TIER_HOT  # idle 1 < 2
        report = archive.advance_epoch()
        assert migrator.tier_of("obj") == TIER_WARM  # one step, not a cliff
        assert report.objects_demoted == 1
        archive.advance_epoch()
        assert migrator.tier_of("obj") == TIER_COLD
        # Fully cold: every share now sits on cold nodes.
        assert set(share_tiers(archive, "obj").values()) == {TIER_COLD}
        assert archive.retrieve("obj") == b"left to cool"

    def test_promote_ladder_on_demand(self, registry):
        archive, migrator = make_tiered_archive()
        archive.store("obj", b"reheat me")
        for _ in range(3):
            archive.advance_epoch()
        assert migrator.tier_of("obj") == TIER_COLD
        for _ in range(2):
            for _ in range(5):
                archive.retrieve("obj")
            archive.advance_epoch()
        assert migrator.tier_of("obj") == TIER_HOT
        counters = registry.snapshot()["counters"]
        assert counters["tier_migrations_total{direction=promote}"] == 2
        # The cooldown was a two-step ladder: hot -> warm -> cold.
        assert counters["tier_migrations_total{direction=demote}"] == 2
        assert counters["tier_migration_bytes_total"] > 0

    def test_migration_cap_skips_deterministically(self, registry):
        archive, migrator = make_tiered_archive(
            migration=MigrationPolicy(demote_idle_epochs=1, max_migrations_per_tick=1)
        )
        archive.store("obj-a", b"a")
        archive.store("obj-b", b"b")
        report = archive.advance_epoch()
        # One move per tick; the other object waits its turn.
        assert report.objects_demoted == 1
        assert migrator.tier_of("obj-a") == TIER_WARM  # sorted id order
        assert migrator.tier_of("obj-b") == TIER_HOT

    def test_maintenance_reads_do_not_heat(self, registry):
        policy = ArchivePolicy(
            target=ConfidentialityTarget.LONG_TERM, n=5, t=3, renew_every_epochs=1
        )
        archive = SecureArchive(
            policy, make_tiered_fleet(dict(FLEET_COUNTS)), DeterministicRandom(7)
        )
        migrator = archive.enable_tiering(
            TierMigrator(policy=MigrationPolicy(demote_idle_epochs=2))
        )
        archive.store("obj", b"renewed every epoch")
        for _ in range(3):
            report = archive.advance_epoch()
            assert report.objects_renewed == 1  # renewal does run...
        # ...but its internal reads never registered as demand.
        assert migrator.tier_of("obj") == TIER_COLD

    def test_failed_migration_keeps_source_tier(self, registry):
        archive = FastSignerArchive(
            PRACTICAL_COMPUTATIONAL,
            make_tiered_fleet(dict(FLEET_COUNTS)),
            DeterministicRandom(b"failed migration"),
        )
        migrator = archive.enable_tiering(
            TierMigrator(policy=MigrationPolicy(demote_idle_epochs=1))
        )
        archive.store("doc", b"stays hot")
        placed = share_tiers(archive, "doc")

        def node_keys():
            return {(node.node_id, key) for node in archive.nodes for key in node.object_ids()}

        keys, links = node_keys(), len(archive.chain)
        # Four hot nodes and one warm stay up: the demotion cannot place six shares.
        for node in archive.nodes[5:]:
            node.set_online(False)
        # The migration is deferred; the epoch still completes.
        report = archive.advance_epoch()
        assert (report.objects_demoted, report.migrations_deferred) == (0, ["doc"])
        assert report.chain_renewed and len(archive.chain) == links + 1
        counters = registry.snapshot()["counters"]
        assert counters["maintenance_deferred_total{op=migrate,reason=placement}"] == 1
        for node in archive.nodes[5:]:
            node.set_online(True)
        assert migrator.tier_of("doc") == TIER_HOT
        assert share_tiers(archive, "doc") == placed
        assert node_keys() == keys
        # With the nodes back, the next epoch makes the demotion.
        report = archive.advance_epoch()
        assert (report.objects_demoted, report.migrations_deferred) == (1, [])
        assert migrator.tier_of("doc") == TIER_WARM
        assert archive.retrieve("doc") == b"stays hot"

    def test_deleted_objects_are_forgotten(self, registry):
        archive, migrator = make_tiered_archive()
        archive.store("obj", b"short-lived")
        assert "obj" in migrator.assignments
        archive.delete("obj")
        assert "obj" not in migrator.assignments
        archive.advance_epoch()  # must not trip over the gone object

    def test_unbound_migrator_rejected(self):
        migrator = TierMigrator()
        with pytest.raises(ParameterError):
            migrator.run_epoch(1)
        with pytest.raises(ParameterError):
            migrator.layout_for("obj", [1, 2, 3])
        with pytest.raises(ParameterError):
            migrator.bind(object(), data_shares=3)  # no renewal pipeline

    def test_occupancy_gauges(self, registry):
        archive, migrator = make_tiered_archive()
        archive.store("obj", b"gauge me")
        archive.advance_epoch()
        gauges = registry.snapshot()["gauges"]
        assert gauges[f"tier_objects{{tier={TIER_HOT}}}"] == 1
        total_bytes = sum(
            gauges[f"tier_bytes_stored{{tier={name}}}"]
            for name in migrator.registry.names
        )
        assert total_bytes == archive.placement_policy.total_bytes_stored()


class TestZipfianRegression:
    """ZipfianPopularity traffic must actually drive the migrator: hot tier
    ends majority-occupied by recently popular objects, and untouched
    objects demote once past the idle window."""

    def test_popular_objects_promote_and_idle_objects_demote(self, registry):
        archive, migrator = make_tiered_archive(
            seed=b"zipf-regression",
            migration=MigrationPolicy(demote_idle_epochs=2, promote_score=2.0),
        )
        object_ids = [f"obj-{k:03d}" for k in range(12)]
        for object_id in object_ids:
            archive.store(object_id, f"payload for {object_id}".encode())
        # Cool everything down to cold.
        for _ in range(4):
            archive.advance_epoch()
        assert all(migrator.tier_of(oid) == TIER_COLD for oid in object_ids)

        # Zipfian traffic over the first half: the recent/popular set.
        popularity = ZipfianPopularity(s=1.1)
        traffic_rng = DeterministicRandom(b"zipf-traffic")
        recent = object_ids[:6]
        for object_id in recent:
            popularity.add(object_id)
        promoted_any = 0
        for _ in range(6):
            for _ in range(40):
                archive.retrieve(popularity.sample(traffic_rng))
            report = archive.advance_epoch()
            promoted_any += report.objects_promoted
        assert promoted_any > 0

        hot_now = [oid for oid in object_ids if migrator.tier_of(oid) == TIER_HOT]
        # The hot tier is majority-occupied by the recently popular set...
        assert len(hot_now) > 0
        assert all(oid in recent for oid in hot_now)
        assert len([oid for oid in recent if migrator.tier_of(oid) != TIER_COLD]) > len(recent) / 2
        # ...and the untouched half stayed demoted.
        assert all(migrator.tier_of(oid) == TIER_COLD for oid in object_ids[6:])


# -- the migration-invariant property suite -------------------------------------------

NUM_SEEDS = 200
SIM_STEPS = 12


def _simulate(seed: int):
    """One seeded run: interleave stores/retrieves/migration ticks.

    Checks after *every* operation:
    - every stored object still has exactly n shares on its placed nodes
      (share-count conservation, including mid-migration);
    - a sampled object decodes at quorum, byte-exact (zero decode
      failures tolerated).

    Returns the tier-assignment trace (one frame per step) for the
    determinism comparison, plus the final byte-exact verification count.
    """
    rng = DeterministicRandom(f"tiering-sim:{seed}")
    archive, migrator = make_tiered_archive(
        seed=f"tiering-arch:{seed}",
        migration=MigrationPolicy(demote_idle_epochs=2, promote_score=1.5),
        cls=FastSignerArchive,
    )
    contents: dict[str, bytes] = {}
    trace = []
    decodes = 0
    for step in range(SIM_STEPS):
        action = rng.randrange(4)
        if action == 0 or not contents:  # store a new object
            object_id = f"obj-{seed}-{step}"
            payload = rng.bytes(rng.randrange(1, 64))
            archive.store(object_id, payload)
            contents[object_id] = payload
        elif action in (1, 2):  # retrieve (the demand signal)
            object_id = rng.choice(sorted(contents))
            assert archive.retrieve(object_id) == contents[object_id]
            decodes += 1
        else:  # migration tick
            archive.advance_epoch()
        # Invariant (b): share counts conserved, even mid-migration.
        for object_id in contents:
            receipt = archive.receipt(object_id)
            assert len(receipt.placement.node_by_share) == archive.policy.n
            present = sum(
                1
                for index, node_id in receipt.placement.node_by_share.items()
                if archive.placement_policy.node(node_id).contains(
                    f"{object_id}/share-{index}"
                )
            )
            assert present == archive.policy.n, (
                f"seed {seed} step {step}: {object_id} has {present} shares"
            )
        # Invariant (a): a sampled object decodes at quorum right now.
        probe = rng.choice(sorted(contents))
        assert archive.retrieve(probe) == contents[probe]
        decodes += 1
        trace.append((step, tuple(sorted(migrator.assignments.items()))))
    # Final sweep: every object byte-exact.
    for object_id, payload in sorted(contents.items()):
        assert archive.retrieve(object_id) == payload
        decodes += 1
    return trace, decodes


@pytest.mark.parametrize("seed_block", range(10))
def test_migration_invariants_property_suite(seed_block, registry):
    """200 seeds in 10 blocks: invariants hold and reruns are identical."""
    per_block = NUM_SEEDS // 10
    for seed in range(seed_block * per_block, (seed_block + 1) * per_block):
        trace_a, decodes_a = _simulate(seed)
        trace_b, decodes_b = _simulate(seed)
        # Invariant (c): identically seeded runs give byte-identical
        # tier-assignment traces (and did identical work).
        assert trace_a == trace_b, f"seed {seed}: nondeterministic assignments"
        assert decodes_a == decodes_b
        assert decodes_a > 0


class TestTiersScenario:
    """The analysis CLI's --tiers replay, pinned as a reproducibility vector."""

    def test_full_life_cycle_is_healthy(self):
        result = run_tiers_scenario(seed=2024)
        assert result.healthy
        assert result.round_trips_ok
        assert result.promotions >= 1 and result.demotions >= 1
        # Reheating a cold object is served from cold media and priced.
        assert result.reads_by_tier.get(TIER_COLD, 0) >= 1
        assert result.cold_read_wait_s > 0.0
        assert "cold media" in result.render()
        # Host span timings are scrubbed: everything left must reproduce.
        assert not any(
            name.startswith("span_")
            for values in result.snapshot.values()
            for name in values
        )

    def test_same_seed_is_byte_identical(self):
        a = run_tiers_scenario(seed=7)
        b = run_tiers_scenario(seed=7)
        assert a.snapshot == b.snapshot
        assert a.occupancy == b.occupancy
        assert a.migration_log == b.migration_log
        assert a.render() == b.render()
