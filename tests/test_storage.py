"""Storage substrate: nodes, placement, media, archive model, simulator."""

import pytest

from repro.errors import (
    IntegrityError,
    NodeUnavailableError,
    ObjectNotFoundError,
    ParameterError,
    StorageError,
)
from repro.storage.archive_model import (
    EB,
    PAPER_ARCHIVES,
    ArchiveProfile,
    exabyte_extrapolation,
    reencryption_estimate,
    scaled_archive,
)
from repro.storage.media import MEDIA_CATALOG, MediaSpec, rank_media_by_tco
from repro.storage.node import StorageNode, make_node_fleet
from repro.storage.placement import PlacementPolicy
from repro.storage.simulator import simulate_reencryption


class TestStorageNode:
    def test_put_get_roundtrip(self):
        node = StorageNode("n1", "provider-a")
        node.put("obj", b"payload")
        assert node.get("obj") == b"payload"

    def test_missing_object(self):
        node = StorageNode("n1", "p")
        with pytest.raises(ObjectNotFoundError):
            node.get("ghost")

    def test_offline_node_refuses(self):
        node = StorageNode("n1", "p")
        node.put("obj", b"x")
        node.set_online(False)
        with pytest.raises(NodeUnavailableError):
            node.get("obj")
        node.set_online(True)
        assert node.get("obj") == b"x"

    def test_corruption_detected_on_read(self):
        node = StorageNode("n1", "p")
        node.put("obj", b"original")
        node.corrupt_object("obj", b"tampered")
        with pytest.raises(IntegrityError):
            node.get("obj")

    def test_delete(self):
        node = StorageNode("n1", "p")
        node.put("obj", b"x")
        node.delete("obj")
        assert not node.contains("obj")

    def test_stats_accounting(self):
        node = StorageNode("n1", "p")
        node.put("a", b"12345")
        node.get("a")
        assert node.stats.puts == 1 and node.stats.gets == 1
        assert node.stats.bytes_written == 5 and node.stats.bytes_read == 5
        assert node.bytes_stored == 5

    def test_adversary_read_all_records_compromise(self):
        node = StorageNode("n1", "p")
        node.put("a", b"x")
        node.put("b", b"y")
        haul = node.adversary_read_all(epoch=7)
        assert haul == {"a": b"x", "b": b"y"}
        assert node.compromise_epochs == [7]

    def test_adversary_reads_offline_nodes_too(self):
        node = StorageNode("n1", "p")
        node.put("a", b"x")
        node.set_online(False)
        assert node.adversary_read_all(0) == {"a": b"x"}

    def test_fleet_spreads_providers(self):
        fleet = make_node_fleet(6)
        assert len({n.provider for n in fleet}) == 6
        fleet2 = make_node_fleet(6, providers=["p1", "p2"])
        assert {n.provider for n in fleet2} == {"p1", "p2"}


class TestPlacement:
    def test_distinct_providers_enforced(self):
        fleet = make_node_fleet(4, providers=["a", "a", "b", "b"])
        policy = PlacementPolicy(fleet)
        with pytest.raises(StorageError):
            policy.place("obj", [1, 2, 3])

    def test_place_and_fetch(self):
        fleet = make_node_fleet(5)
        policy = PlacementPolicy(fleet)
        placement = policy.place("obj", [1, 2, 3])
        policy.store(placement, {1: b"one", 2: b"two", 3: b"three"})
        assert policy.fetch_degraded(placement)[0] == {1: b"one", 2: b"two", 3: b"three"}

    def test_offline_shares_absent(self):
        fleet = make_node_fleet(3)
        policy = PlacementPolicy(fleet)
        placement = policy.place("obj", [1, 2])
        policy.store(placement, {1: b"a", 2: b"b"})
        policy.node(placement.node_by_share[1]).set_online(False)
        assert set(policy.fetch_degraded(placement)[0]) == {2}

    def test_corrupted_share_treated_unavailable(self):
        fleet = make_node_fleet(2)
        policy = PlacementPolicy(fleet)
        placement = policy.place("obj", [1])
        policy.store(placement, {1: b"clean"})
        policy.node(placement.node_by_share[1]).corrupt_object("obj/share-1", b"bad")
        assert policy.fetch_degraded(placement)[0] == {}

    def test_delete(self):
        fleet = make_node_fleet(2)
        policy = PlacementPolicy(fleet)
        placement = policy.place("obj", [1, 2])
        policy.store(placement, {1: b"a", 2: b"b"})
        policy.delete(placement)
        assert policy.fetch_degraded(placement)[0] == {}
        assert policy.total_bytes_stored() == 0

    def test_missing_payload_rejected(self):
        policy = PlacementPolicy(make_node_fleet(2))
        placement = policy.place("obj", [1, 2])
        with pytest.raises(ParameterError):
            policy.store(placement, {1: b"only one"})

    def test_rotation_spreads_load(self):
        policy = PlacementPolicy(make_node_fleet(4))
        first = policy.place("a", [1]).node_by_share[1]
        second = policy.place("b", [1]).node_by_share[1]
        assert first != second

    def test_duplicate_node_ids_rejected(self):
        nodes = [StorageNode("same", "a"), StorageNode("same", "b")]
        with pytest.raises(ParameterError):
            PlacementPolicy(nodes)


class TestMedia:
    def test_catalog_contains_paper_media(self):
        for key in ("tape", "hdd", "glass", "dna", "film", "ssd"):
            assert key in MEDIA_CATALOG

    def test_density_ordering_matches_paper(self):
        """DNA >> glass >> tape in density (8 orders of magnitude DNA/tape)."""
        dna = MEDIA_CATALOG["dna"].density_tb_per_cc
        glass = MEDIA_CATALOG["glass"].density_tb_per_cc
        tape = MEDIA_CATALOG["tape"].density_tb_per_cc
        assert dna > glass > tape
        assert dna / tape >= 1e6

    def test_migrations_over_horizon(self):
        tape = MEDIA_CATALOG["tape"]
        assert tape.migrations_over(100) == 6  # 15-year media, 100-year archive
        assert MEDIA_CATALOG["glass"].migrations_over(100) == 0

    def test_century_tco_favors_glass_over_hdd(self):
        ranked = dict(rank_media_by_tco(100))
        assert ranked["glass"] < ranked["hdd"]
        assert ranked["glass"] < ranked["tape"]

    def test_dna_cost_dominated_by_synthesis(self):
        ranked = dict(rank_media_by_tco(100))
        assert ranked["dna"] == max(ranked.values())

    def test_volume(self):
        glass = MEDIA_CATALOG["glass"]
        assert glass.volume_liters_for(26_000) == pytest.approx(1.0)

    def test_read_time_scales_with_drives(self):
        tape = MEDIA_CATALOG["tape"]
        assert tape.read_time_days(100, drives=2) == pytest.approx(
            tape.read_time_days(100) / 2
        )

    def test_invalid_spec_rejected(self):
        with pytest.raises(ParameterError):
            MediaSpec(
                name="bad",
                density_tb_per_cc=0,
                cost_usd_per_tb=1,
                lifetime_years=1,
                read_mb_per_s=1,
                write_mb_per_s=1,
                upkeep_usd_per_tb_year=0,
                offline=True,
            )


class TestArchiveModel:
    def test_paper_read_times(self):
        expected = {
            "Oak Ridge HPSS": 6.75,
            "ECMWF MARS": 10.35,
            "CERN EOS": 8.3,
            "Pergamum (hypothetical)": 0.76,
        }
        for archive in PAPER_ARCHIVES:
            assert archive.read_time_months == pytest.approx(
                expected[archive.name], rel=0.05
            )

    def test_factors_multiply(self):
        estimate = reencryption_estimate(PAPER_ARCHIVES[0], 2.0, 2.0)
        assert estimate.total_months == pytest.approx(
            PAPER_ARCHIVES[0].read_time_months * 4
        )

    def test_factors_validated(self):
        with pytest.raises(ParameterError):
            reencryption_estimate(PAPER_ARCHIVES[0], write_factor=0.5)

    def test_scaled_archive_keeps_duration(self):
        base = PAPER_ARCHIVES[0]
        scaled = scaled_archive(base, base.capacity_tb * 10)
        assert scaled.read_time_months == pytest.approx(base.read_time_months)

    def test_exabyte_extrapolation_many_years(self):
        est = exabyte_extrapolation(PAPER_ARCHIVES[0], 10 * EB, throughput_scaling=0.5)
        assert est.total_years > 10

    def test_full_scaling_keeps_months(self):
        est = exabyte_extrapolation(PAPER_ARCHIVES[0], 10 * EB, throughput_scaling=1.0)
        assert est.total_months == pytest.approx(
            PAPER_ARCHIVES[0].read_time_months * 4
        )

    def test_invalid_profile_rejected(self):
        with pytest.raises(ParameterError):
            ArchiveProfile(name="x", capacity_tb=0, read_throughput_tb_per_day=1)


class TestSimulator:
    def test_matches_analytic_model(self):
        for archive in PAPER_ARCHIVES:
            sim = simulate_reencryption(archive, record_every=50)
            analytic = reencryption_estimate(archive).total_months
            assert sim.months == pytest.approx(analytic, rel=0.02)

    def test_no_reserve_halves_only_for_write(self):
        archive = PAPER_ARCHIVES[3]
        sim = simulate_reencryption(archive, reserve_fraction=0.0)
        assert sim.months == pytest.approx(archive.read_time_months * 2, rel=0.02)

    def test_vulnerable_fraction_decreases(self):
        sim = simulate_reencryption(PAPER_ARCHIVES[3], record_every=5)
        fractions = [day.vulnerable_fraction for day in sim.timeline]
        assert fractions[0] > fractions[-1]
        assert fractions[-1] == pytest.approx(0.0, abs=1e-9)

    def test_halfway_point_half_vulnerable(self):
        sim = simulate_reencryption(PAPER_ARCHIVES[3], record_every=1)
        halfway = sim.timeline[len(sim.timeline) // 2]
        assert halfway.vulnerable_fraction == pytest.approx(0.5, abs=0.05)

    def test_ingest_without_new_cipher_extends_campaign(self):
        archive = PAPER_ARCHIVES[3]
        base = simulate_reencryption(archive, record_every=10)
        growing = simulate_reencryption(
            archive,
            ingest_tb_per_day=20.0,
            new_data_uses_new_cipher=False,
            record_every=10,
        )
        assert growing.days > base.days

    def test_ingest_outpacing_conversion_detected(self):
        archive = ArchiveProfile(name="tiny", capacity_tb=10, read_throughput_tb_per_day=4)
        with pytest.raises(ParameterError):
            simulate_reencryption(
                archive,
                ingest_tb_per_day=10.0,
                new_data_uses_new_cipher=False,
                max_days=10_000,
            )

    def test_invalid_reserve_rejected(self):
        with pytest.raises(ParameterError):
            simulate_reencryption(PAPER_ARCHIVES[3], reserve_fraction=1.0)

