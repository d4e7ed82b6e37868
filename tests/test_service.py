"""The archive service front-end: admission control, quotas, backpressure,
and deterministic load replay.

The service is the layer that turns the library into something traffic can
be offered to, so these tests pin its *protective* behaviors -- a full
queue rejects with a typed error instead of melting down, one tenant's
burst cannot starve another, clients get a backpressure signal before the
shedding starts -- and the determinism contract: two identically seeded
load runs produce byte-identical latency histograms.

The ingest-path regressions fixed alongside the service live here too:
duplicate-id stores, the reserved segment namespace, and the epoch-indexed
workload replay.
"""

import json
from dataclasses import replace

import pytest

from repro.core.archive import SecureArchive
from repro.core.policy import CENTURY_SAFE
from repro.crypto.drbg import DeterministicRandom
from repro.errors import (
    IntegrityError,
    OverloadError,
    ParameterError,
    QuotaExhaustedError,
)
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import use_registry
from repro.service import (
    SERVICE_LATENCY_BUCKETS,
    ArchiveService,
    Backpressure,
    Request,
    ServiceConfig,
    SimulatedClock,
    TenantQuota,
    TokenBucket,
)
from repro.service.load import ServiceLoadSpec, run_service_load
from repro.storage.node import make_node_fleet
from repro.storage.workload import (
    WorkloadSpec,
    ZipfianPopularity,
    generate_workload,
)
@pytest.fixture
def registry():
    with use_registry() as reg:
        yield reg


def make_archive(seed=0, nodes=6):
    return SecureArchive(CENTURY_SAFE, make_node_fleet(nodes), DeterministicRandom(seed))


def make_service(archive=None, seed=0, **config):
    return ArchiveService(
        archive if archive is not None else make_archive(seed),
        ServiceConfig(**config) if config else ServiceConfig(),
        rng=DeterministicRandom(f"service-test:{seed}"),
    )


def store_request(i, arrival_s, tenant="tenant-00", size=1024):
    return Request(
        op="store",
        object_id=f"req-{i:04d}",
        tenant=tenant,
        payload=bytes([i % 256]) * size,
        arrival_s=arrival_s,
    )


class TestSimulatedClock:
    def test_advances_monotonically(self):
        clock = SimulatedClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance_to(1.0) == 1.5  # no-op going backwards
        assert clock.advance_to(2.0) == 2.0
        with pytest.raises(ParameterError):
            clock.advance(-0.1)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(TenantQuota(capacity=2, refill_per_s=1.0))
        assert bucket.try_take(0.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(0.0)  # burst capacity spent
        assert bucket.try_take(1.0)  # one token refilled after 1 s
        assert not bucket.try_take(1.0)

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(TenantQuota(capacity=3, refill_per_s=10.0))
        assert bucket.available(100.0) == 3.0

    def test_clock_cannot_run_backwards(self):
        bucket = TokenBucket(TenantQuota(), now_s=5.0)
        with pytest.raises(ParameterError):
            bucket.try_take(4.0)


class TestAdmissionControl:
    def test_queue_full_raises_typed_overload(self, registry):
        service = make_service(workers=1, queue_capacity=2, default_quota=None)
        # Worker busy after the first request; the next two fill the queue.
        for i in range(3):
            service.submit(store_request(i, arrival_s=i * 1e-5))
        assert service.queue_depth == 2
        with pytest.raises(OverloadError, match="queue full"):
            service.submit(store_request(3, arrival_s=4e-5))
        report = service.report()
        assert report["rejected"]["overload"] == 1
        assert report["completed"]["store"] == 3

    def test_offer_returns_rejection_as_outcome(self, registry):
        service = make_service(workers=1, queue_capacity=1, default_quota=None)
        outcomes = [
            service.offer(store_request(i, arrival_s=i * 1e-5)) for i in range(4)
        ]
        assert [o.outcome for o in outcomes] == [
            "ok", "ok", "rejected_overload", "rejected_overload",
        ]
        assert all(o.latency_s == 0.0 for o in outcomes[2:])

    def test_queue_drains_and_admits_again(self, registry):
        service = make_service(workers=1, queue_capacity=1, default_quota=None)
        for i in range(2):
            service.submit(store_request(i, arrival_s=i * 1e-5))
        with pytest.raises(OverloadError):
            service.submit(store_request(2, arrival_s=3e-5))
        # After the queued request's start time has passed, there is room.
        outcome = service.submit(store_request(3, arrival_s=10.0))
        assert outcome.accepted and outcome.queue_wait_s == 0.0


class TestTenantQuotas:
    def test_one_tenant_exhausts_without_starving_another(self, registry):
        service = make_service(
            workers=4,
            queue_capacity=64,
            default_quota=TenantQuota(capacity=3, refill_per_s=0.5),
        )
        outcomes = {"tenant-a": [], "tenant-b": []}
        for i in range(5):
            for tenant in ("tenant-a", "tenant-b"):
                req = Request(
                    op="store",
                    object_id=f"{tenant}-obj-{i}",
                    tenant=tenant,
                    payload=b"x" * 512,
                    arrival_s=i * 1e-4,
                )
                outcomes[tenant].append(service.offer(req).outcome)
        # Both tenants burn their 3-token burst, then get quota-rejected;
        # neither tenant's rejections affect the other's admitted count.
        for tenant in outcomes:
            assert outcomes[tenant] == [
                "ok", "ok", "ok", "rejected_quota", "rejected_quota",
            ]
        report = service.report()
        assert report["tenants"]["tenant-a"] == {"admitted": 3, "rejected_quota": 2}
        assert report["tenants"]["tenant-b"] == {"admitted": 3, "rejected_quota": 2}

    def test_quota_refills_on_simulated_time(self, registry):
        service = make_service(
            workers=4,
            queue_capacity=64,
            default_quota=TenantQuota(capacity=1, refill_per_s=1.0),
        )
        assert service.offer(store_request(0, arrival_s=0.0)).accepted
        with pytest.raises(QuotaExhaustedError, match="out of quota"):
            service.submit(store_request(1, arrival_s=0.5))
        assert service.offer(store_request(2, arrival_s=2.0)).accepted

    def test_per_tenant_override_beats_default(self, registry):
        service = make_service(
            workers=4,
            queue_capacity=64,
            default_quota=TenantQuota(capacity=1, refill_per_s=0.1),
            tenant_quotas={"tenant-vip": TenantQuota(capacity=10, refill_per_s=10.0)},
        )
        vip = [
            service.offer(
                Request(
                    op="store",
                    object_id=f"vip-{i}",
                    tenant="tenant-vip",
                    payload=b"v" * 256,
                    arrival_s=i * 1e-4,
                )
            ).outcome
            for i in range(4)
        ]
        assert vip == ["ok"] * 4


class TestBackpressure:
    def test_signal_escalates_under_seeded_burst(self, registry):
        service = make_service(workers=1, queue_capacity=8, default_quota=None)
        signals = []
        for i in range(12):
            outcome = service.offer(store_request(i, arrival_s=i * 1e-5))
            signals.append(outcome.backpressure)
        # The burst walks the ladder in order: free workers (OK), queue
        # filling past the 75% threshold (THROTTLE), queue full (SHED).
        assert signals[0] is Backpressure.OK
        assert Backpressure.THROTTLE in signals
        assert signals[-1] is Backpressure.SHED
        first_throttle = signals.index(Backpressure.THROTTLE)
        first_shed = signals.index(Backpressure.SHED)
        assert first_throttle < first_shed
        assert service.report()["max_queue_depth"] == 8

    def test_signal_recovers_after_quiet_period(self, registry):
        service = make_service(workers=1, queue_capacity=4, default_quota=None)
        for i in range(5):
            service.offer(store_request(i, arrival_s=i * 1e-5))
        assert service.backpressure() is not Backpressure.OK
        service.offer(store_request(9, arrival_s=100.0))
        assert service.backpressure() is Backpressure.OK


class TestServiceDataPath:
    def test_store_then_retrieve_round_trips(self, registry):
        service = make_service(workers=2, queue_capacity=8, default_quota=None)
        payload = DeterministicRandom(b"svc-roundtrip").bytes(4096)
        service.submit(
            Request(op="store", object_id="doc", payload=payload, arrival_s=0.0)
        )
        outcome = service.submit(
            Request(op="retrieve", object_id="doc", arrival_s=1.0)
        )
        assert outcome.data == payload
        assert outcome.latency_s > 0.0

    def test_latency_includes_queue_wait(self, registry):
        service = make_service(
            workers=1, queue_capacity=8, default_quota=None, jitter=0.0
        )
        first = service.submit(store_request(0, arrival_s=0.0))
        second = service.submit(store_request(1, arrival_s=0.0))
        assert first.queue_wait_s == 0.0
        assert second.queue_wait_s == pytest.approx(first.latency_s)
        assert second.latency_s > first.latency_s

    def test_invalid_requests_are_rejected_up_front(self):
        with pytest.raises(ParameterError, match="unknown service op"):
            Request(op="delete", object_id="doc")
        with pytest.raises(ParameterError, match="need a payload"):
            Request(op="store", object_id="doc")


class TestDeterministicReplay:
    def _run(self, seed=7, requests=120):
        with use_registry() as registry:
            archive = make_archive(seed)
            service = ArchiveService(
                archive,
                ServiceConfig(
                    workers=2,
                    queue_capacity=16,
                    default_quota=TenantQuota(capacity=64, refill_per_s=40.0),
                ),
                rng=DeterministicRandom(f"replay:{seed}"),
            )
            spec = ServiceLoadSpec(
                clients=4,
                requests=requests,
                mean_think_s=0.005,
                bootstrap_objects=8,
                tenants=2,
            )
            load = run_service_load(service, spec, seed=seed)
            snapshot = registry.snapshot()
        return load, service.report(), snapshot

    def test_latency_histograms_replay_byte_identically(self):
        load_a, report_a, snap_a = self._run()
        load_b, report_b, snap_b = self._run()
        histograms_a = {
            name: h
            for name, h in snap_a["histograms"].items()
            if name.startswith("service_")
        }
        histograms_b = {
            name: h
            for name, h in snap_b["histograms"].items()
            if name.startswith("service_")
        }
        assert histograms_a  # the service actually recorded latencies
        assert json.dumps(histograms_a, sort_keys=True) == json.dumps(
            histograms_b, sort_keys=True
        )
        assert json.dumps(load_a, sort_keys=True) == json.dumps(
            load_b, sort_keys=True
        )
        assert json.dumps(report_a, sort_keys=True) == json.dumps(
            report_b, sort_keys=True
        )

    def test_different_seeds_diverge(self):
        _, report_a, _ = self._run(seed=7)
        _, report_b, _ = self._run(seed=8)
        assert json.dumps(report_a, sort_keys=True) != json.dumps(
            report_b, sort_keys=True
        )

    def test_load_run_reads_verify_and_population_grows(self):
        load, report, _ = self._run()
        counts = load["counts"]
        assert counts["ok_retrieve"] > 0  # verified against regenerated payloads
        assert load["population"] == 8 + counts["ok_store"]
        served = counts["ok_store"] + counts["ok_retrieve"]
        assert report["requests_total"] == load["offered"]
        assert sum(report["completed"].values()) == served


class TestServiceLoadSpec:
    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"clients": 0}, "clients >= 1"),
            ({"requests": 0}, "clients >= 1"),
            ({"store_fraction": 1.5}, "store_fraction"),
            ({"mean_think_s": 0.0}, "mean_think_s"),
            ({"backoff_s": -1.0}, "backoff_s"),
            ({"bootstrap_objects": 0}, "bootstrap_objects"),
            ({"tenants": 0}, "tenants"),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs, match):
        with pytest.raises(ParameterError, match=match):
            ServiceLoadSpec(**kwargs)

    def test_all_store_load_needs_no_bootstrap(self):
        spec = ServiceLoadSpec(store_fraction=1.0, bootstrap_objects=1)
        assert spec.store_fraction == 1.0


class TestServiceLoadBehavior:
    def _tiny_service(self, seed=11):
        # One slow worker, a queue whose THROTTLE band (depths 6-7 with the
        # default throttle_at=0.75) is reachable before SHED, and a tight
        # quota: the load generator must exercise its rejection-backoff and
        # throttle-backoff paths.
        archive = make_archive(seed)
        return ArchiveService(
            archive,
            ServiceConfig(
                workers=1,
                queue_capacity=8,
                default_quota=TenantQuota(capacity=8, refill_per_s=4.0),
            ),
            rng=DeterministicRandom(f"tiny:{seed}"),
        )

    def test_rejections_and_throttle_signals_feed_backoff(self):
        with use_registry():
            service = self._tiny_service()
            spec = ServiceLoadSpec(
                clients=8,
                requests=300,
                mean_think_s=0.0005,
                backoff_s=0.01,
                bootstrap_objects=4,
                tenants=2,
            )
            load = run_service_load(service, spec, seed=11)
        counts = load["counts"]
        assert counts["rejected_overload"] + counts["rejected_quota"] > 0
        assert counts["throttle_signals"] > 0
        offered = sum(
            counts[k] for k in ("ok_store", "ok_retrieve", "rejected_overload", "rejected_quota")
        )
        assert offered == load["offered"]

    def test_corrupted_read_raises_integrity_error(self):
        class LyingService:
            def __init__(self, inner):
                self._inner = inner
                self.archive = inner.archive

            def offer(self, request):
                outcome = self._inner.offer(request)
                if outcome.accepted and request.op == "retrieve":
                    outcome = replace(outcome, data=b"\x00" * len(outcome.data))
                return outcome

        with use_registry():
            service = LyingService(
                ArchiveService(
                    make_archive(5),
                    ServiceConfig(workers=2, queue_capacity=32),
                    rng=DeterministicRandom("lying:5"),
                )
            )
            spec = ServiceLoadSpec(
                clients=2,
                requests=50,
                store_fraction=0.0,
                bootstrap_objects=4,
                tenants=1,
            )
            with pytest.raises(IntegrityError, match="corrupted service read"):
                run_service_load(service, spec, seed=5)


class TestHistogramQuantiles:
    def test_quantiles_interpolate_and_clamp(self):
        histogram = obs_metrics.Histogram(bounds=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 1.6, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.5  # clamped to observed min
        assert histogram.quantile(1.0) == 3.0  # clamped to observed max
        assert 1.0 <= histogram.quantile(0.5) <= 2.0
        assert histogram.quantiles([0.0, 1.0]) == {0.0: 0.5, 1.0: 3.0}

    def test_empty_histogram_is_zero(self):
        assert obs_metrics.Histogram().quantile(0.99) == 0.0

    def test_service_buckets_resolve_tail(self):
        histogram = obs_metrics.Histogram(bounds=SERVICE_LATENCY_BUCKETS)
        for i in range(1000):
            histogram.observe(0.001 * (1 + i / 1000))
        p999 = histogram.quantile(0.999)
        assert 0.0018 <= p999 <= 0.002


class TestZipfianPopularity:
    def test_newest_object_is_most_popular(self):
        population = ZipfianPopularity(s=1.2)
        for k in range(50):
            population.add(f"obj-{k:03d}")
        rng = DeterministicRandom(b"zipf-test")
        draws = [population.sample(rng) for _ in range(2000)]
        counts = {object_id: draws.count(object_id) for object_id in set(draws)}
        newest = counts.get("obj-049", 0)
        oldest = counts.get("obj-000", 0)
        assert newest > 10 * max(oldest, 1)  # heavy recency skew
        assert newest == max(counts.values())

    def test_sampling_is_deterministic(self):
        population = ZipfianPopularity()
        for k in range(10):
            population.add(str(k))
        a = [population.sample(DeterministicRandom(b"s")) for _ in range(5)]
        b = [population.sample(DeterministicRandom(b"s")) for _ in range(5)]
        assert a == b

    def test_empty_population_rejects_sampling(self):
        with pytest.raises(ParameterError, match="empty population"):
            ZipfianPopularity().sample(DeterministicRandom(0))


class TestDuplicateIdRegression:
    """Satellite bugfix: `_record` silently overwrote receipts, corrupting
    the byte ledger and leaking the first copy's shares forever."""

    def test_facade_rejects_duplicate_store(self, registry):
        archive = make_archive()
        archive.store("doc", b"first version")
        with pytest.raises(ParameterError, match="already stored"):
            archive.store("doc", b"second version")
        assert archive.retrieve("doc") == b"first version"

    def test_delete_then_restore_is_allowed(self, registry):
        archive = make_archive()
        archive.store("doc", b"first")
        archive.delete("doc")
        archive.store("doc", b"second")
        assert archive.retrieve("doc") == b"second"

    def test_base_systems_reject_duplicates_too(self, registry):
        # The id is refused before anything is encoded or written: no
        # orphan shares, no overwritten key material, no extra chain link
        # or ledger record.
        for system in _every_base_system(DeterministicRandom(3)):
            system.store("doc", b"first version")
            before = _node_keys(system), _audit_records(system)
            with pytest.raises(ParameterError, match="already stored"):
                system.store("doc", b"second version")
            assert (_node_keys(system), _audit_records(system)) == before, system.name
            assert system.retrieve("doc") == b"first version", system.name

    def test_store_batch_rejects_already_stored_ids(self, registry):
        archive = make_archive()
        archive.store("existing", b"already here")
        with pytest.raises(ParameterError, match="already stored"):
            archive.store_batch([("fresh", b"a"), ("existing", b"b")])
        # The rejected batch must not have stored anything.
        with pytest.raises(Exception):
            archive.receipt("fresh")


def _every_base_system(rng):
    from repro import systems

    yield systems.CloudProviderArchive(make_node_fleet(3, providers=["aws"]), rng, replication=2)
    yield systems.ArchiveSafeLT(make_node_fleet(2, providers=["org"]), rng, replication=2)
    yield systems.AontRsArchive(make_node_fleet(7), rng, n=7, k=4)
    yield systems.Potshards(make_node_fleet(8), rng)
    yield systems.Lincos(make_node_fleet(5), rng)
    yield systems.Pasis(make_node_fleet(8), rng)
    yield systems.VsrArchive(make_node_fleet(8), rng)
    yield systems.HasDpss(make_node_fleet(8), rng)
    yield systems.ElsaStyleArchive(make_node_fleet(6), rng)


def _node_keys(system):
    return {(node.node_id, key) for node in system.nodes for key in node.object_ids()}


def _audit_records(system):
    chain = getattr(system, "chain", None)
    ledger = getattr(system, "ledger", None)
    return (
        None if chain is None else len(chain),
        None if ledger is None else ledger.height,
    )


class TestSegmentNamespaceRegression:
    """Satellite bugfix: a plain store of `<id>/seg-<k>` could collide with
    (or pre-claim) store_large's segment ids."""

    def test_plain_store_cannot_claim_segment_ids(self, registry):
        archive = make_archive()
        with pytest.raises(ParameterError, match="reserved segment"):
            archive.store("big/seg-0", b"squatter")
        with pytest.raises(ParameterError, match="reserved segment"):
            archive.store_batch([("ok-id", b"a"), ("big/seg-3", b"b")])

    def test_store_large_owns_its_namespace(self, registry):
        archive = make_archive()
        data = DeterministicRandom(b"large").bytes(3000)
        receipts = archive.store_large("big", data, segment_bytes=1024)
        assert [r.object_id for r in receipts] == [
            "big/seg-0", "big/seg-1", "big/seg-2",
        ]
        assert archive.retrieve_large("big") == data

    def test_store_large_root_id_cannot_be_segment_shaped(self, registry):
        archive = make_archive()
        with pytest.raises(ParameterError, match="reserved segment"):
            archive.store_large("outer/seg-1", b"x" * 100)


class TestWorkloadEpochIndex:
    """Satellite perf fix: per-epoch lookups used to rescan the full object
    list, making replay O(N^2) in the number of epochs."""

    def test_index_matches_linear_scan(self):
        workload = generate_workload(
            WorkloadSpec(objects_per_epoch=7, epochs=6, read_fraction=0.2), seed=11
        )
        for epoch in range(workload.spec.epochs):
            assert workload.objects_in_epoch(epoch) == [
                o for o in workload.objects if o.ingest_epoch == epoch
            ]
            assert workload.reads_in_epoch(epoch) == [
                r for r in workload.reads if r.epoch == epoch
            ]

    def test_index_refreshes_when_workload_grows(self):
        from repro.storage.workload import WorkloadObject

        workload = generate_workload(
            WorkloadSpec(objects_per_epoch=2, epochs=2), seed=0
        )
        assert len(workload.objects_in_epoch(1)) == 2
        workload.objects.append(
            WorkloadObject(object_id="late", size=10, ingest_epoch=1)
        )
        assert len(workload.objects_in_epoch(1)) == 3

    def test_generation_unchanged_by_indexing(self):
        # The O(N) rewrite must not perturb the rng draw order: same seed,
        # same spec, same stream as any prior revision with these params.
        workload = generate_workload(
            WorkloadSpec(objects_per_epoch=3, epochs=3, read_fraction=0.3), seed=5
        )
        again = generate_workload(
            WorkloadSpec(objects_per_epoch=3, epochs=3, read_fraction=0.3), seed=5
        )
        assert workload.objects == again.objects
        assert workload.reads == again.reads
