"""The observability layer: registry semantics, spans, and the
silent-failure regression tests.

Covers the ``repro.obs`` subsystem itself (counter/gauge/histogram
semantics, span nesting, ``@profiled``) and -- more importantly -- the
pipeline-level guarantees the instrumentation exists to provide:

- a lost share is *recorded* with its reason, never silently swallowed;
- a typo-level bug (bad placement map) raises instead of masquerading as
  "share unavailable";
- audit failures keep their exception message and are counted by class;
- a store/retrieve/advance_epoch round trip leaves a non-trivial,
  deterministic trace in ``SecureArchive.metrics_snapshot()``.
"""

import logging

import pytest

from repro.core.archive import SecureArchive
from repro.core.policy import CENTURY_SAFE
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.sha256 import sha256_hex
from repro.errors import ParameterError, StorageError
from repro.integrity.audit import StorageAuditor
from repro.obs.metrics import _label_key
from repro.obs import (
    Histogram,
    metrics,
    current_span,
    exponential_buckets,
    get_registry,
    profiled,
    span,
    use_registry,
)
from repro.storage.node import StorageNode, make_node_fleet
from repro.storage.placement import Placement, PlacementPolicy


@pytest.fixture
def registry():
    """A fresh registry installed as the active one for the test."""
    with use_registry() as reg:
        yield reg


def make_archive(seed=0, nodes=6):
    return SecureArchive(CENTURY_SAFE, make_node_fleet(nodes), DeterministicRandom(seed))


class TestRegistry:
    def test_counter_semantics(self, registry):
        counter = registry.counter("test_events_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.counter("test_events_total") is counter
        with pytest.raises(ParameterError):
            counter.inc(-1)

    def test_labels_are_distinct_and_order_independent(self, registry):
        registry.counter("test_total", reason="offline", node="a").inc()
        registry.counter("test_total", node="a", reason="offline").inc()
        registry.counter("test_total", reason="missing", node="a").inc()
        snap = registry.snapshot()["counters"]
        assert snap["test_total{node=a,reason=offline}"] == 2
        assert snap["test_total{node=a,reason=missing}"] == 1

    @pytest.mark.parametrize(
        "labels, expected",
        [
            ({}, ()),
            ({"tier": "hot"}, (("tier", "hot"),)),
            ({"reads": 3}, (("reads", "3"),)),
            ({"tier": "hot", "kind": "a"}, (("kind", "a"), ("tier", "hot"))),
            (
                {"c": None, "a": 1.5, "b": True},
                (("a", "1.5"), ("b", "True"), ("c", "None")),
            ),
        ],
        ids=["none", "one", "one-non-str", "two", "three-non-str"],
    )
    def test_label_key_is_sorted_by_name(self, labels, expected):
        assert _label_key(labels) == expected
        assert _label_key(dict(reversed(list(labels.items())))) == expected

    def test_module_helpers_record_into_the_registry_metric(self, registry):
        metrics.inc("test_total", 2, reason="offline", node="a")
        metrics.inc("test_total", node="a", reason="offline")
        metrics.observe("test_seconds", 0.5, lane="a")
        assert registry.counter("test_total", reason="offline", node="a").value == 3
        assert registry.histogram("test_seconds", lane="a").count == 1

    def test_gauge_semantics(self, registry):
        gauge = registry.gauge("test_nodes_online")
        gauge.set(5)
        gauge.dec()
        gauge.inc(2)
        assert registry.snapshot()["gauges"]["test_nodes_online"] == 6

    def test_exponential_buckets(self):
        bounds = exponential_buckets(1e-6, 4.0, 4)
        assert bounds == (1e-6, 4e-6, 1.6e-5, 6.4e-5)
        with pytest.raises(ParameterError):
            exponential_buckets(0, 4.0, 4)
        with pytest.raises(ParameterError):
            exponential_buckets(1e-6, 1.0, 4)

    def test_histogram_bucketing_and_stats(self):
        hist = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(555.5)
        assert hist.min == 0.5 and hist.max == 500.0
        # One observation per bucket, including the overflow bucket.
        assert hist.bucket_counts == [1, 1, 1, 1]

    def test_histogram_snapshot_drops_empty_buckets(self, registry):
        registry.histogram("test_seconds", bounds=(1.0, 10.0)).observe(5.0)
        summary = registry.snapshot()["histograms"]["test_seconds"]
        assert summary["count"] == 1
        assert summary["buckets"] == [[10.0, 1]]

    def test_snapshot_keys_sorted(self, registry):
        registry.counter("z_total").inc()
        registry.counter("a_total").inc()
        assert list(registry.snapshot()["counters"]) == ["a_total", "z_total"]

    def test_use_registry_isolates_and_restores(self):
        outer = get_registry()
        with use_registry() as inner:
            assert get_registry() is inner
            inner.counter("test_total").inc()
        assert get_registry() is outer
        assert "test_total" not in outer.snapshot()["counters"]

    def test_reset_clears_metrics(self, registry):
        registry.counter("test_total").inc()
        registry.host_histogram("test_seconds").observe(1.0)
        registry.reset()
        assert registry.snapshot()["counters"] == {}
        assert registry.host_snapshot() == {"histograms": {}}


class TestSpans:
    def test_span_nesting_builds_a_tree(self, registry):
        with span("outer") as outer:
            assert current_span() is outer
            with span("inner") as inner:
                assert inner.parent is outer
                assert inner.depth == 1
        assert current_span() is None
        assert outer.children == [inner]
        assert outer.wall_s >= inner.wall_s >= 0

    def test_span_records_histograms_and_counter(self, registry):
        with span("archive.op"):
            pass
        snap = registry.snapshot()
        assert snap["counters"]["spans_total{span=archive.op}"] == 1
        # Host time lives in the host part only, never in the snapshot.
        assert snap["histograms"] == {}
        wall = registry.host_snapshot()["histograms"]["span_wall_seconds{span=archive.op}"]
        assert wall["count"] == 1 and wall["sum"] >= 0

    def test_span_logs_structured_line(self, registry, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.obs.trace"):
            with span("logged.op", object_id="doc"):
                pass
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            "span=logged.op" in m and "wall_ms=" in m and "object_id=doc" in m
            for m in messages
        )

    def test_profiled_decorator(self, registry):
        @profiled(name="test.fn")
        def fn(x):
            return x + 1

        assert fn(1) == 2
        snap = registry.snapshot()
        assert snap["counters"]["profiled_calls_total{fn=test.fn}"] == 1
        assert snap["counters"]["spans_total{span=test.fn}"] == 1


class TestPipelineInstrumentation:
    def test_round_trip_snapshot_has_the_load_bearing_metrics(self, registry):
        archive = make_archive()
        data = DeterministicRandom(b"obs").bytes(2048)
        archive.store("doc", data)
        assert archive.retrieve("doc") == data
        archive.advance_epoch()
        snap = archive.metrics_snapshot()
        counters = snap["counters"]
        # Encode bytes: the facade's scheme split the object (store) and
        # re-split it during renewal.
        assert counters["secretsharing_encode_bytes_total{scheme=shamir}"] >= 2048
        # Fetch counts: retrieval plus the renewal's internal retrieve.
        assert counters["storage_fetch_attempts_total"] >= CENTURY_SAFE.n
        assert counters["storage_shares_fetched_total"] >= CENTURY_SAFE.n
        assert counters["archive_ops_total{op=store}"] == 1
        assert counters["archive_ops_total{op=retrieve}"] >= 1
        assert counters["archive_ops_total{op=advance_epoch}"] == 1
        assert counters["archive_renewed_objects_total"] == 1
        assert counters["archive_renewal_bytes_total"] > 0
        # Span timings for every facade operation, in the host part.
        histograms = registry.host_snapshot()["histograms"]
        for op in ("store", "retrieve", "advance_epoch"):
            wall = histograms[f"span_wall_seconds{{span=archive.{op}}}"]
            assert wall["count"] >= 1 and wall["sum"] > 0

    def test_counter_snapshot_deterministic_under_seeded_rng(self):
        def run():
            with use_registry() as reg:
                archive = make_archive(seed=7)
                data = DeterministicRandom(b"det").bytes(1024)
                archive.store("doc", data)
                archive.retrieve("doc")
                archive.advance_epoch()
                return reg.snapshot()

        assert run() == run()

    def test_lost_share_offline_recorded_with_reason(self, registry):
        archive = make_archive()
        data = b"keep me" * 40
        archive.store("doc", data)
        node_id = archive.receipt("doc").placement.node_by_share[1]
        archive.placement_policy.node(node_id).set_online(False)
        assert archive.retrieve("doc") == data  # threshold still met
        counters = registry.snapshot()["counters"]
        assert counters["storage_shares_lost_total{reason=offline}"] == 1
        assert counters["storage_node_transitions_total{to=offline}"] == 1

    def test_lost_share_missing_and_corrupted_reasons(self, registry):
        archive = make_archive()
        archive.store("doc", b"reasons" * 40)
        placement = archive.receipt("doc").placement
        missing_node = archive.placement_policy.node(placement.node_by_share[1])
        missing_node.delete("doc/share-1")
        corrupt_node = archive.placement_policy.node(placement.node_by_share[2])
        corrupt_node.corrupt_object("doc/share-2", b"rotted")
        archive.retrieve("doc")
        counters = registry.snapshot()["counters"]
        assert counters["storage_shares_lost_total{reason=missing}"] == 1
        assert counters["storage_shares_lost_total{reason=corrupted}"] == 1

    def test_share_loss_logs_warning(self, registry, caplog):
        archive = make_archive()
        archive.store("doc", b"warn me" * 40)
        placement = archive.receipt("doc").placement
        archive.placement_policy.node(placement.node_by_share[1]).delete("doc/share-1")
        with caplog.at_level(logging.WARNING, logger="repro.storage"):
            archive.retrieve("doc")
        assert any(
            "doc/share-1" in r.getMessage() and "missing" in r.getMessage()
            for r in caplog.records
        )

    def test_bad_placement_map_raises_instead_of_masquerading(self, registry):
        """Regression: a typo-level bug (unknown node id in the placement
        map) must propagate, not be swallowed as 'share unavailable'."""
        policy = PlacementPolicy(make_node_fleet(3))
        bogus = Placement(object_id="doc", node_by_share={0: "no-such-node"})
        with pytest.raises(StorageError, match="no-such-node"):
            policy.fetch_degraded(bogus)

    def test_fetch_bytes_accounted(self, registry):
        archive = make_archive()
        archive.store("doc", b"x" * 300)
        archive.retrieve("doc")
        counters = registry.snapshot()["counters"]
        assert counters["storage_fetch_bytes_total"] >= 300


class TestAuditInstrumentation:
    def _committed_node(self):
        node = StorageNode("n0", "provider-a")
        for i in range(8):
            node.put(f"obj-{i}", bytes([i]) * 64)
        auditor = StorageAuditor()
        return node, auditor, auditor.commit_inventory(node)

    def test_audit_failure_preserves_exception_message(self, registry):
        node, auditor, commitment = self._committed_node()
        node.delete("obj-3")
        report = auditor.audit(
            node, commitment, DeterministicRandom(b"audit"), challenges=8
        )
        assert not report.clean
        # str(exc) must survive, not just the class name.
        assert any(
            "obj-3" in failure and "no object obj-3 on node n0" in failure
            for failure in report.failures
        )

    def test_audit_failures_counted_by_class(self, registry):
        node, auditor, commitment = self._committed_node()
        node.delete("obj-3")
        report = auditor.audit(
            node, commitment, DeterministicRandom(b"audit"), challenges=8
        )
        counters = registry.snapshot()["counters"]
        assert (
            counters["audit_failures_total{failure_class=ObjectNotFoundError}"]
            == len(report.failures)
        )
        assert counters["audit_challenges_total"] == report.challenges
        assert counters.get("audit_passes_total", 0) == report.passed

    def test_audit_rot_counted_as_digest_class(self, registry):
        node, auditor, commitment = self._committed_node()
        node.corrupt_object("obj-1", b"\xff" * 64)
        auditor.audit(node, commitment, DeterministicRandom(b"rot"), challenges=8)
        counters = registry.snapshot()["counters"]
        # Full-state rebuild: every challenge fails its proof against the
        # committed root once any object rotted.
        assert counters["audit_failures_total{failure_class=proof-mismatch}"] == 8


class TestSchemeAndCryptoCounters:
    def test_encode_decode_bytes_per_scheme(self, registry):
        archive = make_archive()
        archive.store("doc", b"s" * 512)
        archive.retrieve("doc")
        counters = registry.snapshot()["counters"]
        assert counters["secretsharing_splits_total{scheme=shamir}"] == 1
        assert counters["secretsharing_encode_bytes_total{scheme=shamir}"] == 512
        assert counters["secretsharing_shares_produced_total{scheme=shamir}"] == CENTURY_SAFE.n
        assert counters["secretsharing_reconstructs_total{scheme=shamir}"] == 1
        assert counters["secretsharing_decode_bytes_total{scheme=shamir}"] == 512

    def test_hash_and_node_io_counters(self, registry):
        node = StorageNode("n0", "provider-a")
        node.put("obj", b"y" * 128)
        digest = sha256_hex(node.get("obj"))
        assert len(digest) == 64
        counters = registry.snapshot()["counters"]
        assert counters["storage_puts_total"] == 1
        assert counters["storage_put_bytes_total"] == 128
        assert counters["storage_gets_total"] == 1
        assert counters["storage_get_bytes_total"] == 128
        assert counters["crypto_hash_calls_total{algorithm=sha256}"] >= 3
        assert counters["crypto_hash_bytes_total{algorithm=sha256}"] >= 3 * 128
