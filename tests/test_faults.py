"""Fault injection, retry/backoff, degraded reads, and repair-on-read."""

import copy

import pytest

from repro.analysis.faults_scenario import run_chaos_scenario
from repro.core.archive import SecureArchive
from repro.core.policy import CENTURY_SAFE
from repro.crypto.drbg import DeterministicRandom
from repro.errors import (
    DeadlineExceededError,
    IntegrityError,
    NodeUnavailableError,
    ObjectNotFoundError,
    ParameterError,
    StorageError,
)
from repro.obs import use_registry
from repro.storage.archive_model import PAPER_ARCHIVES, op_deadline_s
from repro.storage.failures import FailureSchedule
from repro.storage.faults import (
    FaultPlan,
    FaultRule,
    RetryPolicy,
    default_retry_policy,
    flaky_first_reads,
    injected_latency,
    outage_rules_from_windows,
    silent_bitrot,
    transient_outage,
)
from repro.storage.node import StorageNode, make_node_fleet
from repro.storage.placement import Placement, PlacementPolicy, share_key
from repro.systems import ArchiveSafeLT, CloudProviderArchive, ElsaStyleArchive, VsrArchive
from repro.systems.aontrs_system import AontRsArchive


@pytest.fixture
def registry():
    with use_registry() as reg:
        yield reg


def make_plan_fleet(count, rules=(), seed=0):
    plan = FaultPlan(rules=rules, seed=seed)
    return plan, plan.wrap_fleet(make_node_fleet(count))


class TestNodeTypedErrors:
    """Offline vs missing must be distinguishable, with both ids named."""

    def test_offline_get_names_node_and_object(self):
        node = StorageNode("n-7", "p")
        node.put("doc", b"x")
        node.set_online(False)
        with pytest.raises(NodeUnavailableError) as exc_info:
            node.get("doc")
        message = str(exc_info.value)
        assert "n-7" in message and "doc" in message

    def test_missing_object_names_node_and_object(self):
        node = StorageNode("n-7", "p")
        with pytest.raises(ObjectNotFoundError) as exc_info:
            node.get("ghost")
        message = str(exc_info.value)
        assert "n-7" in message and "ghost" in message

    def test_the_two_failures_are_distinct_types(self):
        node = StorageNode("n-7", "p")
        node.set_online(False)
        with pytest.raises(NodeUnavailableError):
            node.get("ghost")  # offline wins while the node is down
        node.set_online(True)
        with pytest.raises(ObjectNotFoundError):
            node.get("ghost")
        assert not issubclass(ObjectNotFoundError, NodeUnavailableError)
        assert not issubclass(NodeUnavailableError, ObjectNotFoundError)

    def test_offline_put_and_delete_name_the_object(self):
        node = StorageNode("n-3", "p")
        node.set_online(False)
        with pytest.raises(NodeUnavailableError, match="put doc"):
            node.put("doc", b"x")
        with pytest.raises(NodeUnavailableError, match="delete doc"):
            node.delete("doc")


class TestFaultRules:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            FaultRule(kind="meteor")

    def test_latency_rule_needs_positive_latency(self):
        with pytest.raises(ParameterError):
            FaultRule(kind="latency", latency_s=0.0)

    def test_window_validated(self):
        with pytest.raises(ParameterError):
            FaultRule(kind="outage", first_op=3, last_op=1)

    def test_probability_validated(self):
        with pytest.raises(ParameterError):
            FaultRule(kind="outage", probability=0.0)

    def test_matching_scopes(self):
        rule = FaultRule(kind="outage", node_id="n-1", op="get", object_substr="share-2")
        assert rule.matches("n-1", "get", "doc/share-2")
        assert not rule.matches("n-2", "get", "doc/share-2")
        assert not rule.matches("n-1", "put", "doc/share-2")
        assert not rule.matches("n-1", "get", "doc/share-3")
        wildcard = FaultRule(kind="outage", node_id=None, op="any")
        assert wildcard.matches("anything", "put", "whatever")


class TestFaultPlan:
    def test_outage_window_is_transient(self, registry):
        plan, fleet = make_plan_fleet(1, [transient_outage("node-0", attempts=2)])
        node = fleet[0]
        node.put("doc", b"payload")  # puts unaffected by get-outage
        for _ in range(2):
            with pytest.raises(NodeUnavailableError, match="injected outage"):
                node.get("doc")
        assert node.get("doc") == b"payload"  # window has passed
        counters = registry.snapshot()["counters"]
        assert counters["faults_injected_total{kind=outage}"] == 2

    def test_flaky_first_reads_per_object(self, registry):
        plan, fleet = make_plan_fleet(1, [flaky_first_reads("node-0", fail_reads=1)])
        node = fleet[0]
        node.put("a", b"1")
        node.put("b", b"2")
        with pytest.raises(NodeUnavailableError, match="flaky"):
            node.get("a")
        assert node.get("a") == b"1"
        with pytest.raises(NodeUnavailableError, match="flaky"):
            node.get("b")  # each object gets its own flaky first read
        assert node.get("b") == b"2"

    def test_latency_accumulates_and_respects_deadline(self, registry):
        plan = FaultPlan([injected_latency("node-0", latency_s=0.02)], deadline_s=1.0)
        node = plan.wrap(make_node_fleet(1)[0])
        node.put("doc", b"x")
        assert node.get("doc") == b"x"
        assert plan.drain_wait_s() == pytest.approx(0.02)
        assert plan.drain_wait_s() == 0.0  # drained
        slow = FaultPlan([injected_latency("node-0", latency_s=5.0)], deadline_s=1.0)
        node = slow.wrap(make_node_fleet(1)[0])
        node.put("doc", b"x")
        with pytest.raises(DeadlineExceededError, match="exceeds deadline"):
            node.get("doc")

    def test_bitrot_is_silent_until_read(self, registry):
        plan, fleet = make_plan_fleet(1, seed=3)
        node = fleet[0]
        node.put("doc", b"pristine bytes")
        plan.add_rule(silent_bitrot("node-0", object_substr="doc"))
        with pytest.raises(IntegrityError):
            node.get("doc")
        # Rot is injected once; the object stays corrupt, not re-rotted.
        with pytest.raises(IntegrityError):
            node.get("doc")
        assert registry.snapshot()["counters"]["faults_injected_total{kind=bitrot}"] == 1

    def test_injected_log_records_every_fault(self):
        plan, fleet = make_plan_fleet(1, [transient_outage("node-0", attempts=1)])
        node = fleet[0]
        node.put("doc", b"x")
        with pytest.raises(NodeUnavailableError):
            node.get("doc")
        assert [f.kind for f in plan.injected] == ["outage"]
        assert plan.injected[0].node_id == "node-0"
        assert plan.injected[0].object_id == "doc"

    def test_wrapper_delegates_everything_else(self):
        plan, fleet = make_plan_fleet(1)
        node = fleet[0]
        node.put("doc", b"x")
        assert node.contains("doc")
        assert node.node_id == "node-0"
        assert node.stats.puts == 1
        assert node.raw_bytes("doc") == b"x"
        assert node.adversary_read_all(epoch=1) == {"doc": b"x"}
        node.set_online(False)
        assert node.online is False

    def test_probability_gate_is_seeded(self):
        def run():
            plan = FaultPlan(
                [FaultRule(kind="outage", node_id="node-0", probability=0.5)],
                seed=11,
            )
            node = plan.wrap(make_node_fleet(1)[0])
            node.put("doc", b"x")
            outcomes = []
            for _ in range(12):
                try:
                    node.get("doc")
                    outcomes.append("ok")
                except NodeUnavailableError:
                    outcomes.append("down")
            return outcomes

        first, second = run(), run()
        assert first == second
        assert {"ok", "down"} == set(first)  # the gate actually flips


class TestRetryPolicy:
    def test_backoff_is_exponential_with_seeded_jitter(self):
        policy = RetryPolicy(base_delay_s=0.01, multiplier=2.0, jitter=0.1)
        delays_a = [policy.backoff_delay(i, DeterministicRandom(5)) for i in (1, 2, 3)]
        delays_b = [policy.backoff_delay(i, DeterministicRandom(5)) for i in (1, 2, 3)]
        assert delays_a == delays_b  # jitter comes from the injected rng
        assert 0.01 <= delays_a[0] <= 0.011
        assert 0.02 <= delays_a[1] <= 0.022
        assert 0.04 <= delays_a[2] <= 0.044

    def test_retries_transient_until_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise NodeUnavailableError("transient")
            return "done"

        retried = []
        result = RetryPolicy(max_attempts=3).call(
            flaky,
            DeterministicRandom(0),
            on_retry=lambda a, d, exc: retried.append((a, d, exc)),
        )
        assert result == "done"
        assert calls["n"] == 3
        assert [a for a, _, _ in retried] == [1, 2]
        # The callback sees the transient error itself, so degraded-read
        # reports can name what they retried past.
        assert all(isinstance(exc, NodeUnavailableError) for _, _, exc in retried)

    def test_exhaustion_reraises_last_error(self):
        def always_down():
            raise NodeUnavailableError("still down")

        with pytest.raises(NodeUnavailableError, match="still down"):
            RetryPolicy(max_attempts=2).call(always_down, DeterministicRandom(0))

    def test_unexpected_exceptions_propagate_without_retry(self):
        """Regression (PR 1 narrowing): the retry wrapper must not absorb
        or retry anything outside the transient set."""
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise RuntimeError("programming error")

        with pytest.raises(RuntimeError):
            RetryPolicy(max_attempts=5).call(broken, DeterministicRandom(0))
        assert calls["n"] == 1  # not retried

        for exc_type in (ObjectNotFoundError, IntegrityError, KeyError):
            calls["n"] = 0

            def raiser():
                calls["n"] += 1
                raise exc_type("nope")

            with pytest.raises(exc_type):
                RetryPolicy(max_attempts=5).call(raiser, DeterministicRandom(0))
            assert calls["n"] == 1

    def test_deadline_caps_total_backoff(self):
        calls = {"n": 0}

        def always_down():
            calls["n"] += 1
            raise NodeUnavailableError("down")

        policy = RetryPolicy(
            max_attempts=10, base_delay_s=0.5, jitter=0.0, deadline_s=0.6
        )
        with pytest.raises(NodeUnavailableError):
            policy.call(always_down, DeterministicRandom(0))
        # Attempt 1 fails, 0.5s backoff fits the 0.6s budget, attempt 2
        # fails, the next 1.0s delay would bust the deadline: stop at 2.
        assert calls["n"] == 2

    def test_parameters_validated(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ParameterError):
            RetryPolicy(deadline_s=0.0)
        with pytest.raises(ParameterError):
            RetryPolicy().backoff_delay(0, DeterministicRandom(0))

    def test_default_policy_prices_deadline_from_archive_model(self):
        policy = default_retry_policy()
        assert policy.deadline_s == pytest.approx(op_deadline_s(1 << 20))


class TestOpDeadlinePricing:
    def test_floor_applies_to_tiny_objects(self):
        assert op_deadline_s(1) == 0.05

    def test_scales_with_payload_and_throughput(self):
        pergamum, tape = PAPER_ARCHIVES[3], PAPER_ARCHIVES[1]
        big = 1 << 34  # 16 GiB: well past the floor on either profile
        assert op_deadline_s(big, tape) > op_deadline_s(big, pergamum)
        assert op_deadline_s(2 * big) == pytest.approx(2 * op_deadline_s(big))

    def test_parameters_validated(self):
        with pytest.raises(ParameterError):
            op_deadline_s(-1)
        with pytest.raises(ParameterError):
            op_deadline_s(1, slack=0.5)


class TestDegradedFetch:
    def _policy_with_shares(self, count=5, rules=(), seed=0, **kwargs):
        plan = FaultPlan(rules=rules, seed=seed)
        fleet = plan.wrap_fleet(make_node_fleet(count))
        policy = PlacementPolicy(fleet, **kwargs)
        placement = policy.place("obj", list(range(1, count + 1)))
        policy.store(placement, {i: f"share{i}".encode() for i in range(1, count + 1)})
        return plan, policy, placement

    def test_stops_at_quorum(self, registry):
        _, policy, placement = self._policy_with_shares(5)
        shares, report = policy.fetch_degraded(placement, need=3)
        assert sorted(shares) == [1, 2, 3]
        assert report.stopped_early and report.shares_tried == 3
        assert report.shares_ok == 3 and not report.degraded

    def test_transient_outage_retried_and_counted(self, registry):
        node_id = "node-0"
        plan, policy, placement = self._policy_with_shares(
            3, [transient_outage(node_id, attempts=1)]
        )
        shares, report = policy.fetch_degraded(placement)
        assert len(shares) == 3  # retry rode out the one-attempt outage
        assert report.retries >= 1 and report.simulated_wait_s > 0
        counters = registry.snapshot()["counters"]
        assert counters["fetch_retries_total"] >= 1
        assert registry.snapshot()["histograms"][
            "storage_backoff_delay_seconds"
        ]["count"] >= 1

    def test_exhausted_outage_becomes_offline_loss(self, registry):
        plan, policy, placement = self._policy_with_shares(
            3, [transient_outage("node-0", attempts=10)]
        )
        shares, report = policy.fetch_degraded(placement)
        assert len(shares) == 2
        lost = [i for i, r in report.shares_failed.items() if r == "offline"]
        assert len(lost) == 1
        counters = registry.snapshot()["counters"]
        assert counters["storage_shares_lost_total{reason=offline}"] == 1

    def test_injected_timeout_recorded_with_reason(self, registry):
        plan = FaultPlan([injected_latency("node-0", latency_s=60.0)], deadline_s=0.1)
        fleet = plan.wrap_fleet(make_node_fleet(3))
        policy = PlacementPolicy(fleet)
        placement = policy.place("obj", [1, 2, 3])
        policy.store(placement, {1: b"a", 2: b"b", 3: b"c"})
        shares, report = policy.fetch_degraded(placement)
        assert len(shares) == 2
        assert "timeout" in report.shares_failed.values()
        counters = registry.snapshot()["counters"]
        assert counters["storage_shares_lost_total{reason=timeout}"] == 1
        assert report.simulated_wait_s > 0  # injected latency folded in

    def test_store_retries_transient_put_failures(self, registry):
        plan = FaultPlan(
            [transient_outage("node-0", attempts=1, op="put")], seed=1
        )
        fleet = plan.wrap_fleet(make_node_fleet(2))
        policy = PlacementPolicy(fleet)
        placement = policy.place("obj", [1, 2])
        policy.store(placement, {1: b"a", 2: b"b"})  # succeeds despite fault
        assert policy.fetch_degraded(placement)[0] == {1: b"a", 2: b"b"}
        counters = registry.snapshot()["counters"]
        assert counters["store_retries_total"] >= 1

    def test_bad_placement_map_still_raises_through_retry_wrapper(self, registry):
        """Regression pin from PR 1: a typo-level bug must propagate, not
        be retried or recorded as 'share unavailable'."""
        policy = PlacementPolicy(make_node_fleet(3))
        bogus = Placement(object_id="doc", node_by_share={0: "no-such-node"})
        with pytest.raises(StorageError, match="no-such-node"):
            policy.fetch_degraded(bogus)

    def test_unexpected_error_inside_node_propagates_unretried(self, registry):
        class ExplodingNode(StorageNode):
            gets = 0

            def get(self, object_id):
                ExplodingNode.gets += 1
                raise ZeroDivisionError("bug in node code")

        fleet = [ExplodingNode("n-0", "p")]
        policy = PlacementPolicy(fleet)
        placement = policy.place("obj", [1])
        fleet[0].put("obj/share-1", b"x")
        with pytest.raises(ZeroDivisionError):
            policy.fetch_degraded(placement)
        assert ExplodingNode.gets == 1  # no retries for unexpected types

    def test_report_dict_is_deterministic_and_sorted(self):
        _, policy, placement = self._policy_with_shares(3)
        _, report = policy.fetch_degraded(placement)
        d = report.as_dict()
        assert list(d) == [
            "object_id", "shares_total", "shares_tried", "shares_ok",
            "shares_failed", "shares_repaired", "retries", "retry_errors",
            "simulated_wait_s", "stopped_early",
        ]


class TestRepairOnRead:
    def _archive(self, seed=0):
        plan = FaultPlan(seed=seed)
        fleet = plan.wrap_fleet(make_node_fleet(5))
        archive = SecureArchive(CENTURY_SAFE, fleet, DeterministicRandom(seed))
        return plan, archive

    def test_facade_repairs_corrupted_share(self, registry):
        plan, archive = self._archive()
        data = DeterministicRandom(b"repair").bytes(512)
        archive.store("doc", data)
        placement = archive.receipt("doc").placement
        first_index = sorted(placement.node_by_share)[0]
        node = archive.placement_policy.node(placement.node_by_share[first_index])
        node.corrupt_object(f"doc/share-{first_index}", b"rotted payload")
        retrieved, report = archive.retrieve_with_report("doc")
        assert retrieved == data
        assert report.shares_repaired == 1
        assert report.shares_failed[first_index] == "corrupted"
        counters = registry.snapshot()["counters"]
        assert counters["repairs_on_read_total"] == 1
        # The placement was replaced; a second read is clean end to end.
        clean, clean_report = archive.retrieve_with_report("doc")
        assert clean == data and not clean_report.degraded

    def test_repair_preserves_overhead_accounting(self, registry):
        plan, archive = self._archive()
        data = DeterministicRandom(b"acct").bytes(256)
        archive.store("doc", data)
        overhead_before = archive.storage_overhead()
        placement = archive.receipt("doc").placement
        index = sorted(placement.node_by_share)[0]
        node = archive.placement_policy.node(placement.node_by_share[index])
        node.corrupt_object(f"doc/share-{index}", b"bad")
        assert archive.retrieve("doc") == data
        assert archive.storage_overhead() == pytest.approx(overhead_before)

    def test_system_level_repair_via_restore(self, registry):
        plan = FaultPlan(seed=9)
        fleet = plan.wrap_fleet(make_node_fleet(6))
        system = AontRsArchive(fleet, DeterministicRandom(9), n=6, k=4)
        data = DeterministicRandom(b"sys").bytes(1024)
        system.store("doc", data)
        placement = system.receipt("doc").placement
        index = sorted(placement.node_by_share)[0]
        node = system.placement_policy.node(placement.node_by_share[index])
        node.corrupt_object(f"doc/share-{index}", b"zap")
        retrieved, report = system.retrieve_with_report("doc")
        assert retrieved == data and report.shares_repaired == 1
        assert registry.snapshot()["counters"]["repairs_on_read_total"] == 1
        assert system.retrieve("doc") == data


class TestFailedRepairKeepsOldKeys:
    """A repair that cannot place its fresh encoding must leave the object's
    keys alone: the shares it did not reach were written under them."""

    @pytest.mark.parametrize(
        "build, offline",
        [
            (
                lambda rng: CloudProviderArchive(
                    make_node_fleet(3, providers=["aws"]), rng, replication=3
                ),
                1,
            ),
            (
                lambda rng: ArchiveSafeLT(
                    make_node_fleet(3, providers=["aws"]), rng, replication=3
                ),
                1,
            ),
            (lambda rng: ElsaStyleArchive(make_node_fleet(5), rng, n=5, k=2), 2),
        ],
        ids=["cloud", "archivesafelt", "elsa"],
    )
    def test_shares_the_repair_missed_still_decode(self, registry, build, offline):
        system = build(DeterministicRandom(5))
        data = DeterministicRandom(b"failed-repair").bytes(500)
        system.store("doc", data)
        node_by_share = system.receipt("doc").placement.node_by_share
        indices = sorted(node_by_share)
        system.placement_policy.node(node_by_share[indices[0]]).corrupt_object(
            share_key("doc", indices[0]), b"rotted"
        )
        down = [system.placement_policy.node(node_by_share[i]) for i in indices[-offline:]]
        for node in down:
            node.set_online(False)
        # The read decodes; its repair then cannot place a full fresh set
        # on the nodes that are left.
        with pytest.raises(StorageError):
            system.retrieve("doc")
        for node in down:
            node.set_online(True)
        # The healed nodes hold shares from before the failed repair.
        assert system.retrieve("doc") == data


class TestFailedPlacementKeepsShares:
    """Maintenance that cannot place a fresh share set must leave every
    placed share where it is, so the object reads once the nodes return."""

    class _Archive(SecureArchive):
        SIGNER_HEIGHT = 4

    @staticmethod
    def _node_keys(system):
        return {(node.node_id, key) for node in system.nodes for key in node.object_ids()}

    def _assert_kept(self, system, data, down, maintain):
        keys = self._node_keys(system)
        for node in down:
            node.set_online(False)
        with pytest.raises(StorageError):
            maintain()
        for node in down:
            node.set_online(True)
        assert self._node_keys(system) == keys
        assert system.retrieve("doc") == data

    def test_renewal(self, registry):
        archive = self._Archive(CENTURY_SAFE, make_node_fleet(6), DeterministicRandom(1))
        data = DeterministicRandom(b"renewal").bytes(300)
        archive.store("doc", data)
        holder = archive.receipt("doc").placement.node_by_share[1]
        spare = archive.placement_policy.node("node-5")
        # Four of five shares still read, but five providers are needed.
        down = [archive.placement_policy.node(holder), spare]
        self._assert_kept(archive, data, down, archive.advance_epoch)

    def test_repair_on_read(self, registry):
        system = AontRsArchive(make_node_fleet(7), DeterministicRandom(2), n=6, k=4)
        data = DeterministicRandom(b"repair").bytes(300)
        system.store("doc", data)
        node_by_share = system.receipt("doc").placement.node_by_share
        system.placement_policy.node(node_by_share[1]).corrupt_object(
            share_key("doc", 1), b"rotted"
        )
        down = [
            system.placement_policy.node(node_by_share[2]),
            system.placement_policy.node("node-6"),
        ]
        self._assert_kept(system, data, down, lambda: system.retrieve("doc"))

    def test_redistribution(self, registry):
        system = VsrArchive(make_node_fleet(8), DeterministicRandom(3))
        data = DeterministicRandom(b"redistribute").bytes(300)
        system.store("doc", data)
        spares = [system.placement_policy.node(f"node-{i}") for i in (5, 6, 7)]
        self._assert_kept(
            system, data, spares, lambda: system.redistribute_all(6, 4)
        )


class TestFailedStoreLeavesNoOrphans:
    class _Archive(SecureArchive):
        SIGNER_HEIGHT = 4

    @pytest.mark.parametrize("position", range(CENTURY_SAFE.n))
    def test_store_failing_at_any_share_removes_what_it_wrote(self, position):
        plan, fleet = make_plan_fleet(6)
        archive = self._Archive(CENTURY_SAFE, fleet, DeterministicRandom(position))
        archive.store("kept", b"already stored" * 16)
        bytes_before = archive.placement_policy.total_bytes_stored()
        # Placement is a deterministic rotation: a copy of the policy
        # predicts where the next store's shares go.
        predicted = copy.copy(archive.placement_policy).place(
            "doc", list(range(1, CENTURY_SAFE.n + 1))
        )
        index = sorted(predicted.node_by_share)[position]
        plan.add_rule(
            FaultRule(kind="outage", op="put", node_id=predicted.node_by_share[index])
        )
        with pytest.raises(NodeUnavailableError):
            archive.store("doc", b"never acknowledged" * 16)
        assert not [
            key for node in fleet for key in node.object_ids() if key.startswith("doc/share-")
        ]
        with pytest.raises(ObjectNotFoundError):
            archive.receipt("doc")
        assert archive.placement_policy.total_bytes_stored() == bytes_before
        assert archive.retrieve("kept") == b"already stored" * 16


class TestChaosScenarioAcceptance:
    """The ISSUE's flagship scenario, pinned exactly."""

    def test_scenario_survives_and_reports(self):
        result = run_chaos_scenario(seed=2024)
        assert result.plaintext_ok
        counters = result.snapshot["counters"]
        assert counters["repairs_on_read_total"] >= 1
        assert counters["fetch_retries_total"] >= 1
        assert counters["faults_injected_total{kind=outage}"] >= 2
        assert counters["faults_injected_total{kind=bitrot}"] >= 1
        assert result.healthy
        assert "SURVIVED" not in result.render()  # verdict line is the CLI's
        assert "retries: 2" in result.render()

    def test_same_seed_reproduces_identical_run(self):
        """Satellite: byte-identical reports and metric snapshots."""
        a = run_chaos_scenario(seed=7)
        b = run_chaos_scenario(seed=7)
        assert a.report.as_dict() == b.report.as_dict()
        assert a.snapshot == b.snapshot
        assert a.render() == b.render()

    def test_different_seeds_differ_in_jitter(self):
        a = run_chaos_scenario(seed=1)
        b = run_chaos_scenario(seed=2)
        # Same structure, different seeded jitter in the backoff waits.
        assert a.report.retries == b.report.retries
        assert a.report.simulated_wait_s != b.report.simulated_wait_s


class TestScheduleBridge:
    def test_downtime_windows_roundtrip_to_rules(self):
        fleet = make_node_fleet(6)
        schedule = FailureSchedule(
            fleet, failure_probability=0.4, repair_epochs=2,
            rng=DeterministicRandom(3),
        )
        for _ in range(6):
            schedule.step()
        windows = schedule.downtime_windows()
        assert windows, "seed must produce at least one outage"
        for node_id, start, end in windows:
            assert end > start >= 1
        rules = outage_rules_from_windows(windows, ops_per_epoch=2)
        assert len(rules) == len(windows)
        assert all(r.kind == "outage" for r in rules)
        first = next(r for r in rules if r.node_id == windows[0][0])
        assert first.first_op == windows[0][1] * 2
        assert first.last_op == windows[0][2] * 2 - 1

    def test_open_outage_window_closed_at_current_epoch(self):
        fleet = make_node_fleet(3)
        schedule = FailureSchedule(
            fleet, failure_probability=1.0, repair_epochs=100,
            rng=DeterministicRandom(0),
        )
        schedule.step()
        windows = schedule.downtime_windows()
        assert len(windows) == 3
        assert all(w == (f"node-{i}", 1, 2) for i, w in enumerate(windows))
