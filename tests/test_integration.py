"""Cross-module integration scenarios: the paper's arguments, end to end."""


from repro.adversary.harvest import HarvestingAdversary
from repro.adversary.mobile import MobileAdversary, run_mobile_campaign
from repro.core import ArchivePolicy, ConfidentialityTarget, EpochScheduler, SecureArchive
from repro.core.policy import CENTURY_SAFE, PRACTICAL_COMPUTATIONAL
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.integrity import ChainAuditor
from repro.integrity.timestamp import MerkleChainSigner, RsaChainSigner, TimestampAuthority, TimestampChain
from repro.secretsharing.proactive import ProactiveShareGroup
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.storage.node import make_node_fleet
from repro.systems import ArchiveSafeLT, CloudProviderArchive, Lincos


class TestHndlEndToEnd:
    """Section 1's motivating attack, across the whole stack."""

    def test_cloud_falls_lincos_survives(self):
        timeline = BreakTimeline()
        timeline.schedule_break("aes-256-ctr", 15)
        timeline.schedule_break("toy-dh", 15)
        timeline.schedule_break("chacha20", 15)

        secret_record = b"patient record: highly sensitive" * 4
        cloud = CloudProviderArchive(
            make_node_fleet(2, providers=["aws"]), DeterministicRandom(0)
        )
        lincos = Lincos(make_node_fleet(5), DeterministicRandom(1))
        cloud.store("record", secret_record)
        lincos.store("record", secret_record)

        adversary = HarvestingAdversary(timeline=timeline)
        cloud_haul = cloud.steal_at_rest("record")
        lincos_haul = lincos.steal_at_rest("record", share_indices=[1, 2])
        adversary.harvest(
            "cloud", 0, lambda tl, e: cloud.attempt_recovery("record", cloud_haul, tl, e)
        )
        adversary.harvest(
            "lincos", 0, lambda tl, e: lincos.attempt_recovery("record", lincos_haul, tl, e)
        )

        assert adversary.first_success_epoch("cloud", horizon=30) == 15
        assert adversary.first_success_epoch("lincos", horizon=300) is None

    def test_wire_harvest_tls_vs_qkd(self):
        timeline = BreakTimeline()
        timeline.schedule_break("toy-dh", 10)
        timeline.schedule_break("chacha20", 10)

        cloud = CloudProviderArchive(
            make_node_fleet(2, providers=["aws"]), DeterministicRandom(2)
        )
        lincos = Lincos(make_node_fleet(5), DeterministicRandom(3))
        cloud.record_transcript()
        lincos.record_transcript()
        cloud.store("doc", b"over the wire")
        lincos.store("doc", b"over the wire")

        adversary = HarvestingAdversary(timeline=timeline)
        cloud_wire = cloud.transcript[0].transmission
        lincos_wire = lincos.transcript[0].transmission
        adversary.harvest(
            "tls-wire", 0, lambda tl, e: cloud.transit.break_open(cloud_wire, tl, e)
        )
        adversary.harvest(
            "qkd-wire", 0, lambda tl, e: lincos.transit.break_open(lincos_wire, tl, e)
        )
        assert adversary.first_success_epoch("tls-wire", horizon=20) == 10
        assert adversary.first_success_epoch("qkd-wire", horizon=1000) is None


class TestMobileVsProactiveFullStack:
    def test_renewal_cadence_sweep(self):
        """The proactive-sharing claim: cadence <= budget window defends."""
        scheme = ShamirSecretSharing(5, 3)
        secret = DeterministicRandom(b"century secret").bytes(64)
        outcomes = {}
        for cadence in (None, 1, 4):
            group = ProactiveShareGroup(
                scheme, scheme.split(secret, DeterministicRandom(0))
            )
            adversary = MobileAdversary(budget=1, rng=DeterministicRandom(1))
            outcome = run_mobile_campaign(
                group, adversary, epochs=12, renew_every=cadence,
                rng=DeterministicRandom(2),
            )
            outcomes[cadence] = outcome.compromised
        assert outcomes[None] is True
        assert outcomes[4] is True  # cadence slower than accumulation window
        assert outcomes[1] is False


class TestObsolescenceResponse:
    def test_archivesafelt_wrap_campaign_with_scheduler(self):
        """Scheduler detects the break; ArchiveSafeLT wraps in response."""
        timeline = BreakTimeline()
        timeline.schedule_break("aes-256-ctr", 3)
        system = ArchiveSafeLT(
            make_node_fleet(2, providers=["org"]), DeterministicRandom(4)
        )
        data = DeterministicRandom(b"wrapped").bytes(600)
        system.store("doc", data)

        scheduler = EpochScheduler(timeline=timeline)
        wrap_reports = []

        def respond(epoch, names):
            report = system.respond_to_break(timeline, epoch)
            if report:
                wrap_reports.append(report)

        scheduler.on_break(respond)
        scheduler.advance(5)
        assert len(wrap_reports) == 1
        assert system.retrieve("doc") == data
        assert len(system.receipt("doc").metadata["layers"]) == 3

    def test_chain_renewal_race(self):
        """Integrity chain renewed before the signer breaks stays valid; an
        identical chain renewed after does not."""
        rng = DeterministicRandom(5)
        rsa = RsaChainSigner(rng)
        merkle = MerkleChainSigner(rng, height=3)
        auditor = ChainAuditor({})
        auditor.register(rsa)
        auditor.register(merkle)
        timeline = BreakTimeline()
        timeline.schedule_break("toy-rsa", 10)

        def build(renew_epoch):
            chain = TimestampChain()
            TimestampAuthority(rsa).timestamp_document(chain, b"deed", epoch=0)
            TimestampAuthority(merkle).renew_chain(chain, epoch=renew_epoch)
            return chain

        assert auditor.audit(build(9), timeline, now_epoch=20).valid
        assert not auditor.audit(build(11), timeline, now_epoch=20).valid


class TestFacadeLongRun:
    def test_thirty_epochs_of_maintenance(self):
        archive = SecureArchive(
            CENTURY_SAFE, make_node_fleet(6), DeterministicRandom(6)
        )
        data = DeterministicRandom(b"longrun").bytes(800)
        archive.store("doc", data)
        total_renewal_bytes = 0
        for _ in range(30):
            report = archive.advance_epoch()
            total_renewal_bytes += report.renewal_bytes
        assert archive.retrieve("doc") == data
        assert total_renewal_bytes == 30 * 5 * 800  # n shares x object, each epoch
        assert len(archive.chain) == 31

    def test_mixed_policy_fleet_comparison(self):
        """The trade-off, measured on the facade itself: same data, same
        nodes, different policy, different (cost, security) point."""
        data = DeterministicRandom(b"compare").bytes(1000)
        results = {}
        for label, policy in (
            ("cheap", PRACTICAL_COMPUTATIONAL),
            ("safe", CENTURY_SAFE),
        ):
            archive = SecureArchive(policy, make_node_fleet(8), DeterministicRandom(7))
            archive.store("doc", data)
            results[label] = (
                archive.storage_overhead(),
                archive.at_rest_security.value,
            )
        assert results["cheap"][0] < results["safe"][0]
        assert results["cheap"][1] == "computational"
        assert results["safe"][1] == "information-theoretic"

    def test_paper_conclusion_no_cheap_its(self):
        """No facade policy gives ITS at rest below 2x overhead -- the
        trade-off the paper calls 'seemingly intractable'."""
        data = b"z" * 1000
        for target in ConfidentialityTarget:
            policy = ArchivePolicy(target=target, n=6, t=3, pack_width=2)
            archive = SecureArchive(policy, make_node_fleet(8), DeterministicRandom(8))
            archive.store("doc", data)
            if archive.at_rest_security.value == "information-theoretic":
                assert archive.storage_overhead() >= 2.0
