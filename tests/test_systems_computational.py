"""The computational-at-rest systems: Cloud, ArchiveSafeLT, AONT-RS."""

import pytest

from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.errors import DecodingError, ObjectNotFoundError, StillSecureError
from repro.security import SecurityNotion, StorageCostBand
from repro.storage.node import make_node_fleet
from repro.storage.placement import share_key
from repro.systems import AontRsArchive, ArchiveSafeLT, CloudProviderArchive


@pytest.fixture
def timeline():
    tl = BreakTimeline()
    tl.schedule_break("aes-256-ctr", 10)
    tl.schedule_break("chacha20", 30)
    tl.schedule_break("sha256", 50)
    return tl


@pytest.fixture
def data():
    return DeterministicRandom(b"corpus").bytes(4000)


class TestCloud:
    def make(self, replication=1):
        return CloudProviderArchive(
            make_node_fleet(3, providers=["aws"]), DeterministicRandom(0),
            replication=replication,
        )

    def test_roundtrip(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.retrieve("doc") == data

    def test_unknown_object(self):
        with pytest.raises(ObjectNotFoundError):
            self.make().retrieve("ghost")

    def test_classification(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.transit_security is SecurityNotion.COMPUTATIONAL
        assert system.at_rest_security is SecurityNotion.COMPUTATIONAL
        assert system.storage_cost_band() is StorageCostBand.LOW

    def test_replication_survives_node_loss(self, data):
        system = self.make(replication=3)
        system.store("doc", data)
        system.nodes[0].set_online(False)
        assert system.retrieve("doc") == data

    def test_at_rest_ciphertext_not_plaintext(self, data):
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest("doc")
        assert all(payload != data for payload in stolen.values())

    def test_hndl_gated_on_break(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest("doc")
        with pytest.raises(StillSecureError):
            system.attempt_recovery("doc", stolen, timeline, epoch=9)
        assert system.attempt_recovery("doc", stolen, timeline, epoch=10) == data

    def test_empty_steal_fails(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        with pytest.raises(DecodingError):
            system.attempt_recovery("doc", {}, timeline, epoch=99)

    def test_transcript_records_wire(self, data):
        system = self.make()
        system.record_transcript()
        system.store("doc", data)
        assert len(system.transcript) == 1
        assert system.transcript[0].transmission.wire != data


class TestArchiveSafeLT:
    def make(self):
        return ArchiveSafeLT(
            make_node_fleet(2, providers=["org"]), DeterministicRandom(1)
        )

    def test_roundtrip(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.retrieve("doc") == data

    def test_initial_layers(self, data):
        system = self.make()
        receipt = system.store("doc", data)
        assert receipt.metadata["layers"] == ["chacha20", "aes-256-ctr"]

    def test_cascade_protects_until_all_layers_break(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest("doc")
        with pytest.raises(StillSecureError):
            system.attempt_recovery("doc", stolen, timeline, epoch=15)  # chacha holds
        assert system.attempt_recovery("doc", stolen, timeline, epoch=30) == data

    def test_wrap_triggered_when_margin_violated(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        report = system.respond_to_break(timeline, epoch=15)
        assert report is not None and report.objects_wrapped == 1
        assert report.bytes_read == len(data) and report.bytes_written == len(data)
        assert system.retrieve("doc") == data

    def test_no_wrap_when_margin_ok(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        assert system.respond_to_break(timeline, epoch=5) is None

    def test_wrap_protects_future_theft_not_past(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        harvested_early = system.steal_at_rest("doc")
        system.respond_to_break(timeline, epoch=15)  # adds a fresh chacha layer
        stolen_late = system.steal_at_rest("doc")
        # At epoch 35 (aes@10, chacha@30 broken): both copies fall -- the
        # wrap used chacha again, which also broke.  Use a margin-2 respond
        # with aes instead to see the difference:
        assert system.attempt_recovery("doc", harvested_early, timeline, 35) == data
        assert system.attempt_recovery("doc", stolen_late, timeline, 35) == data

    def test_wrap_with_unbroken_cipher_protects_fresh_copies(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        harvested_early = system.steal_at_rest("doc")
        system.respond_to_break(timeline, epoch=31, new_layer_cipher="aes-256-ctr")
        stolen_late = system.steal_at_rest("doc")
        # Epoch 35: original layers both broken. Early copy falls; the
        # late copy carries the post-break AES layer... which also broke at
        # 10. Wrapping with broken ciphers cannot help -- the paper's point
        # that the menu of unbroken ciphers is what matters.
        assert system.attempt_recovery("doc", harvested_early, timeline, 35) == data
        assert system.attempt_recovery("doc", stolen_late, timeline, 35) == data

    def test_multiple_objects_wrapped(self, timeline):
        system = self.make()
        rng = DeterministicRandom(2)
        for i in range(3):
            system.store(f"doc-{i}", rng.bytes(100))
        report = system.respond_to_break(timeline, epoch=15)
        assert report.objects_wrapped == 3

    def test_repair_on_read_keeps_the_wrap(self, data, timeline):
        system = ArchiveSafeLT(
            make_node_fleet(2, providers=["org"]), DeterministicRandom(1), replication=2
        )
        system.store("doc", data)
        system.respond_to_break(timeline, epoch=15)  # AES broken: wrap in chacha20
        wrapped = ["chacha20", "aes-256-ctr", "chacha20"]
        history = system._key_history["doc"]
        keys = list(history)
        receipt = system.receipt("doc")
        rotted, kept = sorted(receipt.placement.node_by_share)
        nodes = {
            index: system.placement_policy.node(node_id)
            for index, node_id in receipt.placement.node_by_share.items()
        }
        nodes[rotted].corrupt_object(share_key("doc", rotted), b"rotten")
        retrieved, report = system.retrieve_with_report("doc")
        assert retrieved == data and report.shares_repaired == 1
        # The repair rebuilt the rotted replica from the wrapped one it
        # decoded: same three layers, same keys, so the object still has two
        # unbroken layers and needs no new wrap.
        assert nodes[rotted].peek(share_key("doc", rotted)) == nodes[kept].peek(
            share_key("doc", kept)
        )
        assert system.receipt("doc").metadata["layers"] == wrapped
        assert system._key_history["doc"] is history and history == keys
        assert system.unbroken_layer_count("doc", timeline, 15) == 2
        assert system.respond_to_break(timeline, epoch=15) is None
        assert system.retrieve("doc") == data

    def test_key_history_grows(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        assert len(system._key_history["doc"]) == 2
        system.respond_to_break(timeline, epoch=15)
        assert len(system._key_history["doc"]) == 3
        assert system.receipt("doc").metadata["layers"][-1] == "chacha20"


class TestAontRsSystem:
    def make(self):
        return AontRsArchive(make_node_fleet(6), DeterministicRandom(3), n=6, k=4)

    def test_roundtrip(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.retrieve("doc") == data

    def test_survives_n_minus_k_failures(self, data):
        system = self.make()
        system.store("doc", data)
        receipt = system.receipt("doc")
        nodes = [receipt.placement.node_by_share[i] for i in (0, 1)]
        for node_id in nodes:
            system.placement_policy.node(node_id).set_online(False)
        assert system.retrieve("doc") == data

    def test_too_many_failures(self, data):
        system = self.make()
        system.store("doc", data)
        for node in system.nodes[:3]:
            node.set_online(False)
        with pytest.raises(DecodingError):
            system.retrieve("doc")

    def test_threshold_theft_opens_without_break(self, data, timeline):
        """AONT-RS's own caveat: k shards = plaintext, no cryptanalysis."""
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest("doc", share_indices=[0, 1, 2, 3])
        assert system.attempt_recovery("doc", stolen, timeline, epoch=0) == data

    def test_subthreshold_needs_cipher_and_hash_broken(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest("doc", share_indices=[0])
        with pytest.raises(StillSecureError):
            system.attempt_recovery("doc", stolen, timeline, epoch=20)  # sha256 holds
        assert system.attempt_recovery("doc", stolen, timeline, epoch=50) == data

    def test_storage_band_low(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.storage_cost_band() is StorageCostBand.LOW
        assert system.storage_overhead() < 1.6
