"""Generic ArchivalSystem behaviors, error hierarchy, and the analysis CLI."""

import pytest

from repro.analysis.__main__ import main as analysis_main
from repro.crypto.drbg import DeterministicRandom
from repro.errors import (
    ChannelError,
    DecodingError,
    IntegrityError,
    KeyManagementError,
    NodeUnavailableError,
    ObjectNotFoundError,
    ParameterError,
    ReproError,
    StillSecureError,
    StorageError,
    VerificationError,
)
from repro.storage.node import make_node_fleet
from repro.systems import CloudProviderArchive, Lincos


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_class",
        [
            ParameterError,
            DecodingError,
            IntegrityError,
            VerificationError,
            KeyManagementError,
            StorageError,
            NodeUnavailableError,
            ObjectNotFoundError,
            ChannelError,
            StillSecureError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_class):
        assert issubclass(error_class, ReproError)

    def test_parameter_error_is_value_error(self):
        assert issubclass(ParameterError, ValueError)

    def test_object_not_found_is_key_error(self):
        assert issubclass(ObjectNotFoundError, KeyError)

    def test_verification_is_integrity(self):
        assert issubclass(VerificationError, IntegrityError)

    def test_node_unavailable_is_storage(self):
        assert issubclass(NodeUnavailableError, StorageError)


class TestArchivalSystemBase:
    def make(self):
        return CloudProviderArchive(
            make_node_fleet(3, providers=["aws"]), DeterministicRandom(0),
            replication=3,
        )

    def test_receipt_for_unknown_object(self):
        with pytest.raises(ObjectNotFoundError):
            self.make().receipt("ghost")

    def test_overhead_requires_data(self):
        with pytest.raises(ParameterError):
            self.make().storage_overhead()

    def test_steal_filters_by_index(self):
        system = self.make()
        system.store("doc", b"replicated thrice")
        partial = system.steal_at_rest("doc", share_indices=[0, 2])
        assert set(partial) == {0, 2}
        full = system.steal_at_rest("doc")
        assert set(full) == {0, 1, 2}

    def test_steal_records_compromise_epochs(self):
        system = self.make()
        system.store("doc", b"x")
        system.epoch = 7
        system.steal_at_rest("doc", share_indices=[0])
        receipt = system.receipt("doc")
        node = system.placement_policy.node(receipt.placement.node_by_share[0])
        assert 7 in node.compromise_epochs

    def test_transcript_accumulates_per_share(self):
        system = self.make()
        system.record_transcript()
        system.store("a", b"one")
        system.store("b", b"two")
        assert len(system.transcript) == 6  # 3 replicas x 2 objects
        assert {entry.object_id for entry in system.transcript} == {"a", "b"}

    def test_empty_fleet_rejected(self):
        with pytest.raises(ParameterError):
            CloudProviderArchive([], DeterministicRandom(1))

    def test_lincos_uses_different_channel_class(self):
        lincos = Lincos(make_node_fleet(5), DeterministicRandom(2))
        cloud = self.make()
        assert type(lincos.transit).__name__ != type(cloud.transit).__name__


class TestAnalysisCli:
    def test_unknown_artifact_rejected(self, capsys):
        assert analysis_main(["nonsense"]) == 2
        assert "unknown artifact" in capsys.readouterr().out

    def test_single_artifact_runs(self, capsys):
        assert analysis_main(["reencryption"]) == 0
        out = capsys.readouterr().out
        assert "Oak Ridge HPSS" in out and "HOLDS" in out

    def test_figure1_runs(self, capsys):
        assert analysis_main(["figure1"]) == 0
        assert "Secret Sharing" in capsys.readouterr().out
