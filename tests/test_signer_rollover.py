"""Signer rollover: finite-use hash-based signers on an unbounded chain."""

import pytest

from repro import DeterministicRandom, SecureArchive, make_node_fleet
from repro.core.policy import CENTURY_SAFE
from repro.crypto.registry import BreakTimeline
from repro.integrity.auditor import ChainAuditor


@pytest.fixture
def archive():
    a = SecureArchive(CENTURY_SAFE, make_node_fleet(6), DeterministicRandom(0))
    a.store("doc", b"outlives its signers" * 10)
    return a


def exhaust_signer(archive):
    """Burn the current signer down to its last key."""
    signer = archive.authority.signer
    while signer.remaining > 2:
        archive.authority.renew_chain(archive.chain, archive.epoch)


class TestSignerRollover:
    def test_rollover_happens_before_exhaustion(self, archive):
        exhaust_signer(archive)
        before = len(archive.signer_history)
        report = archive.advance_epoch()
        assert len(archive.signer_history) == before + 1
        assert any("rolled over" in note for note in report.notes)

    def test_chain_remains_auditable_across_rollover(self, archive):
        exhaust_signer(archive)
        archive.advance_epoch()
        archive.advance_epoch()
        auditor = ChainAuditor({})
        for signer in archive.signer_history:
            auditor.register(signer)
        verdict = auditor.audit(archive.chain, BreakTimeline(), now_epoch=archive.epoch)
        assert verdict.valid, verdict.explain()

    def test_succession_link_signed_by_old_signer(self, archive):
        old_identity = archive.authority.signer.public_identity()
        exhaust_signer(archive)
        archive.advance_epoch()
        # The rollover's renewal link (the one before the per-epoch renewal
        # of the new signer) carries the OLD identity.
        succession = archive.chain.links[-2]
        assert succession.signer_identity == old_identity
        assert archive.chain.links[-1].signer_identity != old_identity

    def test_data_unaffected_by_rollover(self, archive):
        exhaust_signer(archive)
        archive.advance_epoch()
        assert archive.retrieve("doc") == b"outlives its signers" * 10

    def test_no_rollover_while_keys_remain(self, archive):
        report = archive.advance_epoch()
        assert len(archive.signer_history) == 1
        assert not report.notes
