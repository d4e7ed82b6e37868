"""Merkle trees, timestamp chains, and the long-term chain auditor."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.commitments import PedersenCommitment
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.errors import IntegrityError, ParameterError
from repro.integrity.auditor import ChainAuditor, forged_link_after_break
from repro.integrity.merkle import MerkleTree
from repro.integrity.timestamp import (
    MerkleChainSigner,
    RsaChainSigner,
    TimestampAuthority,
    TimestampChain,
)
from repro.obs import use_registry


class TestMerkleTree:
    @given(st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=33))
    @settings(max_examples=40, deadline=None)
    def test_every_leaf_proves(self, leaves):
        tree = MerkleTree(leaves)
        for i, leaf in enumerate(leaves):
            assert MerkleTree.verify(tree.root, leaf, tree.proof(i))

    def test_wrong_leaf_fails(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        assert not MerkleTree.verify(tree.root, b"z", tree.proof(0))

    def test_wrong_proof_index_fails(self):
        tree = MerkleTree([b"a", b"b", b"c", b"d"])
        assert not MerkleTree.verify(tree.root, b"a", tree.proof(1))

    def test_single_leaf_tree(self):
        tree = MerkleTree([b"only"])
        assert MerkleTree.verify(tree.root, b"only", tree.proof(0))

    def test_odd_leaf_count_padding(self):
        tree = MerkleTree([b"a", b"b", b"c"])
        assert MerkleTree.verify(tree.root, b"c", tree.proof(2))

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            MerkleTree([])

    def test_out_of_range_proof(self):
        with pytest.raises(ParameterError):
            MerkleTree([b"a"]).proof(1)

    def test_require_member_raises(self):
        tree = MerkleTree([b"a", b"b"])
        with pytest.raises(IntegrityError):
            MerkleTree.require_member(tree.root, b"zz", tree.proof(0))

    def test_domain_separation(self):
        """A leaf equal to an interior-node encoding must not verify as an
        interior node (0x00/0x01 prefixes)."""
        left = MerkleTree([b"x", b"y"])
        # Tree of the concatenated child hashes as a LEAF should differ.
        fake_leaf = left.root
        other = MerkleTree([fake_leaf])
        assert other.root != left.root


@pytest.fixture
def signers():
    rng = DeterministicRandom(b"chain-tests")
    return RsaChainSigner(rng), MerkleChainSigner(rng, height=4)


@pytest.fixture
def auditor(signers):
    rsa, merkle = signers
    a = ChainAuditor({})
    a.register(rsa)
    a.register(merkle)
    return a


class TestTimestampChain:
    def test_chain_grows_and_links(self, signers):
        rsa, _ = signers
        authority = TimestampAuthority(rsa)
        chain = TimestampChain()
        authority.timestamp_document(chain, b"doc-1", epoch=0)
        authority.timestamp_document(chain, b"doc-2", epoch=1)
        assert len(chain) == 2
        assert chain.links[1].prev_digest == chain.links[0].digest()

    def test_epochs_must_be_monotone(self, signers):
        rsa, _ = signers
        authority = TimestampAuthority(rsa)
        chain = TimestampChain()
        authority.timestamp_document(chain, b"later", epoch=5)
        with pytest.raises(ParameterError):
            authority.timestamp_document(chain, b"earlier", epoch=3)

    def test_append_enforces_linkage(self, signers):
        rsa, _ = signers
        authority = TimestampAuthority(rsa)
        chain = TimestampChain()
        link, _ = authority.timestamp_document(chain, b"doc", epoch=0)
        with pytest.raises(IntegrityError):
            chain.append(link)  # same link again: wrong prev/index

    def test_pedersen_reference_mode(self, signers):
        _, merkle = signers
        authority = TimestampAuthority(merkle)
        chain = TimestampChain()
        rng = DeterministicRandom(0)
        pedersen = PedersenCommitment()
        link, opening = authority.timestamp_document(
            chain, b"secret doc", epoch=0, reference_kind="pedersen",
            pedersen=pedersen, rng=rng,
        )
        assert opening is not None and link.reference_kind == "pedersen"
        # The owner can later prove what was committed.
        commitment = int.from_bytes(link.reference, "big")
        assert pedersen.verify(commitment, opening)

    def test_pedersen_mode_requires_scheme(self, signers):
        rsa, _ = signers
        authority = TimestampAuthority(rsa)
        with pytest.raises(ParameterError):
            authority.timestamp_document(
                TimestampChain(), b"x", epoch=0, reference_kind="pedersen"
            )

    def test_unknown_reference_kind(self, signers):
        rsa, _ = signers
        authority = TimestampAuthority(rsa)
        with pytest.raises(ParameterError):
            authority.timestamp_document(
                TimestampChain(), b"x", epoch=0, reference_kind="quantum"
            )

    def test_renewal_hashes_no_earlier_link_again(self):
        """A renewal's hash work does not grow with the links it covers.
        Its reference hashes the links' 32-byte digests, each computed
        once when the chain was extended; no link body is hashed again."""
        # Fixed-size Merkle signatures make every link the same size.
        authority = TimestampAuthority(MerkleChainSigner(DeterministicRandom(b"renew"), height=6))
        work = {}
        for length in (4, 40):
            chain = TimestampChain()
            for i in range(length):
                authority.timestamp_document(chain, b"doc %d" % i, epoch=0)
            with use_registry() as registry:
                authority.renew_chain(chain, epoch=1)
            counters = registry.snapshot()["counters"]
            work[length] = (
                counters["crypto_hash_calls_total{algorithm=sha256}"],
                counters["crypto_hash_bytes_total{algorithm=sha256}"],
            )
        assert work[40][0] == work[4][0]
        assert work[40][1] - work[4][1] == 32 * (40 - 4)


class TestChainAuditor:
    def test_valid_chain(self, signers, auditor):
        rsa, merkle = signers
        chain = TimestampChain()
        TimestampAuthority(rsa).timestamp_document(chain, b"doc", epoch=0)
        TimestampAuthority(merkle).renew_chain(chain, epoch=5)
        verdict = auditor.audit(chain, BreakTimeline(), now_epoch=10)
        assert verdict.valid, verdict.explain()

    def test_timely_renewal_survives_break(self, signers, auditor):
        rsa, merkle = signers
        chain = TimestampChain()
        TimestampAuthority(rsa).timestamp_document(chain, b"doc", epoch=0)
        TimestampAuthority(merkle).renew_chain(chain, epoch=8)
        timeline = BreakTimeline()
        timeline.schedule_break("toy-rsa", 10)
        assert auditor.audit(chain, timeline, now_epoch=50).valid

    def test_late_renewal_fails(self, signers, auditor):
        rsa, merkle = signers
        chain = TimestampChain()
        TimestampAuthority(rsa).timestamp_document(chain, b"doc", epoch=0)
        TimestampAuthority(merkle).renew_chain(chain, epoch=15)  # too late
        timeline = BreakTimeline()
        timeline.schedule_break("toy-rsa", 10)
        verdict = auditor.audit(chain, timeline, now_epoch=50)
        assert not verdict.valid
        assert any("before renewal" in f for f in verdict.failures)

    def test_unrenewed_head_fails_after_break(self, signers, auditor):
        rsa, _ = signers
        chain = TimestampChain()
        TimestampAuthority(rsa).timestamp_document(chain, b"doc", epoch=0)
        timeline = BreakTimeline()
        timeline.schedule_break("toy-rsa", 10)
        assert auditor.audit(chain, timeline, now_epoch=9).valid
        verdict = auditor.audit(chain, timeline, now_epoch=10)
        assert not verdict.valid and any("no renewal" in f for f in verdict.failures)

    def test_tampered_signature_detected(self, signers, auditor):
        rsa, _ = signers
        chain = TimestampChain()
        link, _ = TimestampAuthority(rsa).timestamp_document(chain, b"doc", epoch=0)
        object.__setattr__(link, "signature", b"\x00" + link.signature[1:])
        verdict = auditor.audit(chain, BreakTimeline(), now_epoch=1)
        assert not verdict.valid

    def test_unknown_signer_detected(self, signers):
        rsa, _ = signers
        chain = TimestampChain()
        TimestampAuthority(rsa).timestamp_document(chain, b"doc", epoch=0)
        empty_auditor = ChainAuditor({})
        verdict = empty_auditor.audit(chain, BreakTimeline(), now_epoch=1)
        assert not verdict.valid and any("unknown signer" in f for f in verdict.failures)

    def test_forged_link_after_break_rejected_on_renewed_chain(self, signers, auditor):
        """Post-break forger vs a chain that renewed in time: the forged
        link extends a stale head, so linkage fails."""
        rsa, merkle = signers
        chain = TimestampChain()
        TimestampAuthority(rsa).timestamp_document(chain, b"real history", epoch=0)
        TimestampAuthority(merkle).renew_chain(chain, epoch=5)
        timeline = BreakTimeline()
        timeline.schedule_break("toy-rsa", 10)

        # The forger rewrites history from the pre-renewal head.
        forged_chain = TimestampChain()
        forged_chain.links = chain.links[:1]
        forged = forged_link_after_break(forged_chain, b"fake history", rsa, epoch=12)
        forged_chain.links.append(forged)
        verdict = auditor.audit(forged_chain, timeline, now_epoch=20)
        assert not verdict.valid  # rsa was broken before epoch-12 "renewal"
