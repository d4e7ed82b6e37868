"""Lamport/Merkle/toy-RSA signatures and Pedersen/hash commitments."""

import pytest

from repro.crypto.commitments import HashCommitment, PedersenCommitment, PedersenOpening
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.signatures import (
    LamportSignature,
    MerkleSignature,
    ToyRsaSignature,
    factor_modulus,
)
from repro.crypto.sha256 import sha256
from repro.errors import KeyManagementError, ParameterError, VerificationError
from repro.gmath.primes import generate_schnorr_group
from repro.integrity.timestamp import MerkleChainSigner
from repro.obs.metrics import use_registry


@pytest.fixture
def rng():
    return DeterministicRandom(b"sigs")


class TestLamport:
    def test_sign_verify(self, rng):
        kp = LamportSignature.generate(rng)
        sig = LamportSignature.sign(kp, b"document")
        assert LamportSignature.verify(kp.public, b"document", sig)

    def test_rejects_other_message(self, rng):
        kp = LamportSignature.generate(rng)
        sig = LamportSignature.sign(kp, b"document")
        assert not LamportSignature.verify(kp.public, b"documenu", sig)

    def test_rejects_tampered_signature(self, rng):
        kp = LamportSignature.generate(rng)
        sig = bytearray(LamportSignature.sign(kp, b"document"))
        sig[0] ^= 1
        assert not LamportSignature.verify(kp.public, b"document", bytes(sig))

    def test_rejects_wrong_length(self, rng):
        kp = LamportSignature.generate(rng)
        assert not LamportSignature.verify(kp.public, b"document", b"short")

    def test_distinct_keys_not_interchangeable(self, rng):
        kp1 = LamportSignature.generate(rng)
        kp2 = LamportSignature.generate(rng)
        sig = LamportSignature.sign(kp1, b"m")
        assert not LamportSignature.verify(kp2.public, b"m", sig)


class TestMerkleSignature:
    def test_all_leaves_usable(self, rng):
        ms = MerkleSignature(height=2, rng=rng)
        for i in range(4):
            message = f"message {i}".encode()
            sig = ms.sign(message)
            assert MerkleSignature.verify(ms.public_root, message, sig)
        assert ms.remaining == 0

    def test_exhaustion_raises(self, rng):
        ms = MerkleSignature(height=1, rng=rng)
        ms.sign(b"a")
        ms.sign(b"b")
        with pytest.raises(KeyManagementError):
            ms.sign(b"c")

    def test_rejects_forged_path(self, rng):
        ms = MerkleSignature(height=2, rng=rng)
        sig = ms.sign(b"legit")
        sig["auth_path"] = [b"\x00" * 32 for _ in sig["auth_path"]]
        assert not MerkleSignature.verify(ms.public_root, b"legit", sig)

    def test_rejects_wrong_root(self, rng):
        ms = MerkleSignature(height=1, rng=rng)
        sig = ms.sign(b"m")
        assert not MerkleSignature.verify(b"\x00" * 32, b"m", sig)

    def test_malformed_signature_dict(self, rng):
        ms = MerkleSignature(height=1, rng=rng)
        assert not MerkleSignature.verify(ms.public_root, b"m", {"bogus": 1})

    def test_rejects_index_beyond_tree(self, rng):
        # Only the low `height` bits of the index steer the path walk, so an
        # unchecked index + k * 2^height re-encodes the same signature.
        ms = MerkleSignature(height=4, rng=rng)
        sig = ms.sign(b"m")
        assert MerkleSignature.verify(ms.public_root, b"m", sig)
        for index in (16, 16000, -16):
            assert not MerkleSignature.verify(ms.public_root, b"m", {**sig, "index": index})

    def test_chain_signer_rejects_reencoded_index(self, rng):
        signer = MerkleChainSigner(rng, height=4)
        blob = signer.sign(b"link")
        assert signer.verify(b"link", blob)
        for index in (16, 16000):
            assert not signer.verify(b"link", index.to_bytes(4, "big") + blob[4:])

    def test_height_limits(self, rng):
        with pytest.raises(ParameterError):
            MerkleSignature(height=0, rng=rng)
        with pytest.raises(ParameterError):
            MerkleSignature(height=13, rng=rng)


#: Recorded with one-key-pair-at-a-time keygen (2^h x 512 draws of 32 bytes):
#: height -> (public root, sha256 of the next 64 rng bytes after keygen,
#: crypto_hash_calls_total delta, crypto_hash_bytes_total delta).
_KEYGEN_PINS = {
    1: ("5853a9a1c35415b74d4a4075c32b4d947b6cf455326f4ee338b4617f8cd0a5a4",
        "0b7da2263ccb18362ca5c2287e45e876153b64b4313a6da8251b251dcbc646a9", 1027, 65601),
    4: ("37c7a22150602f70889d9c44542388c2119c9ee0985bcc194cfae43bb374ef1b",
        "8d3e6164d18e15e53bff2070937df8da1122c56e83a92bb9b13125bc0541ea62", 8223, 525263),
    8: ("c296766ad8ff8a7ba4f48a862b86dc8a172484473556068b85f56c31823fb15c",
        "fbb28216faed519d3a4c34d6bd7fd4bcb64f83b1ea1a4d29dcc0a8eb833f8184", 131583, 8405183),
}


class TestMerkleKeygenPins:
    @pytest.mark.parametrize("height", sorted(_KEYGEN_PINS))
    def test_keygen_byte_identical(self, height):
        root, next_rng, hash_calls, hash_bytes = _KEYGEN_PINS[height]
        rng = DeterministicRandom(f"merkle-pin/{height}")
        with use_registry() as registry:
            ms = MerkleSignature(height, rng)
        counters = registry.snapshot()["counters"]
        assert ms.public_root.hex() == root
        assert sha256(rng.bytes(64)).hex() == next_rng
        assert counters["crypto_hash_calls_total{algorithm=sha256}"] == hash_calls
        assert counters["crypto_hash_bytes_total{algorithm=sha256}"] == hash_bytes

    def test_lamport_keygen_byte_identical(self):
        rng = DeterministicRandom(b"sigs")
        kp = LamportSignature.generate(rng)
        assert LamportSignature.public_key_digest(kp.public).hex() == (
            "dab41ff01a0f87c60646f01d251e8113183d799fd033c844437147867dd02526"
        )
        assert sha256(LamportSignature.sign(kp, b"m")).hex() == (
            "ad0762f773ea1dc6d5f31595ac2eefc3647a878a401ac7a5dd3b60c7f448c74d"
        )
        assert rng.bytes(8).hex() == "c355df932e9c23da"


class TestToyRsa:
    def test_sign_verify(self, rng):
        rsa = ToyRsaSignature(64)
        keys = rsa.generate(rng)
        sig = rsa.sign(keys, b"contract")
        assert rsa.verify(keys.public, b"contract", sig)
        assert not rsa.verify(keys.public, b"contracT", sig)

    def test_factoring_attack_forges(self, rng):
        rsa = ToyRsaSignature(64)
        keys = rsa.generate(rng)
        forged = rsa.forge_after_break(keys.public, b"never signed this")
        assert rsa.verify(keys.public, b"never signed this", forged)

    def test_factor_modulus(self):
        assert factor_modulus(15) in (3, 5)
        p, q = 65537, 65539
        factor = factor_modulus(p * q)
        assert factor in (p, q)

    def test_modulus_bits_validated(self):
        with pytest.raises(ParameterError):
            ToyRsaSignature(8)


class TestPedersen:
    def test_commit_verify(self, rng):
        scheme = PedersenCommitment()
        commitment, opening = scheme.commit(12345, rng)
        assert scheme.verify(commitment, opening)

    def test_wrong_value_rejected(self, rng):
        scheme = PedersenCommitment()
        commitment, opening = scheme.commit(12345, rng)
        bad = PedersenOpening(value=opening.value + 1, blinding=opening.blinding)
        assert not scheme.verify(commitment, bad)
        with pytest.raises(VerificationError):
            scheme.require_valid(commitment, bad)

    def test_homomorphism(self, rng):
        scheme = PedersenCommitment()
        c1, o1 = scheme.commit(100, rng)
        c2, o2 = scheme.commit(23, rng)
        combined = scheme.combine([c1, c2])
        assert scheme.verify(combined, scheme.combine_openings([o1, o2]))

    def test_scale(self, rng):
        scheme = PedersenCommitment()
        c, o = scheme.commit(7, rng)
        scaled = scheme.scale(c, 3)
        expected_opening = PedersenOpening(
            value=(3 * o.value) % scheme.group.q,
            blinding=(3 * o.blinding) % scheme.group.q,
        )
        assert scheme.verify(scaled, expected_opening)

    def test_perfectly_hiding(self, rng):
        """For ANY two values there exist blindings mapping to the same
        commitment -- verified constructively in a tiny group where the
        test can play the unbounded adversary."""
        group = generate_schnorr_group(bits=16, seed=9)
        scheme = PedersenCommitment(group)
        c, opening = scheme.commit(5, rng)
        # Find the blinding that opens c to value 6: requires log_g h, which
        # brute force finds in a 16-bit group -- the 'unbounded adversary'.
        log_h = next(
            x for x in range(1, group.q) if pow(group.g, x, group.p) == group.h
        )
        # g^5 h^r = g^6 h^r'  =>  r' = r + (5 - 6)/log_h  (mod q)
        delta = ((5 - 6) * pow(log_h, -1, group.q)) % group.q
        other = PedersenOpening(value=6, blinding=(opening.blinding + delta) % group.q)
        assert scheme.verify(c, other), "every value is a valid opening: hiding is perfect"

    def test_combine_empty_rejected(self):
        with pytest.raises(ParameterError):
            PedersenCommitment().combine([])


class TestHashCommitment:
    def test_commit_verify(self, rng):
        scheme = HashCommitment()
        commitment, opening = scheme.commit(b"value", rng)
        assert scheme.verify(commitment, opening)

    def test_binding(self, rng):
        scheme = HashCommitment()
        commitment, opening = scheme.commit(b"value", rng)
        from repro.crypto.commitments import HashOpening

        assert not scheme.verify(commitment, HashOpening(value=b"other", nonce=opening.nonce))

    def test_grinding_small_value_space(self, rng):
        """The LINCOS objection, demonstrated: a hash reference over a small
        document space is enumerable once the nonce is known (or absent)."""
        scheme = HashCommitment()
        candidates = [f"diagnosis-{i}".encode() for i in range(100)]
        commitment, opening = scheme.commit(candidates[42], rng)
        found = HashCommitment.grind_small_space(commitment, candidates, opening.nonce)
        assert found == candidates[42]

    def test_grinding_fails_without_match(self, rng):
        scheme = HashCommitment()
        commitment, opening = scheme.commit(b"not in list", rng)
        assert HashCommitment.grind_small_space(commitment, [b"a", b"b"], opening.nonce) is None
