"""Lamport/Winternitz/Merkle/toy-RSA signatures and Pedersen/hash commitments."""

import hashlib

import pytest

from repro.crypto.commitments import HashCommitment, PedersenCommitment, PedersenOpening
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.signatures import (
    WOTS_SIGNATURE_BYTES,
    LamportSignature,
    MerkleSignature,
    ToyRsaSignature,
    WinternitzSignature,
    factor_modulus,
)
from repro.crypto.sha256 import sha256
from repro.errors import KeyManagementError, ParameterError, VerificationError
from repro.gmath.primes import generate_schnorr_group
from repro.integrity.timestamp import MerkleChainSigner, _decode_merkle_signature
from repro.obs.metrics import use_registry
from tests.test_lazy_transit import _retained_bytes


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


# -- a scalar Merkle-WOTS: one hashlib call per chain step -------------------------


def _reference_merkle_wots(height, rng):
    """(keys, tree): ``keys[k][i]`` is chain i of key k as its four levels,
    ``tree[0]`` the leaves and ``tree[-1]`` the one-node root level."""
    keys, leaves = [], []
    for _ in range(1 << height):
        chains = []
        for _ in range(133):
            chain = [rng.bytes(32)]
            for _ in range(3):
                chain.append(hashlib.sha256(chain[-1]).digest())
            chains.append(chain)
        keys.append(chains)
        leaves.append(hashlib.sha256(b"".join(chain[3] for chain in chains)).digest())
    tree = [leaves]
    while len(tree[-1]) > 1:
        level = tree[-1]
        pairs = range(0, len(level), 2)
        tree.append([hashlib.sha256(b"\x01" + level[i] + level[i + 1]).digest() for i in pairs])
    return keys, tree


def _reference_digits(message):
    value = int.from_bytes(hashlib.sha256(message).digest(), "big")
    digits = [(value >> (2 * (127 - i))) & 3 for i in range(128)]
    checksum = sum(3 - digit for digit in digits)
    return digits + [(checksum >> (2 * (4 - j))) & 3 for j in range(5)]


def _reference_chain_ends(message, signature):
    ends = []
    for i, digit in enumerate(_reference_digits(message)):
        value = signature[32 * i : 32 * (i + 1)]
        for _ in range(3 - digit):
            value = hashlib.sha256(value).digest()
        ends.append(value)
    return b"".join(ends)


class TestWinternitz:
    @pytest.mark.parametrize("seed", [b"wots-a", b"wots-b"])
    def test_vectorized_scheme_matches_the_scalar_reference(self, seed):
        reference_rng, rng = DeterministicRandom(seed), DeterministicRandom(seed)
        keys, tree = _reference_merkle_wots(3, reference_rng)
        ms = MerkleSignature(3, rng)
        assert ms.public_root == tree[-1][0]
        # One draw of 8 keys x 133 chains x 32 bytes, the reference's total.
        assert rng.bytes(32) == reference_rng.bytes(32)
        messages = [b"", b"m", b"link:" + bytes(range(90)), b"\xff" * 64] * 2
        for index, message in enumerate(messages):
            signature = ms.sign(message)
            digits = _reference_digits(message)
            expected = b"".join(keys[index][i][digit] for i, digit in enumerate(digits))
            assert signature["index"] == index
            assert signature["ots_signature"] == expected
            assert signature["auth_path"] == [
                tree[level][(index >> level) ^ 1] for level in range(3)
            ]
            ends = b"".join(chain[3] for chain in keys[index])
            assert _reference_chain_ends(message, expected) == ends
            assert WinternitzSignature.chain_ends(message, expected) == ends
            assert WinternitzSignature.verify(ends, message, expected)
            assert MerkleSignature.verify(ms.public_root, message, signature)

    def test_any_changed_or_advanced_chain_value_fails(self, rng):
        ms = MerkleSignature(2, rng)
        signature = ms.sign(b"m")
        ots = signature["ots_signature"]
        for chain in range(133):
            value = ots[32 * chain : 32 * (chain + 1)]
            flipped = bytes([value[0] ^ 1]) + value[1:]
            advanced = hashlib.sha256(value).digest()
            for replacement in (flipped, advanced):
                forged = ots[: 32 * chain] + replacement + ots[32 * (chain + 1) :]
                assert not MerkleSignature.verify(
                    ms.public_root, b"m", {**signature, "ots_signature": forged}
                ), chain

    def test_any_changed_path_node_fails(self, rng):
        ms = MerkleSignature(4, rng)
        ms.sign(b"first")
        signature = ms.sign(b"m")
        for node in range(4):
            path = list(signature["auth_path"])
            path[node] = bytes([path[node][0] ^ 1]) + path[node][1:]
            assert not MerkleSignature.verify(
                ms.public_root, b"m", {**signature, "auth_path": path}
            )

    def test_verifies_only_at_its_own_index_and_root(self, rng):
        ms = MerkleSignature(3, rng)
        other = MerkleSignature(3, rng)
        ms.sign(b"a")
        signature = ms.sign(b"m")
        assert signature["index"] == 1
        assert MerkleSignature.verify(ms.public_root, b"m", signature)
        for index in (0, *range(2, 8)):
            assert not MerkleSignature.verify(
                ms.public_root, b"m", {**signature, "index": index}
            )
        assert not MerkleSignature.verify(other.public_root, b"m", signature)

    def test_link_signature_is_4518_bytes_and_decodes_only_at_that_length(self, rng):
        signer = MerkleChainSigner(rng, height=8)
        blob = signer.sign(b"link")
        assert len(blob) == 4 + 2 + 8 * 32 + WOTS_SIGNATURE_BYTES == 4518
        assert _decode_merkle_signature(blob) is not None
        assert signer.verify(b"link", blob)
        wrong_path_length = [
            blob[:4] + (8 + step).to_bytes(2, "big") + blob[6:] for step in (-1, 1)
        ]
        truncated = [blob[:-1], blob[:-32], b""]
        extended = [blob + b"\x00", blob + bytes(32)]
        for bad in truncated + extended + wrong_path_length:
            assert _decode_merkle_signature(bad) is None
            assert not signer.verify(b"link", bad)

    def test_signing_frees_each_used_key(self):
        signer = MerkleChainSigner(DeterministicRandom(b"free"), height=3)
        before = _retained_bytes(signer)
        for signed in range(1, 9):
            key = signer._scheme._keys[signed - 1]
            assert key.nbytes == 4 * WOTS_SIGNATURE_BYTES == 17_024
            signer.sign(b"m%d" % signed)
            assert signer._scheme._keys[signed - 1] is None
            assert not key.any()  # zeroed before it was dropped
            assert before - _retained_bytes(signer) >= signed * key.nbytes
            assert sum(kept is not None for kept in signer._scheme._keys) == 8 - signed
            assert signer.remaining == 8 - signed
        with pytest.raises(KeyManagementError):
            signer.sign(b"a ninth message")


#: Recorded with the scalar reference keygen above (one 32-byte draw per
#: chain, one hashlib call per chain step): height -> (public root, sha256
#: of the next 64 rng bytes after keygen, crypto_hash_calls_total delta,
#: crypto_hash_bytes_total delta).
_KEYGEN_PINS = {
    1: ("94e4c39336f828ad588aac3dd534328e2f02a7d9a194a77c735717cbbb5622a6",
        "0ab08ae20c2516310c70a5f60c02da3febcf93e09433e29de158d8644c8a5ebc", 801, 34113),
    4: ("6d9187034ee1917f4ffd6d5fa029d1310e6eb6ea64fd66038646882c9bbceda0",
        "457ce9ccf623f00842c280c6de1665f250d3ca6378c152208c1e64aee33c71eb", 6415, 273359),
    8: ("1b6779a226112f581f325168cd22fd9f3b5933beadb27dba1848c32ed15d5656",
        "61fbcc00a31cf9e09c5bed8911c0ad164b39cb5736bf4a725c5020424a4102d1", 102655, 4374719),
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
