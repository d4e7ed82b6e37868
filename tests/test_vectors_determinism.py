"""Extra known-answer vectors and artifact determinism guarantees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    _CHUNK_BLOCKS,
    _ROUND_CACHE_MIN_BLOCKS,
    aes_ctr_transform,
    aes_ctr_xor,
    aes_decrypt_blocks,
    aes_encrypt_block,
    aes_encrypt_blocks,
)
from repro.errors import ParameterError
from repro.crypto.chacha20 import chacha20_keystream
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.kdf import hkdf


class TestNistAesVectors:
    """NIST SP 800-38A / FIPS 197 known answers beyond the basic ones."""

    def test_fips197_appendix_a_key_schedule_effect(self):
        # AES-128 with the FIPS 197 Appendix B key/plaintext.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
        assert aes_encrypt_block(key, plaintext).hex() == (
            "3925841d02dc09fbdc118597196a0b32"
        )

    def test_sp800_38a_ecb_block_1(self):
        # SP 800-38A F.1.1 ECB-AES128 block #1.
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert aes_encrypt_block(key, plaintext).hex() == (
            "3ad77bb40d7a3660a89ecaf32466ef97"
        )

    def test_ctr_keystream_structure(self):
        """CTR ciphertext XOR plaintext = keystream = E_k(counter blocks)."""
        key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
        nonce = b"\x00" * 12
        zeros = b"\x00" * 32
        stream = aes_ctr_xor(key, nonce, zeros)
        block0 = aes_encrypt_block(key, nonce + (0).to_bytes(4, "big"))
        block1 = aes_encrypt_block(key, nonce + (1).to_bytes(4, "big"))
        assert stream == block0 + block1

    def test_rfc3686_vector_1(self):
        # RFC 3686 section 6, test vector #1: nonce 00000030, IV zero.
        key = bytes.fromhex("ae6852f8121067cc4bf7a5765577f39e")
        nonce = bytes.fromhex("00000030") + bytes(8)
        ciphertext = aes_ctr_xor(key, nonce, b"Single block msg", initial_counter=1)
        assert ciphertext.hex() == "e4095d4fb7a7b3792d6175a3261311b8"

    @pytest.mark.parametrize(
        "key_hex, ciphertext_hex",
        [
            (  # F.5.1 CTR-AES128.Encrypt
                "2b7e151628aed2a6abf7158809cf4f3c",
                "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
                "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee",
            ),
            (  # F.5.5 CTR-AES256.Encrypt
                "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
                "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
                "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6",
            ),
        ],
    )
    def test_sp800_38a_ctr(self, key_hex, ciphertext_hex):
        # Counter block f0f1...feff: nonce f0..fb, 32-bit counter 0xfcfdfeff.
        plaintext = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710"
        )
        nonce = bytes(range(0xF0, 0xFC))
        ciphertext = aes_ctr_xor(
            bytes.fromhex(key_hex), nonce, plaintext, initial_counter=0xFCFDFEFF
        )
        assert ciphertext.hex() == ciphertext_hex

    @pytest.mark.parametrize("key_size", [16, 32])
    @pytest.mark.parametrize(
        "n_blocks",
        [_CHUNK_BLOCKS - 1, _CHUNK_BLOCKS, _CHUNK_BLOCKS + 1, 2 * _CHUNK_BLOCKS + 3],
    )
    def test_keystream_decrypts_to_counter_blocks_across_chunks(self, key_size, n_blocks):
        """Block decryption (inverse rounds, no code shared with the
        pair-table core) maps a multi-chunk keystream back to its counters,
        and block encryption of those counters is the keystream."""
        key = DeterministicRandom(b"chunked keystream").bytes(key_size)
        nonce = bytes(range(12))
        first = 7
        stream = aes_ctr_xor(key, nonce, bytes(16 * n_blocks), initial_counter=first)
        stream_blocks = np.frombuffer(stream, dtype=np.uint8).reshape(-1, 16)
        counter_blocks = _counter_blocks(nonce, first, n_blocks)
        np.testing.assert_array_equal(aes_decrypt_blocks(key, stream_blocks), counter_blocks)
        np.testing.assert_array_equal(aes_encrypt_blocks(key, counter_blocks), stream_blocks)


def _counter_blocks(nonce: bytes, first: int, n_blocks: int) -> np.ndarray:
    """The CTR input blocks ``nonce || counter`` (big-endian), explicitly."""
    blocks = np.empty((n_blocks, 16), dtype=np.uint8)
    blocks[:, :12] = np.frombuffer(nonce, dtype=np.uint8)
    counters = np.arange(first, first + n_blocks, dtype=">u4")
    blocks[:, 12:] = counters.view(np.uint8).reshape(-1, 4)
    return blocks


class TestCtrCachedRounds:
    """Messages from ``_ROUND_CACHE_MIN_BLOCKS`` blocks up compute rounds
    1-2 once per counter low byte and per 256-counter group; every message
    must still equal block encryption of its explicit counter blocks (run
    through all rounds per block) XOR the data, on both sides of the size
    cut, from counters that start and end on and off group boundaries."""

    LENGTHS = [
        1, 15, 16, 17, 4095, 4096, 4097,
        16 * (_ROUND_CACHE_MIN_BLOCKS - 1),
        16 * _ROUND_CACHE_MIN_BLOCKS - 1,
        (1 << 20) + 5,
    ]

    @pytest.mark.parametrize("key_size", [16, 32])
    @pytest.mark.parametrize("length", LENGTHS)
    @pytest.mark.parametrize("first", [0, 1, 255, 256, 0xFFFF, "last"])
    def test_equals_block_encryption_of_the_counters(self, key_size, length, first):
        rng = DeterministicRandom(f"cached rounds/{key_size}/{length}")
        key, nonce = rng.bytes(key_size), rng.bytes(12)
        data = np.frombuffer(rng.bytes(length), dtype=np.uint8)
        n_blocks = -(-length // 16)
        if first == "last":  # the last block takes counter 2**32 - 1
            first = (1 << 32) - n_blocks
        expected = aes_encrypt_blocks(key, _counter_blocks(nonce, first, n_blocks))
        expected = expected.reshape(-1)[:length] ^ data
        np.testing.assert_array_equal(aes_ctr_transform(key, nonce, data, first), expected)

    def test_out_receives_the_transform(self):
        rng = DeterministicRandom(b"ctr out")
        key, nonce = rng.bytes(32), rng.bytes(12)
        data = np.frombuffer(rng.bytes(16 * _ROUND_CACHE_MIN_BLOCKS + 9), dtype=np.uint8)
        expected = aes_ctr_transform(key, nonce, data, 3)
        out = np.zeros(data.size, dtype=np.uint8)
        assert aes_ctr_transform(key, nonce, data, 3, out=out) is out
        np.testing.assert_array_equal(out, expected)
        # The data buffer itself may take the result.
        in_place = data.copy()
        assert aes_ctr_transform(key, nonce, in_place, 3, out=in_place) is in_place
        np.testing.assert_array_equal(in_place, expected)

    @pytest.mark.parametrize(
        "out",
        [
            np.zeros(99, dtype=np.uint8),
            np.zeros(101, dtype=np.uint8),
            np.zeros(100, dtype=np.uint16),
            np.zeros((10, 10), dtype=np.uint8),
            np.zeros(0, dtype=np.uint8),
            bytearray(100),
        ],
        ids=["short", "long", "uint16", "2d", "empty", "bytearray"],
    )
    def test_out_of_the_wrong_size_or_dtype_is_rejected(self, out):
        with pytest.raises(ParameterError, match="out must be"):
            aes_ctr_transform(bytes(32), bytes(12), bytes(100), out=out)

    def test_read_only_out_is_rejected(self):
        out = np.zeros(100, dtype=np.uint8)
        out.setflags(write=False)
        with pytest.raises(ParameterError, match="out must be"):
            aes_ctr_transform(bytes(32), bytes(12), bytes(100), out=out)


class TestRfc8439FullBlock:
    def test_keystream_block_vector(self):
        """RFC 8439 section 2.3.2: first keystream block for the test key."""
        key = bytes(range(32))
        nonce = bytes.fromhex("000000090000004a00000000")
        block = chacha20_keystream(key, nonce, 64, counter=1)
        assert block.hex() == (
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        )


class TestRfc5869MoreCases:
    def test_case_2_long_inputs(self):
        ikm = bytes(range(0x00, 0x50))
        salt = bytes(range(0x60, 0xB0))
        info = bytes(range(0xB0, 0x100))
        okm = hkdf(ikm, 82, salt=salt, info=info)
        assert okm.hex().startswith("b11e398dc80327a1c8e7f78c596a4934")
        assert len(okm) == 82

    def test_case_3_empty_salt_info(self):
        ikm = bytes.fromhex("0b" * 22)
        okm = hkdf(ikm, 42, salt=b"", info=b"")
        assert okm.hex() == (
            "8da4e775a563c18f715f802a063c5a31"
            "b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8"
        )


class TestArtifactDeterminism:
    """Regenerated artifacts must be byte-identical run to run: the
    benchmarks' printed tables are reproducibility claims."""

    def test_figure1_deterministic(self):
        from repro.analysis.figure1 import generate_figure1

        a = generate_figure1(object_size=1 << 10)
        b = generate_figure1(object_size=1 << 10)
        assert a.render() == b.render()

    def test_table1_deterministic(self):
        from repro.analysis.table1 import generate_table1

        a = generate_table1(object_size=1024, objects=2)
        b = generate_table1(object_size=1024, objects=2)
        assert a.render() == b.render()

    def test_reencryption_table_deterministic(self):
        from repro.analysis.reencryption_table import generate_reencryption_table

        assert (
            generate_reencryption_table().render()
            == generate_reencryption_table().render()
        )

    def test_svg_deterministic(self):
        from repro.analysis.figure1 import generate_figure1
        from repro.analysis.figure1_svg import render_figure1_svg

        points = generate_figure1(object_size=1 << 10).points
        assert render_figure1_svg(points) == render_figure1_svg(points)


class TestCrossSchemeHypothesis:
    @given(
        data=st.binary(min_size=1, max_size=400),
        renewals=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_repeated_renewal_never_loses_the_secret(self, data, renewals):
        from repro.secretsharing.proactive import ProactiveShareGroup
        from repro.secretsharing.shamir import ShamirSecretSharing

        scheme = ShamirSecretSharing(5, 3)
        rng = DeterministicRandom(len(data) * 31 + renewals)
        group = ProactiveShareGroup(scheme, scheme.split(data, rng))
        for _ in range(renewals):
            group.renew(rng)
        assert group.reconstruct() == data

    @given(st.binary(min_size=1, max_size=300))
    @settings(max_examples=15, deadline=None)
    def test_redistribute_then_redistribute_back(self, data):
        from repro.secretsharing.redistribution import redistribute
        from repro.secretsharing.shamir import ShamirSecretSharing

        rng = DeterministicRandom(data[:8])
        a = ShamirSecretSharing(5, 3)
        b = ShamirSecretSharing(7, 4)
        split_a = a.split(data, rng)
        split_b, _ = redistribute(a, list(split_a.shares), b, len(data), rng)
        split_back, _ = redistribute(b, list(split_b.shares), a, len(data), rng)
        assert a.reconstruct(split_back) == data

    @given(st.binary(min_size=1, max_size=200), st.integers(2, 5))
    @settings(max_examples=15, deadline=None)
    def test_cascade_depth_invariant(self, data, depth):
        from repro.crypto.cascade import CascadeCipher, CascadeLayer
        from repro.crypto.chacha20 import ChaCha20Cipher

        layers = [
            CascadeLayer(ChaCha20Cipher(), bytes([i]) * 12) for i in range(depth)
        ]
        cascade = CascadeCipher(layers)
        keys = [bytes([i + 1]) * 32 for i in range(depth)]
        assert cascade.decrypt(keys, cascade.encrypt(keys, data)) == data
