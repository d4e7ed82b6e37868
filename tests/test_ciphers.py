"""AES, ChaCha20, LegacyFeistel, and the one-time pad."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    AesCtrCipher,
    aes_ctr_transform,
    aes_ctr_xor,
    aes_decrypt_block,
    aes_encrypt_block,
)
from repro.crypto.chacha20 import ChaCha20Cipher, chacha20_keystream, chacha20_xor
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.feistel import LegacyFeistelCipher
from repro.crypto.otp import OneTimePad, PadKey, otp_xor
from repro.errors import KeyManagementError, ParameterError


class TestAesBlock:
    def test_fips197_aes128_vector(self):
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        assert aes_encrypt_block(key, plaintext).hex() == (
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    def test_fips197_aes256_vector(self):
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        assert aes_encrypt_block(key, plaintext).hex() == (
            "8ea2b7ca516745bfeafc49904b496089"
        )

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=32, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_decrypt_inverts_encrypt(self, block, key):
        assert aes_decrypt_block(key, aes_encrypt_block(key, block)) == block

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ParameterError):
            aes_encrypt_block(b"\x00" * 16, b"short")

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ParameterError):
            aes_encrypt_block(b"\x00" * 17, b"\x00" * 16)


class TestAesCtr:
    @given(st.binary(min_size=0, max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, data):
        key, nonce = b"\x01" * 32, b"\x02" * 12
        assert aes_ctr_xor(key, nonce, aes_ctr_xor(key, nonce, data)) == data

    def test_different_nonces_differ(self):
        key = b"\x01" * 32
        data = b"\x00" * 64
        assert aes_ctr_xor(key, b"\x02" * 12, data) != aes_ctr_xor(key, b"\x03" * 12, data)

    def test_counter_offset_consistency(self):
        key, nonce = b"\x09" * 32, b"\x07" * 12
        full = aes_ctr_xor(key, nonce, b"\x00" * 64)
        tail = aes_ctr_xor(key, nonce, b"\x00" * 48, initial_counter=1)
        assert full[16:] == tail

    def test_nonce_length_enforced(self):
        with pytest.raises(ParameterError):
            aes_ctr_xor(b"\x00" * 32, b"\x00" * 11, b"data")

    def test_counter_overflow_rejected(self):
        with pytest.raises(ParameterError):
            aes_ctr_xor(b"\x00" * 32, b"\x00" * 12, b"\x00" * 32, initial_counter=(1 << 32) - 1)

    def test_negative_counter_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            aes_ctr_transform(b"\x00" * 32, b"\x00" * 12, b"data", initial_counter=-1)

    def test_cipher_wrapper_roundtrip(self):
        cipher = AesCtrCipher()
        key, nonce = b"\x05" * 32, b"\x06" * 12
        ct = cipher.encrypt(key, nonce, b"wrapper")
        assert cipher.decrypt(key, nonce, ct) == b"wrapper"

    def test_cipher_wrapper_names(self):
        assert AesCtrCipher(16).name == "aes-128-ctr"
        assert AesCtrCipher(32).name == "aes-256-ctr"
        with pytest.raises(ParameterError):
            AesCtrCipher(24)

    def test_cipher_wrapper_key_check(self):
        cipher = AesCtrCipher(32)
        with pytest.raises(ParameterError):
            cipher.encrypt(b"\x00" * 16, b"\x00" * 12, b"x")


_MASK32 = 0xFFFFFFFF


def _reference_block(key: bytes, nonce: bytes, counter: int) -> bytes:
    """RFC 8439 section 2.3 block function, one 32-bit word at a time."""

    def quarter_round(s, a, b, c, d):
        for x, y, z, n in ((a, b, d, 16), (c, d, b, 12), (a, b, d, 8), (c, d, b, 7)):
            s[x] = (s[x] + s[y]) & _MASK32
            v = s[z] ^ s[x]
            s[z] = ((v << n) | (v >> (32 - n))) & _MASK32

    initial = [
        *struct.unpack("<4I", b"expand 32-byte k"),
        *struct.unpack("<8I", key),
        counter,
        *struct.unpack("<3I", nonce),
    ]
    s = list(initial)
    for _ in range(10):
        for a, b, c, d in ((0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
                           (0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14)):
            quarter_round(s, a, b, c, d)
    return struct.pack("<16I", *((x + y) & _MASK32 for x, y in zip(s, initial)))


def _reference_keystream(key: bytes, nonce: bytes, length: int, counter: int = 0) -> bytes:
    blocks = -(-length // 64)
    return b"".join(_reference_block(key, nonce, counter + i) for i in range(blocks))[:length]


class TestChaCha20ScalarReference:
    """The vectorized core against the scalar RFC 8439 block function."""

    KEY = bytes(range(7, 39))
    NONCE = bytes.fromhex("0a1b2c3d4e5f60718293a4b5")

    def test_reference_matches_rfc8439_block_vector(self):
        block = _reference_block(bytes(range(32)), bytes.fromhex("000000090000004a00000000"), 1)
        assert block.hex() == (
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        )

    # 64 KiB is one DRBG slab; 1 MiB + 5 runs in several block chunks and
    # ends mid-block.
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 4096, 65536, (1 << 20) + 5])
    def test_every_length_matches_reference(self, length):
        expected = _reference_keystream(self.KEY, self.NONCE, length, counter=3)
        assert chacha20_keystream(self.KEY, self.NONCE, length, counter=3) == expected

    def test_last_valid_counter(self):
        last = (1 << 32) - 1
        assert chacha20_keystream(self.KEY, self.NONCE, 64, counter=last) == (
            _reference_block(self.KEY, self.NONCE, last)
        )
        assert chacha20_keystream(self.KEY, self.NONCE, 130, counter=last - 2) == (
            _reference_keystream(self.KEY, self.NONCE, 130, counter=last - 2)
        )
        with pytest.raises(ParameterError):
            chacha20_keystream(self.KEY, self.NONCE, 65, counter=last)

    def test_negative_counter_rejected(self):
        with pytest.raises(ParameterError, match="non-negative"):
            chacha20_keystream(self.KEY, self.NONCE, 64, counter=-1)


class TestChaCha20:
    def test_rfc8439_example(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = chacha20_xor(key, nonce, plaintext, counter=1)
        assert ciphertext.hex().startswith(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        )

    @given(st.binary(min_size=0, max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, data):
        key, nonce = b"\x0a" * 32, b"\x0b" * 12
        assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data

    def test_keystream_counter_offset(self):
        key, nonce = b"\x01" * 32, b"\x02" * 12
        full = chacha20_keystream(key, nonce, 192)
        offset = chacha20_keystream(key, nonce, 128, counter=1)
        assert full[64:] == offset

    def test_key_size_enforced(self):
        with pytest.raises(ParameterError):
            chacha20_keystream(b"short", b"\x00" * 12, 10)

    def test_nonce_size_enforced(self):
        with pytest.raises(ParameterError):
            chacha20_keystream(b"\x00" * 32, b"\x00" * 8, 10)

    def test_zero_length(self):
        assert chacha20_keystream(b"\x00" * 32, b"\x00" * 12, 0) == b""

    def test_wrapper(self):
        cipher = ChaCha20Cipher()
        key, nonce = b"\x00" * 32, b"\x00" * 12
        assert cipher.decrypt(key, nonce, cipher.encrypt(key, nonce, b"hi")) == b"hi"


class TestLegacyFeistel:
    def test_block_roundtrip(self):
        cipher = LegacyFeistelCipher()
        key = b"\x11" * 16
        for block in (b"\x00" * 8, b"12345678", b"\xff" * 8):
            assert cipher.decrypt_block(key, cipher.encrypt_block(key, block)) == block

    def test_stream_roundtrip(self):
        cipher = LegacyFeistelCipher()
        key, nonce = b"\x22" * 16, b"\x00" * 12
        data = b"legacy data" * 20
        assert cipher.decrypt(key, nonce, cipher.encrypt(key, nonce, data)) == data

    def test_effective_key_truncation(self):
        """Two keys agreeing on the low effective bits encrypt identically --
        the modeled keyspace collapse."""
        cipher = LegacyFeistelCipher(effective_key_bits=16)
        low_bits = (12345).to_bytes(16, "big")
        high_junk = ((0xABC << 100) | 12345).to_bytes(16, "big")
        block = b"ABCDEFGH"
        assert cipher.encrypt_block(low_bits, block) == cipher.encrypt_block(high_junk, block)

    def test_brute_force_recovers_key(self):
        cipher = LegacyFeistelCipher(effective_key_bits=12)
        key = (1234).to_bytes(16, "big")
        block = b"known!!!"
        found = cipher.recover_key_by_brute_force(block, cipher.encrypt_block(key, block))
        assert found is not None
        assert cipher.encrypt_block(found, block) == cipher.encrypt_block(key, block)

    def test_brute_force_can_fail(self):
        cipher = LegacyFeistelCipher(effective_key_bits=8)
        # A ciphertext no 8-bit key produces for this plaintext (overwhelmingly).
        assert cipher.recover_key_by_brute_force(b"\x00" * 8, b"\xde\xad\xbe\xef\x99\x99\x99\x99") is None

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            LegacyFeistelCipher(effective_key_bits=4)
        with pytest.raises(ParameterError):
            LegacyFeistelCipher().encrypt_block(b"short", b"\x00" * 8)


class TestOneTimePad:
    def test_xor_roundtrip(self):
        key = bytes(range(100))
        data = b"pad me" * 10
        assert otp_xor(key, otp_xor(key, data)) == data

    def test_short_key_rejected(self):
        with pytest.raises(ParameterError):
            otp_xor(b"ab", b"longer than key")

    def test_pad_key_single_use(self):
        pad = PadKey(b"\x01" * 10)
        assert pad.take(6) == b"\x01" * 6
        assert pad.remaining == 4
        with pytest.raises(KeyManagementError):
            pad.take(5)

    def test_pad_cipher_consumes(self):
        rng = DeterministicRandom(0)
        material = rng.bytes(64)
        otp = OneTimePad()
        enc_pad, dec_pad = PadKey(material), PadKey(material)
        ct = otp.encrypt_with_pad(enc_pad, b"secret message")
        assert otp.decrypt_with_pad(dec_pad, ct) == b"secret message"
        assert enc_pad.remaining == 64 - 14

    def test_perfect_secrecy_statistically(self):
        """Ciphertexts of all-zero and all-one messages are indistinguishable
        under fresh pads (mean test, epsilon = 0 in Definition 2.1)."""
        rng = DeterministicRandom(1)
        import numpy as np

        means = {0: [], 1: []}
        for label, message in ((0, b"\x00" * 256), (1, b"\xff" * 256)):
            for _ in range(50):
                ct = otp_xor(rng.bytes(256), message)
                means[label].append(np.frombuffer(ct, dtype=np.uint8).mean())
        assert abs(np.mean(means[0]) - np.mean(means[1])) < 5.0
