"""SHA-256 (pure vs platform), HMAC, and HKDF."""

import hashlib
import hmac as stdlib_hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hmac_ import hmac_sha256, verify_hmac_sha256
from repro.crypto.kdf import derive_subkey, hkdf, hkdf_expand, hkdf_extract
from repro.crypto.sha256 import sha256, sha256_hex, sha256_pure, sha256_rows
from repro.errors import ParameterError
from repro.obs.metrics import use_registry


class TestSha256:
    def test_empty_vector(self):
        assert (
            sha256_pure(b"").hex()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_abc_vector(self):
        assert (
            sha256_pure(b"abc").hex()
            == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_two_block_vector(self):
        message = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert (
            sha256_pure(message).hex()
            == "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        )

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_pure_matches_platform(self, data):
        assert sha256_pure(data) == hashlib.sha256(data).digest()

    @pytest.mark.parametrize("length", [55, 56, 57, 63, 64, 65, 119, 120, 128])
    def test_padding_boundaries(self, length):
        data = bytes(length)
        assert sha256_pure(data) == hashlib.sha256(data).digest()

    def test_fast_path_equals_pure(self):
        data = b"fast-path check" * 100
        assert sha256(data) == sha256_pure(data)

    def test_hex_helper(self):
        assert sha256_hex(b"x") == hashlib.sha256(b"x").hexdigest()


class TestSha256Rows:
    def test_rows_equal_per_row_digests_and_counts(self):
        data = bytes(range(256)) * 3
        with use_registry() as batched:
            digests = sha256_rows(data, 48)
        with use_registry() as per_row:
            expected = b"".join(sha256(data[i : i + 48]) for i in range(0, len(data), 48))
        assert digests == expected
        assert batched.snapshot() == per_row.snapshot()

    @pytest.mark.parametrize("width", [0, 5])
    def test_rejects_uneven_rows(self, width):
        with pytest.raises(ParameterError):
            sha256_rows(b"\x00" * 32, width)


class TestHmac:
    @given(st.binary(min_size=0, max_size=100), st.binary(min_size=0, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_matches_stdlib(self, key, message):
        expected = stdlib_hmac.new(key, message, hashlib.sha256).digest()
        assert hmac_sha256(key, message) == expected

    def test_long_key_is_hashed(self):
        key = b"k" * 100  # longer than the 64-byte block
        expected = stdlib_hmac.new(key, b"m", hashlib.sha256).digest()
        assert hmac_sha256(key, b"m") == expected

    def test_rfc4231_case_2(self):
        tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?")
        assert tag.hex() == (
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        )

    def test_verify_accepts_good_tag(self):
        tag = hmac_sha256(b"key", b"msg")
        assert verify_hmac_sha256(b"key", b"msg", tag)

    def test_verify_rejects_bad_tag(self):
        tag = bytearray(hmac_sha256(b"key", b"msg"))
        tag[0] ^= 1
        assert not verify_hmac_sha256(b"key", b"msg", bytes(tag))

    def test_verify_rejects_wrong_length(self):
        assert not verify_hmac_sha256(b"key", b"msg", b"short")


class TestHkdf:
    def test_rfc5869_case_1(self):
        ikm = bytes.fromhex("0b" * 22)
        salt = bytes.fromhex("000102030405060708090a0b0c")
        info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
        okm = hkdf(ikm, 42, salt=salt, info=info)
        assert okm.hex() == (
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865"
        )

    def test_extract_empty_salt_defaults_to_zeros(self):
        ikm = b"input"
        assert hkdf_extract(b"", ikm) == hkdf_extract(b"\x00" * 32, ikm)

    def test_expand_length_limits(self):
        prk = hkdf_extract(b"salt", b"ikm")
        with pytest.raises(ParameterError):
            hkdf_expand(prk, b"", 0)
        with pytest.raises(ParameterError):
            hkdf_expand(prk, b"", 255 * 32 + 1)

    def test_max_length_works(self):
        prk = hkdf_extract(b"salt", b"ikm")
        assert len(hkdf_expand(prk, b"", 255 * 32)) == 255 * 32

    def test_different_info_different_output(self):
        assert derive_subkey(b"master", "a") != derive_subkey(b"master", "b")

    def test_prefix_consistency(self):
        long = hkdf(b"ikm", 64, info=b"x")
        short = hkdf(b"ikm", 32, info=b"x")
        assert long[:32] == short

    def test_derive_subkey_length(self):
        assert len(derive_subkey(b"m", "purpose", 48)) == 48
