"""SHA-256.

Two implementations:

- :func:`sha256_pure` -- a from-scratch FIPS 180-4 implementation.  It exists
  so the library has no black-box dependency for its central hash, and so the
  test suite can cross-check it against the platform implementation.
- :func:`sha256` -- the fast path used by the rest of the library.  It
  delegates to :mod:`hashlib` (the same function, interoperability-verified
  by ``tests/test_sha256.py``), because archival workloads hash megabytes and
  a pure-Python compression function runs ~1000x slower than C.
  :func:`sha256_rows` is the same fast path over every fixed-width row of
  one buffer (the bulk hashes of hash-based signature keygen).
"""

from __future__ import annotations

import hashlib
import struct

from repro.errors import ParameterError
from repro.obs import metrics as _metrics

_K = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_H0 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)

_MASK = 0xFFFFFFFF


def _rotr(x: int, n: int) -> int:
    return ((x >> n) | (x << (32 - n))) & _MASK


def _compress(state: tuple[int, ...], block: bytes) -> tuple[int, ...]:
    """One SHA-256 compression-function application."""
    w = list(struct.unpack(">16I", block))
    for i in range(16, 64):
        s0 = _rotr(w[i - 15], 7) ^ _rotr(w[i - 15], 18) ^ (w[i - 15] >> 3)
        s1 = _rotr(w[i - 2], 17) ^ _rotr(w[i - 2], 19) ^ (w[i - 2] >> 10)
        w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK)

    a, b, c, d, e, f, g, h = state
    for i in range(64):
        big_s1 = _rotr(e, 6) ^ _rotr(e, 11) ^ _rotr(e, 25)
        ch = (e & f) ^ (~e & g)
        temp1 = (h + big_s1 + ch + _K[i] + w[i]) & _MASK
        big_s0 = _rotr(a, 2) ^ _rotr(a, 13) ^ _rotr(a, 22)
        maj = (a & b) ^ (a & c) ^ (b & c)
        temp2 = (big_s0 + maj) & _MASK
        a, b, c, d, e, f, g, h = (
            (temp1 + temp2) & _MASK, a, b, c,
            (d + temp1) & _MASK, e, f, g,
        )
    return tuple((s + v) & _MASK for s, v in zip(state, (a, b, c, d, e, f, g, h)))


def sha256_pure(data: bytes) -> bytes:
    """From-scratch SHA-256 digest of *data* (FIPS 180-4)."""
    length_bits = len(data) * 8
    # Padding: 0x80, zeros, then the 64-bit big-endian message length.
    padded = data + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack(">Q", length_bits)

    state = _H0
    for offset in range(0, len(padded), 64):
        state = _compress(state, padded[offset : offset + 64])
    return struct.pack(">8I", *state)


def sha256(data) -> bytes:
    """Fast SHA-256 digest of any bytes-like object (hashlib-backed;
    identical output to :func:`sha256_pure`, verified by the test suite).

    Accepts anything exposing a contiguous buffer -- bytes, memoryview, or a
    uint8 ndarray -- so the zero-copy pipeline can hash array slabs without
    materializing them as bytes first."""
    _metrics.inc("crypto_hash_calls_total", algorithm="sha256")
    _metrics.inc("crypto_hash_bytes_total", len(data), algorithm="sha256")
    return hashlib.sha256(data).digest()


def sha256_rows(data, width: int) -> bytes:
    """SHA-256 of every *width*-byte row of *data*, concatenated.

    The same digests and the same ``crypto_hash_*`` totals as calling
    :func:`sha256` on each row, but the two counters are bumped once by the
    totals instead of twice per row: a Merkle-WOTS keygen hashes 2^h x
    133 x 3 chain steps, and per-row counter updates would cost more than
    the hashes."""
    view = memoryview(data).cast("B")
    if width <= 0 or len(view) % width:
        raise ParameterError(f"{len(view)} bytes do not split into {width}-byte rows")
    rows = len(view) // width
    _metrics.inc("crypto_hash_calls_total", rows, algorithm="sha256")
    _metrics.inc("crypto_hash_bytes_total", len(view), algorithm="sha256")
    new = hashlib.sha256
    return b"".join([new(view[i : i + width]).digest() for i in range(0, len(view), width)])


def sha256_hex(data: bytes) -> str:
    """Convenience hex form of :func:`sha256`."""
    return sha256(data).hex()


DIGEST_SIZE = 32
BLOCK_SIZE = 64
