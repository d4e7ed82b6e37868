"""ChaCha20 stream cipher (RFC 8439 variant, 32-bit block counter).

The implementation is numpy-vectorized across blocks *and* across the four
columns of the state: every 64-byte block of the keystream is computed
simultaneously, and each quarter round runs once per round over all four
columns (or diagonals) with uint32 array arithmetic.  That keeps a call to
about 460 numpy operations per 512 KiB of keystream, however short, which
is what makes a pure-Python archival simulation able to encrypt megabytes
per second and draw short keystreams cheaply.  Correctness is pinned to the RFC 8439 test
vectors and a scalar reference block function in the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import ParameterError
from repro.obs import metrics as _metrics

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_CONSTANTS = np.frombuffer(b"expand 32-byte k", dtype="<u4").copy()

#: Blocks per pass of the round loop.  A pass holds a (4, 7, n) working
#: array plus a (4, n) scratch, about 1 MiB at this size, so requests past
#: 512 KiB run in cache-sized pieces instead of streaming every operation
#: through memory.
_CHUNK_BLOCKS = 8192


# Shift counts of the four rotations (16, 12, 8, 7) as uint32 scalars: a
# numpy scalar operand skips the per-call conversion of a Python int.
_L16, _L12, _L8, _L7 = (np.uint32(n) for n in (16, 12, 8, 7))
_R16, _R20, _R24, _R25 = (np.uint32(32 - n) for n in (16, 12, 8, 7))


def _quarter_round(a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray,
                   t: np.ndarray) -> None:
    """In-place quarter round on four (4, n) rows at once; *t* is scratch."""
    a += b
    d ^= a
    np.left_shift(d, _L16, out=t)
    d >>= _R16
    d |= t
    c += d
    b ^= c
    np.left_shift(b, _L12, out=t)
    b >>= _R20
    b |= t
    a += b
    d ^= a
    np.left_shift(d, _L8, out=t)
    d >>= _R24
    d |= t
    c += d
    b ^= c
    np.left_shift(b, _L7, out=t)
    b >>= _R25
    b |= t


def _double_rounds(x: np.ndarray, t: np.ndarray) -> None:
    """The 20 ChaCha rounds, in place, over a (4, 7, n) working array.

    ``x[:, :4]`` is the (4, 4, n) state: ``x[r, col, i]`` is word
    ``4 * r + col`` of block ``i``, so the rows are a, b, c, d.  A column
    round is one quarter round over the four rows.  A diagonal round reads
    row r rotated left by r columns.  Columns 4-6 of rows b, c, d first take
    a copy of their columns 0-2, so the rotated row is the contiguous
    window ``x[r, r : r + 4]``; afterwards the r words that wrapped are
    copied back to columns ``0 .. r - 1``.
    """
    a, b, c, d = x[0, 0:4], x[1, 0:4], x[2, 0:4], x[3, 0:4]
    diagonal = (a, x[1, 1:5], x[2, 2:6], x[3, 3:7])
    spares, heads = x[1:4, 4:7], x[1:4, 0:3]
    wrapped = [(x[r, 0:r], x[r, 4 : 4 + r]) for r in (1, 2, 3)]
    for _ in range(10):
        _quarter_round(a, b, c, d, t)
        spares[...] = heads
        _quarter_round(*diagonal, t)
        for head, spare in wrapped:
            head[...] = spare


def chacha20_keystream(key: bytes, nonce: bytes, length: int, counter: int = 0) -> bytes:
    """Generate *length* keystream bytes for (key, nonce) starting at block
    *counter*."""
    if len(key) != KEY_SIZE:
        raise ParameterError(f"ChaCha20 key must be {KEY_SIZE} bytes")
    if len(nonce) != NONCE_SIZE:
        raise ParameterError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes")
    if length <= 0:
        return b""

    n_blocks = -(-length // BLOCK_SIZE)
    if counter < 0:
        raise ParameterError("ChaCha20 block counter must be non-negative")
    if counter + n_blocks > 1 << 32:
        raise ParameterError("ChaCha20 block counter would overflow")
    _metrics.inc("crypto_cipher_calls_total", cipher="chacha20")
    _metrics.inc("crypto_cipher_bytes_total", length, cipher="chacha20")

    # Input state as (row, column): constants, key, key, counter || nonce.
    initial = np.empty((4, 4), dtype=np.uint32)
    initial[0] = _CONSTANTS
    initial[1:3] = np.frombuffer(key, dtype="<u4").reshape(2, 4)
    initial[3, 0] = 0
    initial[3, 1:] = np.frombuffer(nonce, dtype="<u4")
    counters = np.arange(counter, counter + n_blocks, dtype=np.uint64).astype(np.uint32)

    # Output: block-major, word-minor, little-endian.
    out = np.empty((n_blocks, 4, 4), dtype="<u4")
    chunk = min(n_blocks, _CHUNK_BLOCKS)
    working = np.empty((4, 7, chunk), dtype=np.uint32)
    scratch = np.empty((4, chunk), dtype=np.uint32)
    for lo in range(0, n_blocks, chunk):
        n = min(chunk, n_blocks - lo)
        x, t = working[:, :, :n], scratch[:, :n]
        state = x[:, :4]
        state[...] = initial[:, :, None]
        x[3, 0] = counters[lo : lo + n]
        with np.errstate(over="ignore"):
            _double_rounds(x, t)
            state += initial[:, :, None]
            state[3, 0] += counters[lo : lo + n]
        out[lo : lo + n] = state.transpose(2, 0, 1)
    return out.reshape(-1).view(np.uint8)[:length].tobytes()


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 0) -> bytes:
    """Encrypt/decrypt *data* (the operation is its own inverse)."""
    stream = np.frombuffer(
        chacha20_keystream(key, nonce, len(data), counter), dtype=np.uint8
    )
    return (np.frombuffer(data, dtype=np.uint8) ^ stream).tobytes()


class ChaCha20Cipher:
    """Cipher-interface wrapper around ChaCha20 (see ``registry`` docs).

    Stateless: key and nonce are per call.  ``nonce_size`` and ``key_size``
    let generic archival code allocate material without special cases.
    """

    name = "chacha20"
    key_size = KEY_SIZE
    nonce_size = NONCE_SIZE

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        return chacha20_xor(key, nonce, plaintext)

    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
        return chacha20_xor(key, nonce, ciphertext)


register_primitive(
    name="chacha20",
    kind=PrimitiveKind.CIPHER,
    description="ChaCha20 stream cipher (RFC 8439), 256-bit key",
    hardness_assumption="ARX permutation is a PRF",
)
