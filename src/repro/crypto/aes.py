"""AES-128/256 from scratch, with a numpy-vectorized pair-table CTR mode.

The block cipher follows FIPS 197 exactly (S-box derived from the GF(2^8)
inverse plus the affine map, standard key schedule); correctness is pinned to
the FIPS 197 appendix vectors in the tests.  The encrypt path uses the
classic 32-bit T-table formulation: SubBytes, ShiftRows and MixColumns for
one output column collapse into four table lookups and three XORs on packed
words.  Here the four lookups run as two: read in ShiftRows order, the word
feeding output column c holds row r of column c+r, and its low and high 16
bits index 65,536-entry pair tables (``T01[a | b << 8] = T0[a] ^ T1[b]``,
likewise ``T23``).  The cipher state of a chunk of blocks lives in one
``(4, n_blocks)`` uint32 array (column words by block -- transposed so each
word row is contiguous), so a round is two ``np.take`` gathers over the
whole chunk, not per block.  Words are little-endian values on every host
(row r of a column at bits 8r..8r+7); bytes enter and leave through
``"<u4"`` views.  CTR keystreams are built directly in the transposed
layout: the three nonce words broadcast, only the counter word varies,
and from ``_ROUND_CACHE_MIN_BLOCKS`` blocks up rounds 1-2 run once per
counter low byte and per 256-counter group instead of once per block
(:func:`_ctr_keystream`).  Decryption of raw blocks keeps the
straightforward inverse-round implementation (CTR decryption is the
encrypt path; block decryption is cold).

AES here is the stand-in for "traditional encryption" in Figure 1 and the
at-rest cipher of the commercial-cloud baseline in Table 1.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import ParameterError
from repro.gmath.gf256 import GF256
from repro.obs import metrics as _metrics

BLOCK_SIZE = 16

# -- S-box construction -------------------------------------------------------


def _build_sbox() -> tuple[np.ndarray, np.ndarray]:
    """S-box = GF(2^8) inverse followed by the FIPS 197 affine map."""
    sbox = np.zeros(256, dtype=np.uint8)
    for x in range(256):
        inv = GF256.inv(x) if x else 0
        affine = inv
        for shift in (1, 2, 3, 4):
            affine ^= ((inv << shift) | (inv >> (8 - shift))) & 0xFF
        sbox[x] = affine ^ 0x63
    inv_sbox = np.zeros(256, dtype=np.uint8)
    inv_sbox[sbox] = np.arange(256, dtype=np.uint8)
    return sbox, inv_sbox


_SBOX, _INV_SBOX = _build_sbox()

# xtime multiplication tables used by (Inv)MixColumns.
_XT = {}
for factor in (2, 3, 9, 11, 13, 14):
    _XT[factor] = np.array([GF256.mul(factor, x) for x in range(256)], dtype=np.uint8)


def _pack_table(l0: np.ndarray, l1: np.ndarray, l2: np.ndarray, l3: np.ndarray) -> np.ndarray:
    """Pack four 256-entry byte lanes into one word table, lane r at bits 8r."""
    return np.stack((l0, l1, l2, l3), axis=1).view("<u4").reshape(256)


def _pair_table(low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """Frozen 65,536-entry table: entry ``a | b << 8`` is ``low[a] ^ high[b]``."""
    index = np.arange(1 << 16)
    table = (low[index & 0xFF] ^ high[index >> 8]).astype(np.uint32)
    table.setflags(write=False)
    return table


# T-tables: SubBytes + ShiftRows + MixColumns for one output column collapse
# into T0[s0] ^ T1[s1] ^ T2[s2] ^ T3[s3] where s_r is the row-r byte of the
# ShiftRows source column; T01 and T23 fold them pairwise.  TS* are the
# MixColumns-free final-round tables.
_S2 = _XT[2][_SBOX]
_S3 = _XT[3][_SBOX]
_ZL = np.zeros(256, dtype=np.uint8)
_T01 = _pair_table(_pack_table(_S2, _SBOX, _SBOX, _S3), _pack_table(_S3, _S2, _SBOX, _SBOX))
_T23 = _pair_table(_pack_table(_SBOX, _S3, _S2, _SBOX), _pack_table(_SBOX, _SBOX, _S3, _S2))
_TS01 = _pair_table(_pack_table(_SBOX, _ZL, _ZL, _ZL), _pack_table(_ZL, _SBOX, _ZL, _ZL))
_TS23 = _pair_table(_pack_table(_ZL, _ZL, _SBOX, _ZL), _pack_table(_ZL, _ZL, _ZL, _SBOX))

#: Row r of every column word: ANDed out of the row-rotated view r.
_ROW_MASKS = tuple(np.uint32(0xFF << 8 * row) for row in range(4))

#: Blocks per pass through the rounds; a pass holds 124 bytes of
#: temporaries per block (about 4 MiB at this size).  Larger chunks spend
#: fewer interpreter steps per byte, which counts when the batch pool runs
#: two encryptions at once and they take turns on the GIL between numpy
#: calls: two concurrent 1 MiB keystreams ran fastest at this size (2-core
#: host; 16,384 and 8,192 blocks were 10-25% slower, the whole megabyte too).
_CHUNK_BLOCKS = 32768

# ShiftRows permutation on the 16-byte state in column-major (FIPS) order:
# byte index = 4*col + row; row r rotates left by r columns.
_SHIFT_ROWS = np.array(
    [4 * ((c + r) % 4) + r for c in range(4) for r in range(4)], dtype=np.intp
)
_INV_SHIFT_ROWS = np.argsort(_SHIFT_ROWS)

_RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36, 0x6C, 0xD8)


@lru_cache(maxsize=128)
def _expand_key(key: bytes) -> np.ndarray:
    """FIPS 197 key schedule; returns (rounds+1, 16) uint8 round keys.

    Cached per key: archives encrypt many segments under one key, and the
    schedule is pure-Python (the slowest part of a short AES call).  The
    returned array is frozen read-only so cache hits cannot be corrupted
    by a caller mutating it in place.
    """
    if len(key) == 16:
        n_k, rounds = 4, 10
    elif len(key) == 32:
        n_k, rounds = 8, 14
    else:
        raise ParameterError("AES key must be 16 or 32 bytes")

    words = [list(key[4 * i : 4 * i + 4]) for i in range(n_k)]
    total_words = 4 * (rounds + 1)
    for i in range(n_k, total_words):
        temp = list(words[i - 1])
        if i % n_k == 0:
            temp = temp[1:] + temp[:1]
            temp = [int(_SBOX[b]) for b in temp]
            temp[0] ^= _RCON[i // n_k - 1]
        elif n_k > 6 and i % n_k == 4:
            temp = [int(_SBOX[b]) for b in temp]
        words.append([a ^ b for a, b in zip(words[i - n_k], temp)])

    flat = np.array(words, dtype=np.uint8).reshape(rounds + 1, 16)
    flat.setflags(write=False)
    return flat


@lru_cache(maxsize=128)
def _round_key_words(key: bytes) -> np.ndarray:
    """Round keys as (rounds+1, 4) little-endian column words for the core."""
    return _expand_key(key).view("<u4")


def _encrypt_words(
    state: np.ndarray, key_words: np.ndarray, first: int = 1, last: int | None = None
) -> np.ndarray:
    """Run pair-table rounds *first*..*last* (default: to the end) over
    (4, n_blocks) column words.

    *state* (any strides) must already hold the state after round
    ``first - 1``: for a whole encryption, the blocks with round key 0
    folded in.  Returns the blocks as (n_blocks, 4) little-endian words,
    so after the last round the byte view is the ciphertext in block
    order.  Blocks pass through the rounds in chunks of ``_CHUNK_BLOCKS``.
    Each round first copies columns 0-2 into rows 4-6 of the chunk's
    seven-row buffer, so row c of the view ``cols[r:r + 4]`` is column
    c+r: masking row r out of view r gives the ShiftRows-order words,
    built as a low half (rows 0, 1) and a high half (rows 2, 3) that are
    intp gather indices into the pair tables.
    """
    rounds = key_words.shape[0] - 1
    last = rounds if last is None else last
    n = state.shape[1]
    out = np.empty((n, 4), dtype="<u4")
    size = min(n, _CHUNK_BLOCKS)
    cols_buf = np.empty(7 * size, dtype=np.uint32)
    half_buf = np.empty(8 * size, dtype=np.uint32)
    index_buf = np.empty(8 * size, dtype=np.intp)
    for start in range(0, n, _CHUNK_BLOCKS):
        width = min(_CHUNK_BLOCKS, n - start)
        cols = cols_buf[: 7 * width].reshape(7, width)
        half, masked = half_buf[: 8 * width].reshape(2, 4, width)
        low, high = index_buf[: 8 * width].reshape(2, 4, width)
        words = cols[:4]
        words[...] = state[:, start : start + width]
        for rnd in range(first, last + 1):
            cols[4:] = cols[:3]
            np.bitwise_and(cols[0:4], _ROW_MASKS[0], out=half)
            np.bitwise_and(cols[1:5], _ROW_MASKS[1], out=masked)
            half |= masked
            low[...] = half
            np.bitwise_and(cols[2:6], _ROW_MASKS[2], out=half)
            np.bitwise_and(cols[3:7], _ROW_MASKS[3], out=masked)
            half |= masked
            np.right_shift(half, 16, out=high)
            t01, t23 = (_T01, _T23) if rnd < rounds else (_TS01, _TS23)
            # Indices are intp and in range: "wrap" skips the cast and the
            # buffered bounds check of the default mode.
            np.take(t01, low, out=words, mode="wrap")
            np.take(t23, high, out=half, mode="wrap")
            words ^= half
            words ^= key_words[rnd][:, None]
        out[start : start + width] = words.T
    return out


def _inv_mix_columns(state: np.ndarray) -> np.ndarray:
    s = state.reshape(-1, 4, 4)
    a0, a1, a2, a3 = s[:, :, 0], s[:, :, 1], s[:, :, 2], s[:, :, 3]
    t9, t11, t13, t14 = _XT[9], _XT[11], _XT[13], _XT[14]
    out = np.empty_like(s)
    out[:, :, 0] = t14[a0] ^ t11[a1] ^ t13[a2] ^ t9[a3]
    out[:, :, 1] = t9[a0] ^ t14[a1] ^ t11[a2] ^ t13[a3]
    out[:, :, 2] = t13[a0] ^ t9[a1] ^ t14[a2] ^ t11[a3]
    out[:, :, 3] = t11[a0] ^ t13[a1] ^ t9[a2] ^ t14[a3]
    return out.reshape(-1, 16)


def aes_encrypt_blocks(key: bytes, blocks: np.ndarray) -> np.ndarray:
    """Encrypt an (n, 16) uint8 array of blocks under *key*."""
    whitened = blocks ^ _expand_key(key)[0]
    out = _encrypt_words(whitened.view("<u4").T, _round_key_words(key))
    return out.view(np.uint8)


def aes_decrypt_blocks(key: bytes, blocks: np.ndarray) -> np.ndarray:
    """Decrypt an (n, 16) uint8 array of blocks under *key*."""
    round_keys = _expand_key(key)
    rounds = round_keys.shape[0] - 1
    state = blocks ^ round_keys[rounds]
    state = state[:, _INV_SHIFT_ROWS]
    state = _INV_SBOX[state]
    for rnd in range(rounds - 1, 0, -1):
        state ^= round_keys[rnd]
        state = _inv_mix_columns(state)
        state = state[:, _INV_SHIFT_ROWS]
        state = _INV_SBOX[state]
    return state ^ round_keys[0]


def aes_encrypt_block(key: bytes, block: bytes) -> bytes:
    """Single-block convenience wrapper (used by tests and the AONT)."""
    if len(block) != BLOCK_SIZE:
        raise ParameterError("AES block must be 16 bytes")
    arr = np.frombuffer(block, dtype=np.uint8).reshape(1, 16)
    return aes_encrypt_blocks(key, arr).tobytes()  # noqa: ARCH008 -- 16-byte API boundary


def aes_decrypt_block(key: bytes, block: bytes) -> bytes:
    if len(block) != BLOCK_SIZE:
        raise ParameterError("AES block must be 16 bytes")
    arr = np.frombuffer(block, dtype=np.uint8).reshape(1, 16)
    return aes_decrypt_blocks(key, arr).tobytes()  # noqa: ARCH008 -- 16-byte API boundary


def _as_uint8_array(data) -> np.ndarray:
    """View bytes-like *data* as a flat uint8 array without copying."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8 or data.ndim != 1:
            raise ParameterError("CTR data array must be a flat uint8 array")
        return data
    return np.frombuffer(data, dtype=np.uint8)


#: Shortest message (in blocks) whose keystream caches rounds 1-2.  The
#: probe and the second pass through the rounds cost about 25 us of numpy
#: calls whatever the size, which two rounds saved per block repay from
#: about 1,300 blocks (2-core host, AES-256: 1,024 blocks ran 1-2% slower
#: cached, 2,048 blocks 3-4% faster, 65,537 blocks 12% faster).
_ROUND_CACHE_MIN_BLOCKS = 2048


def _counter_state(key_words: np.ndarray, nonce: bytes, counters: np.ndarray) -> np.ndarray:
    """Counter blocks ``nonce || counter`` as (4, n) column words with round
    key 0 folded in: the three nonce words broadcast, only the counter word
    varies.  *counters* is a ``">u4"`` array, so its little-endian view is
    the counter word."""
    state = np.empty((4, counters.size), dtype=np.uint32)
    state[:3] = (np.frombuffer(nonce, dtype="<u4") ^ key_words[0, :3])[:, None]
    state[3] = counters.view("<u4") ^ key_words[0, 3]
    return state


def _ctr_keystream(key_words: np.ndarray, nonce: bytes, first: int, n: int) -> np.ndarray:
    """Keystream blocks for counters *first*..*first* + n - 1, as (n, 4) words.

    Rounds 1-2 are computed per counter low byte and per 256-counter
    group, not per block.  The counter's low byte is row 3 of column 3,
    which ShiftRows sends to column 0, so after round 1 column 0 depends
    only on the low byte and columns 1-3 only on the high 24 bits (the
    group).  Round 2 builds each output column from one byte of every
    column, so the state after round 2 is ``A(low) ^ B(group) ^ rk2``:
    with ``S`` the state after round 2, ``S(l, g) = S(l, g0) ^ (S(0, g) ^
    S(0, g0))``.  A probe of every low byte under the first group g0 plus
    low byte 0 under each later group (256 + groups - 1 blocks; 512 for a
    1 MiB AONT body) gives both terms, one broadcast XOR gives every
    block's round-2 state, and only rounds 3..Nr run per block.  Messages
    under ``_ROUND_CACHE_MIN_BLOCKS`` run every round per block.
    """
    if n < _ROUND_CACHE_MIN_BLOCKS:
        counters = np.arange(first, first + n, dtype=">u4")
        return _encrypt_words(_counter_state(key_words, nonce, counters), key_words)
    group0 = first >> 8
    groups = ((first + n - 1) >> 8) - group0 + 1
    probe = np.empty(256 + groups - 1, dtype=">u4")
    probe[:256] = np.arange(group0 << 8, (group0 + 1) << 8)
    probe[256:] = np.arange(group0 + 1, group0 + groups) << 8
    after2 = _encrypt_words(_counter_state(key_words, nonce, probe), key_words, last=2).T
    group_terms = np.zeros((4, groups, 1), dtype=np.uint32)
    np.bitwise_xor(after2[:, 256:], after2[:, :1], out=group_terms[:, 1:, 0])
    state = (after2[:, None, :256] ^ group_terms).reshape(4, groups << 8)
    offset = first & 0xFF
    return _encrypt_words(state[:, offset : offset + n], key_words, first=3)


def aes_ctr_transform(
    key: bytes, nonce: bytes, data, initial_counter: int = 0, *, out: np.ndarray | None = None
) -> np.ndarray:
    """CTR encrypt/decrypt *data* (bytes-like or uint8 array) as a uint8 array.

    Array-native sibling of :func:`aes_ctr_xor`: the input is viewed, not
    copied, and the result stays an ndarray so downstream stages (AONT
    packaging, RS row splitting) can keep handing buffers along without
    ``bytes()`` round-trips.  With *out* (a writable flat uint8 array of
    the data's length, which may be *data* itself) the result is written
    there and *out* is returned.
    """
    if len(nonce) != 12:
        raise ParameterError("AES-CTR nonce must be 12 bytes")
    buf = _as_uint8_array(data)
    length = buf.size
    if out is not None and (
        not isinstance(out, np.ndarray)
        or out.dtype != np.uint8
        or out.shape != (length,)
        or not out.flags.writeable
    ):
        raise ParameterError(f"AES-CTR out must be a flat uint8 array of {length} bytes")
    if length == 0:
        return np.empty(0, dtype=np.uint8) if out is None else out
    n_blocks = -(-length // BLOCK_SIZE)
    if initial_counter < 0:
        raise ParameterError("AES-CTR initial counter must be non-negative")
    if initial_counter + n_blocks > 1 << 32:
        raise ParameterError("AES-CTR counter would overflow")
    _metrics.inc("crypto_cipher_calls_total", cipher="aes-ctr")
    _metrics.inc("crypto_cipher_bytes_total", length, cipher="aes-ctr")
    keystream = _ctr_keystream(_round_key_words(key), nonce, initial_counter, n_blocks)
    stream = keystream.view(np.uint8).reshape(-1)[:length]
    return np.bitwise_xor(stream, buf, out=stream if out is None else out)


def aes_ctr_xor(key: bytes, nonce: bytes, data: bytes, initial_counter: int = 0) -> bytes:
    """Encrypt/decrypt *data* in CTR mode (its own inverse)."""
    if len(data) == 0:
        return b""
    out = aes_ctr_transform(key, nonce, data, initial_counter)
    return out.tobytes()  # noqa: ARCH008 -- bytes API boundary


#: Serializes key-schedule cache maintenance; see the kernel's
#: ``_MAINTENANCE_LOCK`` for the contract (lookups stay lock-free, clears
#: are atomic per-cache, the lock keeps two sweeps from interleaving).
_KEY_CACHE_LOCK = threading.Lock()


def clear_key_caches() -> None:
    """Drop cached AES key schedules (for cold-path benchmarking).

    Safe while encrypting threads are in flight: schedules are immutable
    (frozen ndarrays) and pure functions of the key, so a racing encryption
    either keeps the schedule it already resolved or rebuilds an identical
    one.  The lock serializes whole sweeps so both caches clear as a unit.
    """
    with _KEY_CACHE_LOCK:
        _round_key_words.cache_clear()
        _expand_key.cache_clear()


class AesCtrCipher:
    """Cipher-interface wrapper: AES-256 in CTR mode by default."""

    nonce_size = 12

    def __init__(self, key_size: int = 32):
        if key_size not in (16, 32):
            raise ParameterError("AES key size must be 16 or 32 bytes")
        self.key_size = key_size
        self.name = "aes-128-ctr" if key_size == 16 else "aes-256-ctr"

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        self._check_key(key)
        return aes_ctr_xor(key, nonce, plaintext)

    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
        self._check_key(key)
        return aes_ctr_xor(key, nonce, ciphertext)

    def _check_key(self, key: bytes) -> None:
        if len(key) != self.key_size:
            raise ParameterError(
                f"{self.name} requires a {self.key_size}-byte key, got {len(key)}"
            )


register_primitive(
    name="aes-128-ctr",
    kind=PrimitiveKind.CIPHER,
    description="AES-128 in counter mode (FIPS 197)",
    hardness_assumption="AES is a PRP (two decades of failed cryptanalysis)",
)
register_primitive(
    name="aes-256-ctr",
    kind=PrimitiveKind.CIPHER,
    description="AES-256 in counter mode (FIPS 197)",
    hardness_assumption="AES is a PRP (two decades of failed cryptanalysis)",
)
