"""AES-128/256 from scratch, with a numpy-vectorized T-table CTR mode.

The block cipher follows FIPS 197 exactly (S-box derived from the GF(2^8)
inverse plus the affine map, standard key schedule); correctness is pinned to
the FIPS 197 appendix vectors in the tests.  The encrypt path uses the
classic 32-bit T-table formulation: SubBytes, ShiftRows and MixColumns for
one output column collapse into four table lookups and three XORs on packed
words.  The cipher state for *all* blocks of a message lives in one
``(4, n_blocks)`` uint32 array (column words by block -- transposed so each
word row is contiguous), so a round is four ``np.take`` gathers over the
whole message, not per block.  CTR keystreams are built directly in that
transposed layout: the three nonce words broadcast, only the counter word
varies.  Decryption of raw blocks keeps the straightforward inverse-round
implementation (CTR decryption is the encrypt path; block decryption is
cold).

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
    """Pack four 256-entry byte lanes into one uint32 lookup table.

    Lane *i* lands in memory byte *i* of each word.  Both the tables and the
    cipher state are only ever addressed through byte views in the same
    memory order, and the combining operator is XOR (bytewise), so the word
    values are endian-agnostic.
    """
    lanes = np.stack((l0, l1, l2, l3), axis=1)  # (256, 4) uint8, C-contiguous
    packed = np.ascontiguousarray(lanes).view(np.uint32).reshape(256)
    packed.setflags(write=False)
    return packed


# T-tables: SubBytes + ShiftRows + MixColumns for one output column collapse
# into T0[s0] ^ T1[s1] ^ T2[s2] ^ T3[s3] where s_r is the row-r byte of the
# ShiftRows source column.  TS* are the MixColumns-free final-round tables.
_S2 = _XT[2][_SBOX]
_S3 = _XT[3][_SBOX]
_ZL = np.zeros(256, dtype=np.uint8)
_T0 = _pack_table(_S2, _SBOX, _SBOX, _S3)
_T1 = _pack_table(_S3, _S2, _SBOX, _SBOX)
_T2 = _pack_table(_SBOX, _S3, _S2, _SBOX)
_T3 = _pack_table(_SBOX, _SBOX, _S3, _S2)
_TS0 = _pack_table(_SBOX, _ZL, _ZL, _ZL)
_TS1 = _pack_table(_ZL, _SBOX, _ZL, _ZL)
_TS2 = _pack_table(_ZL, _ZL, _SBOX, _ZL)
_TS3 = _pack_table(_ZL, _ZL, _ZL, _SBOX)

# Column rotations implementing ShiftRows in the transposed word layout:
# the row-r byte of output column c comes from input column (c + r) % 4.
_ROT1 = np.array([1, 2, 3, 0], dtype=np.intp)
_ROT2 = np.array([2, 3, 0, 1], dtype=np.intp)
_ROT3 = np.array([3, 0, 1, 2], dtype=np.intp)

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
    """Round keys as (rounds+1, 4) uint32 column words for the T-table core."""
    return _expand_key(key).view(np.uint32)


def _encrypt_words(state: np.ndarray, key_words: np.ndarray) -> np.ndarray:
    """Run the T-table rounds over a (4, n_blocks) uint32 column-word state.

    Round key 0 must already be folded into *state* (C-contiguous); returns
    a fresh (4, n_blocks) word array holding the final state.  Each round is
    four whole-message gathers: ``bv`` reinterprets the word rows as byte
    lanes, and the ``_ROT*`` row permutations are ShiftRows.
    """
    rounds = key_words.shape[0] - 1
    n = state.shape[1]
    for rnd in range(1, rounds):
        bv = state.view(np.uint8).reshape(4, n, 4)
        words = np.take(_T0, bv[:, :, 0])
        words ^= np.take(_T1, bv[_ROT1, :, 1])
        words ^= np.take(_T2, bv[_ROT2, :, 2])
        words ^= np.take(_T3, bv[_ROT3, :, 3])
        words ^= key_words[rnd][:, None]
        state = words
    bv = state.view(np.uint8).reshape(4, n, 4)
    words = np.take(_TS0, bv[:, :, 0])
    words ^= np.take(_TS1, bv[_ROT1, :, 1])
    words ^= np.take(_TS2, bv[_ROT2, :, 2])
    words ^= np.take(_TS3, bv[_ROT3, :, 3])
    words ^= key_words[rounds][:, None]
    return words


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
    key_words = _round_key_words(key)
    whitened = blocks ^ _expand_key(key)[0]
    state = np.ascontiguousarray(whitened.view(np.uint32).T)
    out = _encrypt_words(state, key_words)
    return np.ascontiguousarray(out.T).view(np.uint8)


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


def _ctr_keystream_words(
    key: bytes, nonce: bytes, n_blocks: int, initial_counter: int
) -> np.ndarray:
    """Transposed (4, n_blocks) uint32 CTR keystream (no validation/metrics).

    The counter state is built directly in column-word layout: the three
    nonce words broadcast across all blocks, only the fourth (big-endian
    counter) word varies, and round key 0 folds in during construction --
    the per-block input is never materialized as byte rows.
    """
    key_words = _round_key_words(key)
    nonce_words = np.frombuffer(nonce, dtype=np.uint32)
    state = np.empty((4, n_blocks), dtype=np.uint32)
    state[0] = nonce_words[0] ^ key_words[0, 0]
    state[1] = nonce_words[1] ^ key_words[0, 1]
    state[2] = nonce_words[2] ^ key_words[0, 2]
    counters = np.arange(initial_counter, initial_counter + n_blocks, dtype=">u4")
    state[3] = counters.view(np.uint32) ^ key_words[0, 3]
    return _encrypt_words(state, key_words)


def _as_uint8_array(data) -> np.ndarray:
    """View bytes-like *data* as a flat uint8 array without copying."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8 or data.ndim != 1:
            raise ParameterError("CTR data array must be a flat uint8 array")
        return data
    return np.frombuffer(data, dtype=np.uint8)


def aes_ctr_transform(key: bytes, nonce: bytes, data, initial_counter: int = 0) -> np.ndarray:
    """CTR encrypt/decrypt *data* (bytes-like or uint8 array) as a uint8 array.

    Array-native sibling of :func:`aes_ctr_xor`: the input is viewed, not
    copied, and the result stays an ndarray so downstream stages (AONT
    packaging, RS row splitting) can keep handing buffers along without
    ``bytes()`` round-trips.
    """
    if len(nonce) != 12:
        raise ParameterError("AES-CTR nonce must be 12 bytes")
    buf = _as_uint8_array(data)
    length = buf.size
    if length == 0:
        return np.empty(0, dtype=np.uint8)
    n_blocks = -(-length // BLOCK_SIZE)
    if initial_counter + n_blocks > 1 << 32:
        raise ParameterError("AES-CTR counter would overflow")
    _metrics.inc("crypto_cipher_calls_total", cipher="aes-ctr")
    _metrics.inc("crypto_cipher_bytes_total", length, cipher="aes-ctr")
    words = _ctr_keystream_words(key, nonce, n_blocks, initial_counter)
    stream = np.ascontiguousarray(words.T).view(np.uint8).reshape(-1)
    out = stream[:length]
    out ^= buf
    return out


def aes_ctr_keystream(key: bytes, nonce: bytes, length: int, initial_counter: int = 0) -> bytes:
    """CTR keystream: 12-byte nonce || 32-bit big-endian block counter."""
    if len(nonce) != 12:
        raise ParameterError("AES-CTR nonce must be 12 bytes")
    if length <= 0:
        return b""
    n_blocks = -(-length // BLOCK_SIZE)
    if initial_counter + n_blocks > 1 << 32:
        raise ParameterError("AES-CTR counter would overflow")
    _metrics.inc("crypto_cipher_calls_total", cipher="aes-ctr")
    _metrics.inc("crypto_cipher_bytes_total", length, cipher="aes-ctr")
    words = _ctr_keystream_words(key, nonce, n_blocks, initial_counter)
    stream = np.ascontiguousarray(words.T).view(np.uint8).reshape(-1)
    return stream[:length].tobytes()  # noqa: ARCH008 -- bytes API boundary


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
