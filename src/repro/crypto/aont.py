"""All-or-nothing transform (AONT), in the AONT-RS formulation.

Paper, Section 3.2 (describing Resch-Plank AONT-RS as deployed in
Cleversafe):

    "The AONT-RS scheme begins by splitting the data to be encrypted into
    equal-sized blocks m_1, ..., m_s.  Then, for each i the scheme computes
    ciphertext blocks c_i = m_i XOR Enc_k(i + 1), and a final ciphertext
    block c_{s+1} = k XOR h(c_1, ..., c_s)."

Properties this module makes testable:

- A PPT attacker holding *all* of the package inverts it with no key
  management at all (the key is inside, masked by the digest).
- An attacker missing any single byte range learns nothing -- assuming Enc
  and h are unbroken.  If either breaks, "an attacker trivially 'knows the
  key' and can recover plaintext from even a single share"; the
  :func:`aont_break_open` attack implements exactly that failure mode using
  the weak legacy cipher.

The dispersal half (erasure-coding the package across nodes) lives in
:mod:`repro.secretsharing.aontrs`.
"""

from __future__ import annotations

import numpy as np

from repro.crypto.aes import aes_ctr_transform
from repro.crypto.feistel import LegacyFeistelCipher
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.crypto.sha256 import sha256
from repro.errors import IntegrityError, ParameterError
from repro.crypto.drbg import DeterministicRandom
from repro.obs import metrics as _metrics

KEY_SIZE = 32
_ZERO_NONCE = b"\x00" * 12
#: Mask stream starts at counter 1, matching the paper's Enc_k(i + 1).
_COUNTER_BASE = 1


def aont_package_array(data, rng: DeterministicRandom) -> np.ndarray:
    """Apply the all-or-nothing transform, returning a uint8 package array.

    *data* may be bytes-like or a flat uint8 array; it is viewed, never
    copied.  The body (``c_1..c_s``) is the slab CTR transform of the data,
    written by the cipher straight into the single output buffer that also
    receives the final ``k XOR h(c_1..c_s)`` block, so packaging writes
    each body byte once regardless of object size.
    """
    key = rng.bytes(KEY_SIZE)
    buf = data if isinstance(data, np.ndarray) else np.frombuffer(data, dtype=np.uint8)
    length = buf.size
    package = np.empty(length + KEY_SIZE, dtype=np.uint8)
    body = package[:length]
    aes_ctr_transform(key, _ZERO_NONCE, buf, initial_counter=_COUNTER_BASE, out=body)
    digest = sha256(body)
    package[length:] = np.frombuffer(key, dtype=np.uint8) ^ np.frombuffer(
        digest, dtype=np.uint8
    )
    _metrics.inc("crypto_aont_ops_total", direction="package")
    _metrics.inc("crypto_aont_bytes_total", length, direction="package")
    return package


def aont_package(data: bytes, rng: DeterministicRandom) -> bytes:
    """Apply the all-or-nothing transform.

    Returns ``c_1..c_s || c_{s+1}`` where the final 32-byte block is
    ``k XOR h(c_1..c_s)``.  The package is exactly ``len(data) + 32`` bytes:
    the AONT itself adds only the embedded key (storage-efficient; the real
    overhead of AONT-RS comes from the later erasure coding).
    """
    return aont_package_array(data, rng).tobytes()  # noqa: ARCH008 -- bytes API boundary


def aont_unpackage_array(package) -> np.ndarray:
    """Invert the transform given the *complete* package, as a uint8 array.

    *package* may be bytes-like or a flat uint8 array (e.g. the decoded
    payload straight out of the RS codec); it is viewed, never copied.
    """
    buf = package if isinstance(package, np.ndarray) else np.frombuffer(package, dtype=np.uint8)
    if buf.size < KEY_SIZE:
        raise ParameterError("AONT package shorter than its final block")
    body, final_block = buf[: -KEY_SIZE], buf[-KEY_SIZE:]
    digest = sha256(body)
    # 32-byte key, materialized for the cached AES schedule lookup.
    key = (final_block ^ np.frombuffer(digest, dtype=np.uint8)).tobytes()  # noqa: ARCH008
    _metrics.inc("crypto_aont_ops_total", direction="unpackage")
    _metrics.inc("crypto_aont_bytes_total", body.size, direction="unpackage")
    return aes_ctr_transform(key, _ZERO_NONCE, body, initial_counter=_COUNTER_BASE)


def aont_unpackage(package: bytes) -> bytes:
    """Invert the transform given the *complete* package."""
    return aont_unpackage_array(package).tobytes()  # noqa: ARCH008 -- bytes API boundary


def _xor(a: bytes, b: bytes) -> bytes:
    out = np.frombuffer(a, dtype=np.uint8) ^ np.frombuffer(b[: len(a)], dtype=np.uint8)
    return out.tobytes()  # noqa: ARCH008 -- legacy weak-cipher demo path, not the pipeline


# -- the post-break attack -------------------------------------------------------


def aont_package_weak(data: bytes, rng: DeterministicRandom) -> bytes:
    """AONT built on the broken legacy cipher (for obsolescence experiments).

    Same structure as :func:`aont_package`, but the mask stream comes from
    :class:`LegacyFeistelCipher`, whose effective keyspace is brute-forceable.
    """
    cipher = LegacyFeistelCipher()
    key = rng.bytes(16)
    mask = cipher.encrypt(key, _ZERO_NONCE, b"\x00" * len(data))
    body = _xor(data, mask)
    digest = sha256(body)
    final_block = bytes(  # noqa: ARCH008 -- 16-byte tail of the weak-cipher demo
        k ^ d for k, d in zip(key, digest[:16])
    )
    return body + final_block


def aont_break_open(package: bytes, known_prefix: bytes) -> bytes:
    """Recover plaintext from a weak-cipher package *without* the final block.

    Models the paper's observation: once the underlying cipher is broken, an
    attacker "trivially knows the key" -- here by brute-forcing the legacy
    cipher's keyspace against a known plaintext prefix.  Only the body
    (c_1..c_s) is required; the embedded-key block is not used.
    """
    cipher = LegacyFeistelCipher()
    body = package[:-16] if len(package) >= 16 else package
    if len(known_prefix) < 8:
        raise ParameterError("need at least one 8-byte block of known plaintext")
    target_mask = _xor(body[:8], known_prefix[:8])
    # Mask block 0 is E_k(nonce_prefix || counter=0).
    probe_block = _ZERO_NONCE[:4] + b"\x00\x00\x00\x00"
    key = cipher.recover_key_by_brute_force(probe_block, target_mask)
    if key is None:
        raise IntegrityError("brute force failed: cipher not actually weak enough")
    mask = cipher.encrypt(key, _ZERO_NONCE, b"\x00" * len(body))
    return _xor(body, mask)


register_primitive(
    name="aont",
    kind=PrimitiveKind.CIPHER,
    description="All-or-nothing transform (Resch-Plank formulation)",
    hardness_assumption="AES is a PRP and SHA-256 is preimage-resistant",
)
