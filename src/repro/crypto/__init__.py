"""From-scratch cryptographic primitives and the obsolescence registry.

Everything the surveyed systems need is implemented here rather than imported
from a crypto library, because the paper's core argument is about primitives
*changing status over time*: each primitive registers itself with
:mod:`repro.crypto.registry`, and the break-timeline machinery can flip any
computationally secure primitive to "broken" at a simulated epoch, which the
archival systems and adversary harnesses then observe.

Submodules
----------
- ``sha256`` -- SHA-256 (pure-Python reference, cross-checked against
  hashlib, which backs the fast path).
- ``hmac_`` / ``kdf`` -- HMAC and HKDF on top of SHA-256.
- ``chacha20`` -- numpy-vectorized ChaCha20 stream cipher.
- ``aes`` -- table-driven AES-128/256 with a vectorized CTR mode.
- ``feistel`` -- deliberately weak 64-bit "LegacyFeistel" cipher standing in
  for DES-era constructions the paper lists as historically broken.
- ``otp`` -- the one-time pad (perfect secrecy baseline).
- ``cascade`` -- cascade-cipher robust combiner (ArchiveSafeLT's mechanism).
- ``aont`` -- all-or-nothing transform in the AONT-RS formulation.
- ``signatures`` -- Lamport and Winternitz one-time signatures, the Merkle
  signature scheme over Winternitz keys, and a deliberately small toy RSA.
- ``commitments`` -- Pedersen (IT-hiding) and hash (IT-binding) commitments.
- ``drbg`` -- deterministic ChaCha20-based random generator.
- ``registry`` -- primitive metadata + the cryptographic break timeline.
"""

from repro.crypto.registry import (
    BreakTimeline,
    PrimitiveInfo,
    PrimitiveKind,
    global_registry,
)
from repro.crypto.sha256 import sha256, sha256_pure
from repro.crypto.chacha20 import ChaCha20Cipher
from repro.crypto.aes import AesCtrCipher
from repro.crypto.feistel import LegacyFeistelCipher
from repro.crypto.otp import OneTimePad
from repro.crypto.cascade import CascadeCipher
from repro.crypto.drbg import DeterministicRandom

__all__ = [
    "BreakTimeline",
    "PrimitiveInfo",
    "PrimitiveKind",
    "global_registry",
    "sha256",
    "sha256_pure",
    "ChaCha20Cipher",
    "AesCtrCipher",
    "LegacyFeistelCipher",
    "OneTimePad",
    "CascadeCipher",
    "DeterministicRandom",
]
