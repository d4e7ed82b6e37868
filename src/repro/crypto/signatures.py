"""Digital signatures for long-term integrity.

Section 3.3 of the paper: "computationally secure digital signatures are
widely used for integrity protection.  A single signature alone may
eventually be broken, but long-term integrity can be achieved with a chain of
digitally signed timestamps."  The timestamp chain itself lives in
:mod:`repro.integrity.timestamp`; this module supplies the signature schemes
it rotates through:

- :class:`LamportSignature` -- hash-based one-time signatures.  Hash-based
  schemes matter here because their assumption (one-wayness of the hash) is
  the weakest of all computational assumptions, making them the natural
  "newer, more secure signature" to roll onto a chain.
- :class:`MerkleSignature` -- a Merkle tree over many Lamport key pairs,
  turning one-time signatures into a many-time scheme with one public root.
- :class:`ToyRsaSignature` -- textbook RSA with deliberately small moduli,
  the designated "old scheme that gets broken": :func:`factor_modulus`
  actually factors it, letting the adversary harness forge signatures after
  the break epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.crypto.sha256 import sha256, sha256_rows
from repro.errors import IntegrityError, KeyManagementError, ParameterError
from repro.gmath.primes import random_prime
from repro.security import redact_secret

_HASH_BITS = 256
#: One Lamport key (secret or public): a 32-byte value for each (bit, value).
_KEY_BYTES = 2 * 32 * _HASH_BITS


# -- Lamport one-time signatures ------------------------------------------------


@dataclass(frozen=True)
class LamportKeyPair:
    """One-time key pair: 2x256 secret preimages and their hashes.

    Both are flat slabs: the value for bit ``i`` and bit value ``v`` is the
    32 bytes at offset ``32 * (2 * i + v)``.
    """

    secret: bytes
    public: bytes

    def __repr__(self) -> str:
        return (
            f"LamportKeyPair(secret=<{_HASH_BITS} pairs, {redact_secret(self.secret)}>, "
            f"public=<{_HASH_BITS} pairs>)"
        )


def _reveal(key: bytes, message: bytes) -> bytes:
    """The 32-byte entry of *key* selected by each bit of H(message)."""
    bits = np.unpackbits(np.frombuffer(sha256(message), dtype=np.uint8))
    entries = np.frombuffer(key, dtype=np.uint8).reshape(_HASH_BITS, 2, 32)
    return entries[np.arange(_HASH_BITS), bits].tobytes()


class LamportSignature:
    """Lamport-Diffie one-time signatures over SHA-256."""

    name = "lamport-ots"

    @staticmethod
    def generate(rng: DeterministicRandom) -> LamportKeyPair:
        secret = rng.bytes(_KEY_BYTES)
        return LamportKeyPair(secret=secret, public=sha256_rows(secret, 32))

    @staticmethod
    def sign(key_pair: LamportKeyPair, message: bytes) -> bytes:
        return _reveal(key_pair.secret, message)

    @staticmethod
    def verify(public: bytes, message: bytes, signature: bytes) -> bool:
        if len(signature) != 32 * _HASH_BITS or len(public) != _KEY_BYTES:
            return False
        # Every compared value is public: the revealed preimages' hashes
        # against the public key.
        return sha256_rows(signature, 32) == _reveal(public, message)

    @staticmethod
    def public_key_digest(public: bytes) -> bytes:
        return sha256(public)


# -- Merkle many-time signatures ---------------------------------------------------


def _merkle_parent(left: bytes, right: bytes) -> bytes:
    return sha256(b"\x01" + left + right)


def _merkle_level(level: bytes) -> bytes:
    """:func:`_merkle_parent` of each adjacent pair of 32-byte nodes."""
    pairs = np.frombuffer(level, dtype=np.uint8).reshape(-1, 64)
    prefixed = np.empty((len(pairs), 65), dtype=np.uint8)
    prefixed[:, 0] = 1
    prefixed[:, 1:] = pairs
    return sha256_rows(prefixed, 65)


class MerkleSignature:
    """Merkle signature scheme: a tree over 2^h Lamport key pairs.

    The public key is the Merkle root; each signature reveals one Lamport
    signature plus its authentication path.  Key pairs are consumed in order
    and never reused (:attr:`remaining` tracks the budget).

    All 2^h key pairs come from one DRBG draw, and they are held as two
    contiguous slabs (secrets, publics; ``_KEY_BYTES`` per key pair).  The
    DRBG serves one sequential keystream, so the keys are the same as
    generating the pairs one by one.
    """

    name = "merkle-lamport"

    def __init__(self, height: int, rng: DeterministicRandom):
        if not 1 <= height <= 12:
            raise ParameterError("tree height must be in [1, 12]")
        self.height = height
        self._secrets = rng.bytes(_KEY_BYTES << height)
        self._publics = sha256_rows(self._secrets, 32)
        # Each level is its nodes' 32-byte digests, concatenated.
        self._levels = [sha256_rows(self._publics, _KEY_BYTES)]
        while len(self._levels[-1]) > 32:
            self._levels.append(_merkle_level(self._levels[-1]))
        self.public_root = self._levels[-1]
        self._next_index = 0

    @property
    def remaining(self) -> int:
        return (1 << self.height) - self._next_index

    def sign(self, message: bytes) -> dict:
        if self.remaining == 0:
            raise KeyManagementError("Merkle signature key pairs exhausted")
        index = self._next_index
        self._next_index += 1
        key = slice(index * _KEY_BYTES, (index + 1) * _KEY_BYTES)
        key_pair = LamportKeyPair(secret=self._secrets[key], public=self._publics[key])
        path = []
        node = index
        for level in self._levels[:-1]:
            sibling = node ^ 1
            path.append(level[32 * sibling : 32 * (sibling + 1)])
            node //= 2
        return {
            "index": index,
            "ots_signature": LamportSignature.sign(key_pair, message),
            "ots_public": key_pair.public,
            "auth_path": path,
        }

    @staticmethod
    def verify(public_root: bytes, message: bytes, signature: dict) -> bool:
        try:
            index = signature["index"]
            ots_signature = signature["ots_signature"]
            ots_public = signature["ots_public"]
            path = signature["auth_path"]
        except (TypeError, KeyError):
            return False
        # The path fixes the tree height; an index past 2^height would walk
        # the same path (only its low bits are read) and make a second
        # encoding of the same signature.
        if not isinstance(index, int) or not 0 <= index < 1 << len(path):
            return False
        if not LamportSignature.verify(ots_public, message, ots_signature):
            return False
        node_hash = LamportSignature.public_key_digest(ots_public)
        node = index
        for sibling in path:
            if node % 2 == 0:
                node_hash = _merkle_parent(node_hash, sibling)
            else:
                node_hash = _merkle_parent(sibling, node_hash)
            node //= 2
        # The Merkle public-key root is, definitionally, public key material;
        # both compared values are known to any verifier.
        return node_hash == public_root  # noqa: ARCH004 - public key root


# -- Toy RSA (the breakable scheme) -------------------------------------------------


@dataclass(frozen=True)
class RsaKeyPair:
    n: int
    e: int
    d: int

    @property
    def public(self) -> tuple[int, int]:
        return (self.n, self.e)


class ToyRsaSignature:
    """Textbook RSA-with-hash signatures over a *small* modulus.

    The modulus defaults to 64 bits so that :func:`factor_modulus` succeeds
    in milliseconds -- the library's concrete model of "signature scheme
    broken by cryptanalytic advance" (Shor's algorithm, improved NFS, ...).
    """

    name = "toy-rsa"

    def __init__(self, modulus_bits: int = 64):
        if not 16 <= modulus_bits <= 2048:
            raise ParameterError("modulus_bits must be in [16, 2048]")
        self.modulus_bits = modulus_bits

    def generate(self, rng: DeterministicRandom) -> RsaKeyPair:
        half = self.modulus_bits // 2
        while True:
            p = random_prime(half, rng)
            q = random_prime(self.modulus_bits - half, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            e = 65537
            if math.gcd(e, phi) != 1:
                continue
            return RsaKeyPair(n=n, e=e, d=pow(e, -1, phi))

    def _digest_int(self, message: bytes, n: int) -> int:
        return int.from_bytes(sha256(message), "big") % n

    def sign(self, key: RsaKeyPair, message: bytes) -> int:
        return pow(self._digest_int(message, key.n), key.d, key.n)

    def verify(self, public: tuple[int, int], message: bytes, signature: int) -> bool:
        n, e = public
        # RSA verification operates entirely on public values (signature,
        # public exponent, modulus, message digest) -- nothing secret leaks
        # through comparison timing.
        return pow(signature, e, n) == self._digest_int(message, n)  # noqa: ARCH004 - public verification math

    # -- the attack -------------------------------------------------------------

    def forge_after_break(
        self, public: tuple[int, int], message: bytes
    ) -> int:
        """Forge a signature by factoring the modulus (the 'broken' world)."""
        n, e = public
        p = factor_modulus(n)
        q = n // p
        d = pow(e, -1, (p - 1) * (q - 1))
        return pow(self._digest_int(message, n), d, n)


def factor_modulus(n: int) -> int:
    """Pollard's rho; practical for the toy modulus sizes used here."""
    if n % 2 == 0:
        return 2
    x, y, d = 2, 2, 1
    c = 1
    while d in (1, n):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        c += 1
        if c > 50:
            raise IntegrityError(f"failed to factor {n}")
    return d


register_primitive(
    name="lamport-ots",
    kind=PrimitiveKind.SIGNATURE,
    description="Lamport-Diffie one-time signatures over SHA-256",
    hardness_assumption="one-wayness of SHA-256",
)
register_primitive(
    name="merkle-lamport",
    kind=PrimitiveKind.SIGNATURE,
    description="Merkle tree of Lamport one-time signatures",
    hardness_assumption="collision resistance of SHA-256",
)
register_primitive(
    name="toy-rsa",
    kind=PrimitiveKind.SIGNATURE,
    description="Textbook RSA signatures with a small modulus",
    hardness_assumption="hardness of factoring (deliberately falsified at this size)",
    historically_broken=False,
)
