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
  "newer, more secure signature" to roll onto a chain.  Kept as the
  surveyed one-time primitive; nothing in the archive signs with it.
- :class:`WinternitzSignature` -- Winternitz one-time signatures (w = 4,
  RFC 8391's WOTS without the WOTS+ bitmasks): 133 SHA-256 hash chains of
  3 steps per key, a 4,256-byte signature from which the verifier
  recomputes the public key.
- :class:`MerkleSignature` -- a Merkle tree over 2^h Winternitz keys,
  turning one-time signatures into a many-time scheme with one public root.
  Each key keeps its chain levels from keygen, so signing is a gather, and
  drops them once it has signed.
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

#: Winternitz w = 4: a digit is 2 bits and a chain has w - 1 = 3 hash steps.
_WOTS_STEPS = 3
_WOTS_MESSAGE_DIGITS = _HASH_BITS // 2
#: The checksum, sum(3 - digit) over the message digits, is at most 384 and
#: takes 5 base-4 digits, most significant first.
_WOTS_CHECKSUM_SHIFTS = (8, 6, 4, 2, 0)
_WOTS_CHAINS = _WOTS_MESSAGE_DIGITS + len(_WOTS_CHECKSUM_SHIFTS)
_WOTS_CHAIN_INDEX = np.arange(_WOTS_CHAINS)
#: The four base-4 digits of each byte value, most significant first.
_BYTE_DIGITS = np.array(
    [[(byte >> shift) & 3 for shift in (6, 4, 2, 0)] for byte in range(256)], dtype=np.intp
)
_WOTS_CHAIN_INDEX.setflags(write=False)
_BYTE_DIGITS.setflags(write=False)
#: One Winternitz key level, public key or signature: 32 bytes per chain.
WOTS_SIGNATURE_BYTES = 32 * _WOTS_CHAINS


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


# -- Winternitz one-time signatures ---------------------------------------------


def _wots_digits(message: bytes) -> np.ndarray:
    """The chain position a signature of *message* reveals, per chain:
    H(message) as 128 base-4 digits, then the 5-digit checksum."""
    digest = np.frombuffer(sha256(message), dtype=np.uint8)
    digits = np.empty(_WOTS_CHAINS, dtype=np.intp)
    digits[:_WOTS_MESSAGE_DIGITS] = _BYTE_DIGITS[digest].reshape(-1)
    checksum = _WOTS_STEPS * _WOTS_MESSAGE_DIGITS - int(digits[:_WOTS_MESSAGE_DIGITS].sum())
    digits[_WOTS_MESSAGE_DIGITS:] = [(checksum >> shift) & 3 for shift in _WOTS_CHECKSUM_SHIFTS]
    return digits


class WinternitzSignature:
    """Winternitz one-time signatures over SHA-256 (w = 4, no bitmasks).

    A key is 133 hash chains; one chain step is SHA-256 of a 32-byte value.
    ``levels[j, i]`` is chain ``i`` after ``j`` steps: level 0 is secret,
    level 3 (the chain ends) is the public key.  A signature reveals each
    chain at its digit; the verifier completes every chain to the end.
    """

    name = "winternitz-ots"

    @staticmethod
    def keygen(secrets: bytes) -> tuple[np.ndarray, bytes]:
        """Levels and public keys of the keys whose level-0 values are
        *secrets* (``WOTS_SIGNATURE_BYTES`` per key): a ``(keys, 4, 133,
        32)`` array and the keys' chain ends, concatenated.  One
        :func:`sha256_rows` pass per chain step, over every key at once."""
        levels = [secrets]
        for _ in range(_WOTS_STEPS):
            levels.append(sha256_rows(levels[-1], 32))
        arrays = [
            np.frombuffer(level, dtype=np.uint8).reshape(-1, _WOTS_CHAINS, 32) for level in levels
        ]
        return np.stack(arrays, axis=1), levels[-1]

    @staticmethod
    def sign(levels: np.ndarray, message: bytes) -> bytes:
        """Each chain's value at its digit: a gather from the key's levels."""
        return levels[_wots_digits(message), _WOTS_CHAIN_INDEX].tobytes()

    @staticmethod
    def chain_ends(message: bytes, signature: bytes) -> bytes | None:
        """The chain ends, that is the public key, that *signature*
        completes to under *message*; None for a signature of the wrong
        length."""
        if len(signature) != WOTS_SIGNATURE_BYTES:
            return None
        values = np.frombuffer(signature, dtype=np.uint8).reshape(_WOTS_CHAINS, 32).copy()
        steps_left = _WOTS_STEPS - _wots_digits(message)
        for step in range(_WOTS_STEPS):
            chains = np.flatnonzero(steps_left > step)
            if chains.size:
                values[chains] = np.frombuffer(
                    sha256_rows(values[chains], 32), dtype=np.uint8
                ).reshape(-1, 32)
        return values.tobytes()

    @staticmethod
    def verify(public: bytes, message: bytes, signature: bytes) -> bool:
        return WinternitzSignature.chain_ends(message, signature) == public


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
    """Merkle signature scheme: a tree over 2^h Winternitz one-time keys.

    The public key is the Merkle root; a leaf is SHA-256 of one key's 133
    chain ends.  A signature is one Winternitz signature plus its
    authentication path; the verifier recomputes the leaf from it.  Keys
    are used in order (:attr:`remaining` counts what is left).

    All 2^h keys' secrets come from one DRBG draw, and keygen hashes each
    chain step of every key in one :func:`sha256_rows` pass.  Each key
    keeps its four chain levels (``4 * WOTS_SIGNATURE_BYTES`` bytes) in a
    buffer of its own, so signing is a gather; signing then zeroes and
    drops that buffer, so a used key can neither sign again nor stay
    reachable from the signer.
    """

    name = "merkle-wots"

    def __init__(self, height: int, rng: DeterministicRandom):
        if not 1 <= height <= 12:
            raise ParameterError("tree height must be in [1, 12]")
        self.height = height
        levels, publics = WinternitzSignature.keygen(rng.bytes(WOTS_SIGNATURE_BYTES << height))
        self._keys: list[np.ndarray | None] = [key.copy() for key in levels]
        # Each tree level is its nodes' 32-byte digests, concatenated.
        self._levels = [sha256_rows(publics, WOTS_SIGNATURE_BYTES)]
        while len(self._levels[-1]) > 32:
            self._levels.append(_merkle_level(self._levels[-1]))
        self.public_root = self._levels[-1]
        self._next_index = 0

    @property
    def remaining(self) -> int:
        """Keys that have not signed yet."""
        return (1 << self.height) - self._next_index

    def sign(self, message: bytes) -> dict:
        if self.remaining == 0:
            raise KeyManagementError("Merkle signature keys exhausted")
        index = self._next_index
        self._next_index += 1
        key, self._keys[index] = self._keys[index], None
        ots_signature = WinternitzSignature.sign(key, message)
        key.fill(0)
        path = []
        node = index
        for level in self._levels[:-1]:
            sibling = node ^ 1
            path.append(level[32 * sibling : 32 * (sibling + 1)])
            node //= 2
        return {"index": index, "ots_signature": ots_signature, "auth_path": path}

    @staticmethod
    def verify(public_root: bytes, message: bytes, signature: dict) -> bool:
        try:
            index = signature["index"]
            ots_signature = signature["ots_signature"]
            path = signature["auth_path"]
        except (TypeError, KeyError):
            return False
        # The path fixes the tree height; an index past 2^height would walk
        # the same path (only its low bits are read) and make a second
        # encoding of the same signature.
        if not isinstance(index, int) or not 0 <= index < 1 << len(path):
            return False
        public = WinternitzSignature.chain_ends(message, ots_signature)
        if public is None:
            return False
        node_hash = sha256(public)
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
    name="winternitz-ots",
    kind=PrimitiveKind.SIGNATURE,
    description="Winternitz one-time signatures (w = 4) over SHA-256",
    hardness_assumption=(
        "one-wayness of SHA-256 on 32-byte chain values and collision resistance "
        "of SHA-256 as the message hash"
    ),
)
register_primitive(
    name="merkle-wots",
    kind=PrimitiveKind.SIGNATURE,
    description="Merkle tree of Winternitz one-time signatures",
    hardness_assumption="collision resistance of SHA-256",
)
register_primitive(
    name="toy-rsa",
    kind=PrimitiveKind.SIGNATURE,
    description="Textbook RSA signatures with a small modulus",
    hardness_assumption="hardness of factoring (deliberately falsified at this size)",
    historically_broken=False,
)
