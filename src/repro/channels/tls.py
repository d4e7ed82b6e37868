"""A TLS-like channel: computationally secure, harvestable.

Models the structure of a TLS 1.3-style session without pretending to be
one: an ephemeral Diffie-Hellman exchange in the library's Schnorr group
establishes a session secret, HKDF derives per-message keys, and ChaCha20
encrypts the payload.  The security classification is the point:
confidentiality rests on the DLP assumption plus the cipher, so a harvesting
adversary who records the handshake and the ciphertext decrypts everything
once either falls -- the scenario the paper's Section 3.2 closes with.

Sending does no cipher work: the returned :class:`TlsTransmission` carries
the payload and derives its ChaCha20 wire bytes from the session secret and
the sequence number only when they are read (see ``repro.channels.base``).
The derivation is deterministic, so ``wire`` is byte-identical to what an
eager sender would have produced, and the channel's rng is drawn from only
by the handshake.  The payload the transmission carries is what the node
stores; recovering that data after an at-rest break is the archival
system's job, which decodes the shares its nodes hold
(``repro.systems.base``), not the channel's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.channels.base import SecureChannelBase, Transmission
from repro.crypto.chacha20 import chacha20_xor
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.kdf import hkdf
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import ChannelError
from repro.gmath.primes import SchnorrGroup, default_group
from repro.security import SecurityNotion

_ZERO_NONCE = b"\x00" * 12


def _seal(session_secret: bytes, sequence: int, data: bytes) -> bytes:
    """ChaCha20 under message *sequence*'s key: encrypts and decrypts."""
    key = hkdf(session_secret, 32, info=f"msg-{sequence}".encode())
    return chacha20_xor(key, _ZERO_NONCE, data)


@dataclass(frozen=True)
class TlsTransmission(Transmission):
    """A TLS-like record; its escrow is the session secret."""

    @property
    def wire(self) -> bytes:
        return _seal(self._escrow, self.sequence, self._payload)


class TlsLikeChannel(SecureChannelBase):
    """Ephemeral-DH + ChaCha20 channel between two simulated endpoints."""

    name = "tls-like"
    notion = SecurityNotion.COMPUTATIONAL
    relies_on = ("toy-dh", "chacha20")

    def __init__(self, rng: DeterministicRandom, group: SchnorrGroup | None = None):
        super().__init__()
        self.group = group or default_group()
        # Ephemeral handshake: both exponents live only here.
        client_secret = rng.randrange(1, self.group.q)
        server_secret = rng.randrange(1, self.group.q)
        self.client_public = self.group.exp_g(client_secret)
        self.server_public = self.group.exp_g(server_secret)
        shared_point = pow(self.server_public, client_secret, self.group.p)
        self._session_secret = hkdf(
            shared_point.to_bytes((self.group.p.bit_length() + 7) // 8, "big"),
            32,
            info=b"tls-like session",
        )

    def send(self, plaintext: bytes) -> Transmission:
        # bytes() copies nothing when handed bytes and snapshots a mutable
        # buffer; the node stores this same object, so a live share's
        # transcript entry holds no payload bytes of its own.
        payload = bytes(plaintext)
        self.bytes_sent += len(payload)
        return TlsTransmission(
            channel=self.name,
            sequence=self._next_sequence(),
            _payload=payload,
            # What breaking DLP/ChaCha20 would yield: the session secret.
            _escrow=self._session_secret,
        )

    def receive(self, transmission: Transmission) -> bytes:
        if transmission.channel != self.name:
            raise ChannelError(f"transmission is not from a {self.name} channel")
        return transmission._payload

    def _decrypt_with_escrow(self, transmission: Transmission) -> bytes:
        return _seal(transmission._escrow, transmission.sequence, transmission.wire)


register_primitive(
    name="toy-dh",
    kind=PrimitiveKind.KEY_AGREEMENT,
    description="Ephemeral Diffie-Hellman in the library's Schnorr group",
    hardness_assumption="hardness of the discrete logarithm problem",
)
