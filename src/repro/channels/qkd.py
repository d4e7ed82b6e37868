"""Simulated Quantum Key Distribution link (LINCOS's channel).

"By setting up entangled quantum states, two parties can generate a shared
One-Time Pad key that is impervious to eavesdropping.  While promising, QKD
requires specialized infrastructure, and a number of engineering challenges
must be resolved..." (paper Section 3.2).

What the simulation preserves (per DESIGN.md's substitution table): the
archival-system-level properties --

- the link yields one-time-pad key material at a finite *key rate*
  (real deployed QKD: kilobits/s over metro fiber, far below data rates);
- transmissions consume pad byte-for-byte; exhausting the pad blocks sends
  until more key material is generated (:meth:`advance_time`);
- wire bytes carry zero information: there is no escrow, and
  ``break_open`` always fails, at any epoch, for any timeline;
- the wire bytes are the pad XOR the payload, derived when read from the
  consumed pad the :class:`QkdTransmission` carries (see
  ``repro.channels.base``): a send consumes pad but does no XOR;
- infrastructure has a capital + per-km cost so the trade-off analysis can
  price the "higher infrastructure costs" the paper's Section 4 weighs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.channels.base import SecureChannelBase, Transmission
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.otp import otp_xor
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import ChannelError, ParameterError
from repro.security import SecurityNotion


@dataclass(frozen=True)
class QkdTransmission(Transmission):
    """A one-time-pad message; it carries the pad it consumed, sealed."""

    _pad: bytes = field(default=b"", repr=False)

    @property
    def wire(self) -> bytes:
        return otp_xor(self._pad, self._payload)


class QkdLink(SecureChannelBase):
    """A point-to-point QKD link feeding a one-time-pad channel."""

    name = "qkd-otp"
    notion = SecurityNotion.INFORMATION_THEORETIC
    relies_on = ()  # no computational assumptions

    #: Representative deployment economics (metro fiber QKD).
    CAPITAL_COST_USD = 100_000.0
    COST_PER_KM_USD = 10_000.0

    def __init__(
        self,
        rng: DeterministicRandom,
        key_rate_bytes_per_s: float = 1_000.0,
        distance_km: float = 50.0,
    ):
        super().__init__()
        if key_rate_bytes_per_s <= 0:
            raise ParameterError("key rate must be positive")
        if distance_km <= 0:
            raise ParameterError("distance must be positive")
        self._rng = rng
        self.key_rate_bytes_per_s = key_rate_bytes_per_s
        self.distance_km = distance_km
        self._pad = b""
        self.seconds_elapsed = 0.0

    # -- key generation --------------------------------------------------------

    @property
    def pad_available(self) -> int:
        return len(self._pad)

    def advance_time(self, seconds: float) -> None:
        """Run the quantum link for *seconds*, accruing pad material."""
        if seconds < 0:
            raise ParameterError("time cannot run backwards")
        self.seconds_elapsed += seconds
        new_bytes = int(seconds * self.key_rate_bytes_per_s)
        if new_bytes:
            self._pad += self._rng.bytes(new_bytes)

    def seconds_needed_for(self, message_length: int) -> float:
        """Key-generation time required before *message_length* can be sent."""
        deficit = max(0, message_length - self.pad_available)
        return deficit / self.key_rate_bytes_per_s

    @property
    def infrastructure_cost_usd(self) -> float:
        return self.CAPITAL_COST_USD + self.COST_PER_KM_USD * self.distance_km

    # -- channel interface ---------------------------------------------------------

    def send(self, plaintext: bytes) -> Transmission:
        payload = bytes(plaintext)
        if len(payload) > self.pad_available:
            raise ChannelError(
                f"QKD pad exhausted: need {len(payload)} bytes, have "
                f"{self.pad_available}; advance_time() to generate more key"
            )
        pad, self._pad = self._pad[: len(payload)], self._pad[len(payload) :]
        self.bytes_sent += len(payload)
        return QkdTransmission(
            channel=self.name,
            sequence=self._next_sequence(),
            _payload=payload,
            _escrow=b"",  # nothing any cryptanalysis could ever yield
            _pad=pad,
        )

    def receive(self, transmission: Transmission) -> bytes:
        if transmission.channel != self.name:
            raise ChannelError(f"transmission is not from a {self.name} channel")
        # QKD gives both endpoints the same pad, which the transmission
        # carries; a sequence this link never sent has no pad here.
        if not 0 <= transmission.sequence < self._sequence:
            raise ChannelError("no pad recorded for this transmission")
        return transmission._payload


register_primitive(
    name="qkd-otp",
    kind=PrimitiveKind.KEY_AGREEMENT,
    description="Quantum key distribution feeding a one-time pad",
    hardness_assumption=None,
)
