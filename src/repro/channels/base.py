"""Channel abstractions shared by TLS-like, QKD, and BSM channels.

A channel turns plaintext into a :class:`Transmission` and back.  The
adversary harness records transmissions as :class:`EavesdropRecord` -- the
"harvest" half of Harvest Now, Decrypt Later; the "decrypt later" half asks
the channel's :meth:`SecureChannelBase.break_open` with a break timeline and
an epoch.

Design note: *derived wire bytes*.  Sender and receiver run in one process,
so encrypting a share only to decrypt it straight back would be pure cost.
A transmission therefore carries its payload, sealed, and derives
:attr:`Transmission.wire` each time it is read, from the channel's key
material (the session secret or the one-time pad), the sequence number and
the payload.  The derivation is the channel's real cipher, so an
eavesdropper reads exactly the bytes a real sender would have put on the
wire; ``send`` only does the bookkeeping (sequence, ``bytes_sent``, pad
consumption) and ``receive`` hands back the carried payload.

Design note: *escrowed secrets*.  We cannot actually run future
cryptanalysis, so each computationally secure transmission carries its
session secret in a sealed field that only :meth:`break_open` may read, and
only when the timeline says the underlying primitive has fallen.
``break_open`` decrypts the derived wire bytes with that secret, so the
simulated power of "the adversary broke the cipher" stays exactly equal to
(never greater than) the real thing, and information-theoretic channels
simply have nothing in escrow.  Stored data has no escrowed copy at all:
after an at-rest break a system recovers it by decoding the shares its
nodes hold (``repro.systems.base.ArchivalSystem._held_shares``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.registry import BreakTimeline
from repro.errors import ChannelError
from repro.security import SecurityNotion


@dataclass(frozen=True)
class Transmission:
    """One message as it crosses the wire.

    Each channel returns its own subclass, whose :attr:`wire` property
    derives the wire bytes from the sealed payload on every read (see the
    module docstring); no wire bytes are ever stored.
    """

    channel: str
    sequence: int
    #: The plaintext this transmission carries: sealed simulation material,
    #: read only by the receiving endpoint and the wire derivation.
    _payload: bytes = field(repr=False)
    #: What a successful cryptanalysis of this transmission would recover;
    #: empty for information-theoretic channels.  Read only via break_open.
    _escrow: bytes = field(default=b"", repr=False)

    @property
    def wire(self) -> bytes:
        """The bytes an eavesdropper records, derived when read."""
        raise NotImplementedError

    def __len__(self) -> int:
        # Every channel's cipher is length-preserving.
        return len(self._payload)


@dataclass
class EavesdropRecord:
    """The adversary's harvested copy of a transmission."""

    transmission: Transmission
    harvested_epoch: int


class SecureChannelBase:
    """Common bookkeeping for channels (subclasses set the class attrs)."""

    name: str = "abstract"
    notion: SecurityNotion = SecurityNotion.NONE
    #: Registry names of the primitives confidentiality rests on.
    relies_on: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._sequence = 0
        self.bytes_sent = 0

    def _next_sequence(self) -> int:
        seq = self._sequence
        self._sequence += 1
        return seq

    # -- adversary interface -----------------------------------------------------

    def is_breakable_at(self, timeline: BreakTimeline, epoch: int) -> bool:
        """True if every primitive this channel relies on has fallen."""
        if self.notion is SecurityNotion.INFORMATION_THEORETIC:
            return False
        if not self.relies_on:
            return False
        return all(timeline.is_broken(name, epoch) for name in self.relies_on)

    def break_open(
        self, transmission: Transmission, timeline: BreakTimeline, epoch: int
    ) -> bytes:
        """Decrypt a harvested transmission after the break ('decrypt later').

        Raises :class:`ChannelError` if the channel's primitives still hold
        at *epoch* -- harvesting alone yields nothing.
        """
        if not self.is_breakable_at(timeline, epoch):
            raise ChannelError(
                f"{self.name}: primitives {self.relies_on} not all broken at epoch {epoch}"
            )
        if not transmission._escrow:
            raise ChannelError(f"{self.name}: nothing recoverable from this transmission")
        return self._decrypt_with_escrow(transmission)

    def _decrypt_with_escrow(self, transmission: Transmission) -> bytes:
        raise NotImplementedError
