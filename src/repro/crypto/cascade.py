"""Cascade ciphers (robust combiners for encryption).

Section 3.2: ArchiveSafeLT hedges against any one cipher breaking by
encrypting under *multiple layers of different encryption schemes*; a cascade
"enjoys the property of being at least as secure as the most secure cipher in
the cascade [Herzberg], but care must be taken ... [Maurer-Massey]".

Implementation notes:

- Layers are applied innermost-first: ``c = E_k(...E_2(E_1(m)))``.
- Each layer must use an *independent* key -- the combiner theorem requires
  it, so :meth:`CascadeCipher.encrypt` takes one key per layer and refuses
  duplicates.
- :meth:`confidential_against` answers "does this cascade still protect a
  ciphertext at epoch e?" by consulting the break timeline: the cascade holds
  while at least one layer's cipher is unbroken (ciphertext-only setting,
  which is the archival threat model).
- The Maurer-Massey caveat (a cascade is only provably as strong as its
  *first* cipher against chosen-plaintext adversaries) is surfaced via
  :meth:`chosen_plaintext_anchor`, so the analysis layer can report both
  bounds honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.crypto.registry import BreakTimeline, PrimitiveKind, register_primitive
from repro.errors import ParameterError


class Cipher(Protocol):
    """Structural interface every cipher in the library satisfies."""

    name: str
    key_size: int
    nonce_size: int

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes: ...

    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes: ...


@dataclass(frozen=True)
class CascadeLayer:
    """One layer of a cascade: a cipher plus its nonce (key supplied later)."""

    cipher: Cipher
    nonce: bytes

    def __post_init__(self) -> None:
        if len(self.nonce) != self.cipher.nonce_size:
            raise ParameterError(
                f"layer nonce must be {self.cipher.nonce_size} bytes for {self.cipher.name}"
            )


class CascadeCipher:
    """An ordered cascade of independent ciphers."""

    def __init__(self, layers: Sequence[CascadeLayer]):
        if not layers:
            raise ParameterError("cascade needs at least one layer")
        self.layers = list(layers)

    @property
    def name(self) -> str:
        return "cascade(" + "+".join(l.cipher.name for l in self.layers) + ")"

    @property
    def depth(self) -> int:
        return len(self.layers)

    def _check_keys(self, keys: Sequence[bytes]) -> None:
        if len(keys) != self.depth:
            raise ParameterError(
                f"cascade of depth {self.depth} needs {self.depth} keys, got {len(keys)}"
            )
        for key, layer in zip(keys, self.layers):
            if len(key) != layer.cipher.key_size:
                raise ParameterError(
                    f"layer {layer.cipher.name} needs a {layer.cipher.key_size}-byte key"
                )
        if len(set(keys)) != len(keys):
            raise ParameterError(
                "cascade layers must use independent keys (combiner requirement)"
            )

    def encrypt(self, keys: Sequence[bytes], plaintext: bytes) -> bytes:
        self._check_keys(keys)
        data = plaintext
        for key, layer in zip(keys, self.layers):
            data = layer.cipher.encrypt(key, layer.nonce, data)
        return data

    def decrypt(self, keys: Sequence[bytes], ciphertext: bytes) -> bytes:
        self._check_keys(keys)
        data = ciphertext
        for key, layer in zip(reversed(keys), reversed(self.layers)):
            data = layer.cipher.decrypt(key, layer.nonce, data)
        return data

    # -- ArchiveSafeLT-style layer wrapping ---------------------------------------

    def wrapped(self, new_layer: CascadeLayer) -> "CascadeCipher":
        """Return a new cascade with *new_layer* applied outermost.

        This is ArchiveSafeLT's response to "enough of the old layers are
        broken": re-wrap the existing ciphertext, avoiding a decrypt of the
        whole archive but still paying the read-process-write I/O (the
        re-encryption I/O model charges for it either way).
        """
        return CascadeCipher(self.layers + [new_layer])

    # -- security accounting --------------------------------------------------------

    def unbroken_layers(self, timeline: BreakTimeline, epoch: int) -> list[str]:
        return [
            l.cipher.name
            for l in self.layers
            if not timeline.is_broken(l.cipher.name, epoch)
        ]

    def confidential_against(self, timeline: BreakTimeline, epoch: int) -> bool:
        """Ciphertext-only confidentiality: holds while any layer holds."""
        return bool(self.unbroken_layers(timeline, epoch))

    def chosen_plaintext_anchor(self) -> str:
        """Maurer-Massey: against chosen-plaintext attacks the provable
        guarantee anchors on the *first* (innermost) cipher; report it."""
        return self.layers[0].cipher.name


register_primitive(
    name="cascade",
    kind=PrimitiveKind.CIPHER,
    description="Cascade cipher robust combiner (secure while any layer holds)",
    hardness_assumption="at least one member cipher remains unbroken",
)
