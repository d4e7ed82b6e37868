"""ArchiveSafeLT (Sabry & Samavi, ACSAC '22): cascade-cipher layering.

Paper, Section 3.2: "One could avoid the I/O cost of re-encryption -- at the
cost of storing a growing history of encryption keys -- by using multiple
layers of different encryption schemes to hedge against the threat of any
one or more ciphers being broken. ... ArchiveSafeLT also proposes wrapping
data in new layers of encryption if enough of the old layers are broken,
though this runs into the same I/O issues as re-encryption."

Modeled faithfully:

- objects are stored under a cascade (default AES-256 over ChaCha20), with
  independent per-layer keys kept in a client-side key history;
- :meth:`respond_to_break` checks how many layers the timeline has broken
  and, below a survival margin, wraps every stored object in a fresh layer
  -- charging the read+write I/O through the returned byte count so the
  re-encryption benchmark can compare wrapping vs full re-encryption;
- the harvest path honors the combiner guarantee: recovery requires *every*
  layer present on the stolen ciphertext to be broken at the attempt epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.aes import AesCtrCipher
from repro.crypto.cascade import CascadeCipher, CascadeLayer
from repro.crypto.chacha20 import ChaCha20Cipher
from repro.crypto.registry import BreakTimeline
from repro.errors import DecodingError, StillSecureError
from repro.storage.placement import share_key
from repro.systems.base import ArchivalSystem, StoreReceipt


@dataclass
class WrapReport:
    """I/O accounting for one layer-wrapping campaign."""

    objects_wrapped: int
    bytes_read: int
    bytes_written: int
    new_layer: str


class ArchiveSafeLT(ArchivalSystem):
    """Cascade-layered archive with break-triggered wrapping."""

    name = "ArchiveSafeLT"
    citation = "[56]"
    # Initial layers; grows as wrapping responds to breaks.
    at_rest_relies_on = ("aes-256-ctr", "chacha20")

    #: Wrap when fewer than this many layers remain unbroken.
    SURVIVAL_MARGIN = 1

    def __init__(self, nodes, rng, replication: int = 1):
        super().__init__(nodes, rng, require_distinct_providers=False)
        self.replication = max(1, replication)
        self._ciphers = {
            "aes-256-ctr": AesCtrCipher(key_size=32),
            "chacha20": ChaCha20Cipher(),
        }
        #: Per-object ordered key history: list of (cipher_name, key, nonce).
        self._key_history: dict[str, list[tuple[str, bytes, bytes]]] = {}

    # -- cascade plumbing -----------------------------------------------------------

    def _cascade(
        self, history: list[tuple[str, bytes, bytes]]
    ) -> tuple[CascadeCipher, list[bytes]]:
        layers = []
        keys = []
        for cipher_name, key, nonce in history:
            layers.append(CascadeLayer(self._ciphers[cipher_name], nonce))
            keys.append(key)
        return CascadeCipher(layers), keys

    @staticmethod
    def _frame(layer_count: int, ciphertext: bytes) -> bytes:
        """Stored payloads carry their layer count: copies stolen before a
        wrap must decode (and be attacked) under the layers they actually
        have, not the current history."""
        return layer_count.to_bytes(2, "big") + ciphertext

    @staticmethod
    def _unframe(payload: bytes) -> tuple[int, bytes]:
        return int.from_bytes(payload[:2], "big"), payload[2:]

    def _new_layer_material(self, cipher_name: str) -> tuple[str, bytes, bytes]:
        cipher = self._ciphers[cipher_name]
        return cipher_name, self.rng.bytes(cipher.key_size), self.rng.bytes(cipher.nonce_size)

    # -- encoding ------------------------------------------------------------------------

    def _encode(self, object_id, data):
        # AES over ChaCha20; a wrap adds layers later (respond_to_break).
        layers = ["chacha20", "aes-256-ctr"]
        history = [self._new_layer_material(name) for name in layers]
        cascade, keys = self._cascade(history)
        payload = self._frame(cascade.depth, cascade.encrypt(keys, data))
        payloads = {i: payload for i in range(self.replication)}
        return payloads, {"layers": layers}, {"key_history": history}

    def _seal(self, receipt: StoreReceipt, data: bytes) -> None:
        # The history takes the keys only once their ciphertext is placed:
        # a store that fails to place leaves no keys behind.
        self._key_history[receipt.object_id] = receipt.escrow.pop("key_history")

    def _quorum(self, receipt: StoreReceipt) -> int:
        # Degraded read: one intact framed replica is enough.
        return 1

    def _decode(self, receipt: StoreReceipt, replicas: dict[int, bytes], regenerate):
        # Every replica holds the same framed ciphertext (a wrap rewrites
        # them all), so the one decrypted is each rotted replica, rebuilt.
        replica = next(iter(replicas.values()))
        layer_count, body = self._unframe(replica)
        cascade, keys = self._cascade(self._key_history[receipt.object_id][:layer_count])
        return cascade.decrypt(keys, body), dict.fromkeys(regenerate, replica)

    # -- break response -------------------------------------------------------------------

    def unbroken_layer_count(self, object_id: str, timeline: BreakTimeline, epoch: int) -> int:
        return sum(
            1
            for cipher_name, _, _ in self._key_history[object_id]
            if not timeline.is_broken(cipher_name, epoch)
        )

    def respond_to_break(
        self, timeline: BreakTimeline, epoch: int, new_layer_cipher: str = "chacha20"
    ) -> WrapReport | None:
        """Wrap all objects in a fresh layer if the margin is violated.

        Returns the I/O accounting, or None if no wrapping was needed.
        ArchiveSafeLT's selling point is avoiding *decryption* during the
        response; its weakness (which the report quantifies) is that the
        read-and-rewrite I/O is the same as re-encryption's.
        """
        needs_wrap = [
            object_id
            for object_id in self._receipts
            if self.unbroken_layer_count(object_id, timeline, epoch)
            <= self.SURVIVAL_MARGIN
        ]
        if not needs_wrap:
            return None
        bytes_read = 0
        bytes_written = 0
        for object_id in needs_wrap:
            receipt = self.receipt(object_id)
            shares = self._fetch_shares(receipt)
            if not shares:
                raise DecodingError(f"cannot wrap {object_id}: no replica available")
            old_count, old_body = self._unframe(next(iter(shares.values())))
            bytes_read += len(old_body) * len(shares)

            material = self._new_layer_material(new_layer_cipher)
            self._key_history[object_id].append(material)
            cipher = self._ciphers[new_layer_cipher]
            new_body = cipher.encrypt(material[1], material[2], old_body)
            new_payload = self._frame(len(self._key_history[object_id]), new_body)
            for index, node_id in receipt.placement.node_by_share.items():
                node = self.placement_policy.node(node_id)
                node.put(share_key(object_id, index), new_payload)
                bytes_written += len(new_body)
            receipt.metadata["layers"] = [
                name for name, _, _ in self._key_history[object_id]
            ]
        return WrapReport(
            objects_wrapped=len(needs_wrap),
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            new_layer=new_layer_cipher,
        )

    # -- adversary ---------------------------------------------------------------------------

    def attempt_recovery(
        self,
        object_id: str,
        stolen: dict[int, bytes],
        timeline: BreakTimeline,
        epoch: int,
    ) -> bytes:
        """Combiner guarantee: need every layer on the stolen copy broken.

        Note the HNDL subtlety the benchmark exploits: the layers that count
        are the ones on the ciphertext *as stolen* -- wrapping performed
        after the theft does not protect the harvested copy.
        """
        if not stolen:
            raise DecodingError(f"{object_id}: adversary holds no replicas")
        layer_count, body = self._unframe(next(iter(stolen.values())))
        history = self._key_history[object_id][:layer_count]
        unbroken = [
            name for name, _, _ in history if not timeline.is_broken(name, epoch)
        ]
        if unbroken:
            raise StillSecureError(
                f"{self.name}: layers {unbroken} still hold at epoch {epoch}"
            )
        cascade, keys = self._cascade(history)
        return cascade.decrypt(keys, body)
