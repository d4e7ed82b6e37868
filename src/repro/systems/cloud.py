"""The commercial-cloud baseline: "simply uses AES".

Paper, Section 3.2: "apart from AONT-RS, every other commercially available
archival system we are aware of simply uses AES (e.g., AWS, Google Cloud,
Azure)."  Table 1 files them together: Computational / Computational / Low.

The model: one provider (no administrative dispersal), AES-256-CTR at rest
with a provider-managed key (the KMS), TLS in transit, an optional internal
replication factor for durability.  The harvest path is the pure form of
Harvest Now, Decrypt Later: steal the ciphertext whenever, wait for the AES
break epoch, decrypt -- the KMS key is irrelevant to a cryptanalytic
adversary, which is the paper's whole point.
"""

from __future__ import annotations

from repro.crypto.aes import AesCtrCipher
from repro.crypto.registry import BreakTimeline
from repro.errors import DecodingError
from repro.systems.base import ArchivalSystem, StoreReceipt


class CloudProviderArchive(ArchivalSystem):
    """AWS/Azure/GCS-style archive: AES at rest, TLS in transit."""

    name = "AWS/Azure/Google Cloud"
    citation = "[1-3]"
    at_rest_relies_on = ("aes-256-ctr",)

    def __init__(self, nodes, rng, replication: int = 1):
        # A single provider's internal fleet: independence not required.
        super().__init__(nodes, rng, require_distinct_providers=False)
        if replication < 1:
            raise DecodingError("replication must be >= 1")
        self.replication = replication
        self.cipher = AesCtrCipher(key_size=32)
        #: Provider-side key management service: object id -> (key, nonce).
        self._kms: dict[str, tuple[bytes, bytes]] = {}

    def _encode(self, object_id, data):
        key = self.rng.bytes(32)
        nonce = self.rng.bytes(12)
        ciphertext = self.cipher.encrypt(key, nonce, data)
        payloads = {i: ciphertext for i in range(self.replication)}
        # The escrow is what a successful AES cryptanalysis of this object
        # would yield: the data key (escrow convention, see channels.base).
        return payloads, {"replication": self.replication}, {"key": key, "nonce": nonce}

    def _seal(self, receipt: StoreReceipt, data: bytes) -> None:
        # The KMS takes the key only once its ciphertext is placed: a store
        # that fails to place leaves no key behind.
        self._kms[receipt.object_id] = (receipt.escrow["key"], receipt.escrow["nonce"])

    def _quorum(self, receipt: StoreReceipt) -> int:
        # Degraded read: the first intact replica is enough.
        return 1

    def _decode(self, receipt: StoreReceipt, replicas: dict[int, bytes], regenerate):
        # Every replica holds the same ciphertext, so the one decrypted is
        # each rotted replica, rebuilt.
        key, nonce = self._kms[receipt.object_id]
        replica = next(iter(replicas.values()))
        return self.cipher.decrypt(key, nonce, replica), dict.fromkeys(regenerate, replica)

    def attempt_recovery(
        self,
        object_id: str,
        stolen: dict[int, bytes],
        timeline: BreakTimeline,
        epoch: int,
    ) -> bytes:
        """Any single stolen replica suffices -- once AES falls."""
        if not stolen:
            raise DecodingError(f"{object_id}: adversary holds no replicas")
        self._require_at_rest_broken(timeline, epoch)
        receipt = self.receipt(object_id)
        key, nonce = receipt.escrow["key"], receipt.escrow["nonce"]
        return self.cipher.decrypt(key, nonce, next(iter(stolen.values())))
