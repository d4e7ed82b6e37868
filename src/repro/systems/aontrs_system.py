"""The AONT-RS dispersed archive (Cleversafe / IBM Cloud Object Storage).

Table 1: Computational / Computational / Low.  The encoding is
:class:`repro.secretsharing.aontrs.AontRsDispersal`; this system adds the
deployment: shards across independent providers, TLS transit, and the two
adversary outcomes the paper highlights --

- below k shards, recovery additionally requires the cipher *and* hash to
  fall (then "an attacker trivially knows the key and can recover plaintext
  from even a single share"); the simulation decodes the object from the
  shards the nodes hold once the break has happened;
- at k or more shards, recovery is immediate with *no* broken primitives:
  the AONT's key is inside the package.  "Eliminates the need for key
  management" cuts both ways.
"""

from __future__ import annotations

from repro.crypto.registry import BreakTimeline
from repro.errors import DecodingError
from repro.secretsharing.aontrs import AontRsDispersal
from repro.secretsharing.base import Share
from repro.systems.base import ArchivalSystem, StoreReceipt


class AontRsArchive(ArchivalSystem):
    """AONT-RS across independent providers."""

    name = "AONT-RS"
    citation = "[53]"
    at_rest_relies_on = ("aes-256-ctr", "sha256")

    def __init__(self, nodes, rng, n: int = 6, k: int = 4):
        super().__init__(nodes, rng)
        self.dispersal = AontRsDispersal(n, k)

    def store(self, object_id: str, data: bytes) -> StoreReceipt:
        split = self.dispersal.split(data, self.rng)
        payloads = {share.index: share.payload for share in split.shares}
        placement = self._store_shares(object_id, payloads)
        receipt = StoreReceipt(
            object_id=object_id,
            original_length=len(data),
            placement=placement,
            metadata={
                "n": self.dispersal.n,
                "k": self.dispersal.k,
                "package_length": len(data) + 32,
            },
        )
        return self._record(receipt)

    def retrieve(self, object_id: str) -> bytes:
        receipt = self.receipt(object_id)
        # Degraded read: any k decodable shards suffice.
        shares = self._fetch_shares(receipt, need=self.dispersal.k)
        if len(shares) < self.dispersal.k:
            raise DecodingError(
                f"{object_id}: only {len(shares)} shards available, "
                f"need {self.dispersal.k}"
            )
        return self._finish_read(object_id, self._decode(receipt, shares))

    def _decode(self, receipt: StoreReceipt, shards: dict[int, bytes]) -> bytes:
        share_objs = [
            Share(scheme="aont-rs", index=i, payload=p) for i, p in shards.items()
        ]
        return self.dispersal.reconstruct(
            share_objs, original_length=receipt.original_length
        )

    def attempt_recovery(
        self,
        object_id: str,
        stolen: dict[int, bytes],
        timeline: BreakTimeline,
        epoch: int,
    ) -> bytes:
        receipt = self.receipt(object_id)
        if len(stolen) >= self.dispersal.k:
            # Threshold theft: the AONT opens with no cryptanalysis at all.
            return self._decode(receipt, stolen)
        if not stolen:
            raise DecodingError(f"{object_id}: adversary holds no shards")
        # Sub-threshold theft: needs the cipher and hash broken; the real
        # attack then recovers the AONT key from any one shard, which the
        # simulation grants by decoding the shards the nodes hold.
        self._require_at_rest_broken(timeline, epoch)
        return self._decode(receipt, self._held_shares(receipt))
