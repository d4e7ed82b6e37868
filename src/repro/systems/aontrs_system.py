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

from repro.secretsharing.aontrs import AontRsDispersal
from repro.systems.base import ArchivalSystem, StoreReceipt, as_shares, share_payloads


class AontRsArchive(ArchivalSystem):
    """AONT-RS across independent providers."""

    name = "AONT-RS"
    citation = "[53]"
    at_rest_relies_on = ("aes-256-ctr", "sha256")

    def __init__(self, nodes, rng, n: int = 6, k: int = 4):
        super().__init__(nodes, rng)
        self.dispersal = AontRsDispersal(n, k)

    def _encode(self, object_id, data):
        metadata = {
            "n": self.dispersal.n,
            "k": self.dispersal.k,
            "package_length": len(data) + 32,
        }
        return share_payloads(self.dispersal.split(data, self.rng).shares), metadata, {}

    def _quorum(self, receipt: StoreReceipt) -> int:
        # Degraded read: any k decodable shards suffice.
        return receipt.metadata["k"]

    def _decode(self, receipt: StoreReceipt, shards: dict[int, bytes], regenerate):
        # Threshold theft decodes the same way: the AONT opens with no
        # cryptanalysis at all.  Shards are values of one polynomial, so the
        # decode of k rebuilds the rotted ones too, with no new AONT package.
        data, rebuilt = self.dispersal.reconstruct(
            as_shares("aont-rs", shards),
            original_length=receipt.original_length,
            regenerate=regenerate,
        )
        return data, share_payloads(rebuilt)
