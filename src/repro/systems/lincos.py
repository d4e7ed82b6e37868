"""LINCOS (Braun et al., ASIA CCS '17).

"LINCOS: A Storage System Providing Long-Term Integrity, Authenticity, and
Confidentiality" -- the paper's exemplar of the all-information-theoretic
corner: Table 1 classifies it ITS in transit, ITS at rest, High cost.

The three pillars, all implemented:

- **at rest**: Shamir-shared objects across independent providers;
- **in transit**: QKD links deliver one-time pads to each provider; sends
  block on available key material, so the system surfaces the paper's
  "specialized infrastructure / engineering challenges" as measurable key
  generation time and per-link cost;
- **integrity**: a timestamp chain whose references are *Pedersen
  commitments* rather than hashes -- LINCOS's "key observation", keeping
  the chain from leaking anything about the committed data even to an
  unbounded adversary.
"""

from __future__ import annotations

from repro.channels.qkd import QkdLink
from repro.crypto.commitments import PedersenCommitment
from repro.integrity.timestamp import (
    MerkleChainSigner,
    TimestampAuthority,
    TimestampChain,
)
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.systems.base import ArchivalSystem, StoreReceipt, as_shares, share_payloads


class Lincos(ArchivalSystem):
    """QKD transit + Shamir storage + commitment timestamp chain."""

    name = "LINCOS"
    citation = "[12]"
    at_rest_relies_on = ()  # Shamir: information-theoretic

    def __init__(self, nodes, rng, n: int = 5, t: int = 3, qkd_key_rate: float = 1e6):
        # Needed by _make_transit_channel, which the base __init__ calls.
        self.qkd_key_rate = qkd_key_rate
        super().__init__(nodes, rng)
        self.scheme = ShamirSecretSharing(n, t)
        self.commitments = PedersenCommitment()
        self.chain = TimestampChain()
        self.authority = TimestampAuthority(MerkleChainSigner(rng, height=6))
        self.key_generation_seconds = 0.0

    def _make_transit_channel(self):
        return QkdLink(self.rng, key_rate_bytes_per_s=self.qkd_key_rate)

    def _send_share(self, node, object_id, index, payload):
        # QKD pads are consumable: generate exactly what this send needs and
        # account for the wall-clock the link spends doing it.
        needed = self.transit.seconds_needed_for(len(payload))
        if needed > 0:
            self.transit.advance_time(needed)
            self.key_generation_seconds += needed
        super()._send_share(node, object_id, index, payload)

    def _encode(self, object_id, data):
        split = self.scheme.split(data, self.rng)
        return share_payloads(split.shares), {"n": self.scheme.n, "t": self.scheme.t}, {}

    def _seal(self, receipt: StoreReceipt, data: bytes) -> None:
        # Timestamp the object under a perfectly hiding commitment.
        link, opening = self.authority.timestamp_document(
            self.chain,
            data,
            epoch=self.epoch,
            reference_kind="pedersen",
            pedersen=self.commitments,
            rng=self.rng,
        )
        receipt.metadata["chain_index"] = link.index
        receipt.escrow["commitment_opening"] = opening

    def _quorum(self, receipt: StoreReceipt) -> int:
        # Degraded read, and the ITS adversary: any t shares reconstruct the
        # polynomial, fewer reveal nothing.
        return receipt.metadata["t"]

    def _decode(self, receipt: StoreReceipt, shares: dict[int, bytes], regenerate):
        scheme = ShamirSecretSharing(receipt.metadata["n"], receipt.metadata["t"])
        data, rebuilt = scheme.reconstruct(as_shares("shamir", shares), regenerate=regenerate)
        return data[: receipt.original_length], share_payloads(rebuilt)

    # -- integrity service --------------------------------------------------------------

    def renew_chain(self, epoch: int) -> None:
        self.authority.renew_chain(self.chain, epoch)
