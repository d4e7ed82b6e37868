"""HasDPSS (Zhang et al., CIKM '23): decentralized key management with
dynamic proactive secret sharing over a ledger.

Table 1: Computational transit / ITS at rest / High cost.  The paper's
Section 4 points at HasDPSS as evidence that "the concrete design and
implementation of secret-shared archives may benefit from the literature on
key-management systems".

Modeled components:

- **data plane**: archived objects are Shamir-shared across the committee's
  storage nodes (ITS at rest, n-times cost);
- **key plane**: a master secret lives in a :class:`ProactiveVSS` group;
  per-object authentication tags derive from it through the **hierarchical
  access structure** (a path-keyed HKDF tree: holding a folder's derived key
  grants its subtree, nothing above it);
- **ledger**: every deal's Pedersen commitments and every committee change
  are recorded on the simulated blockchain, so any party can audit share
  validity without learning anything (the commitments are perfectly hiding);
- **dynamism**: :meth:`change_committee` redistributes the data shares to a
  new (n', t') and re-deals the key plane, recording the epoch on the
  ledger.
"""

from __future__ import annotations

from repro.crypto.hmac_ import hmac_sha256
from repro.crypto.kdf import derive_subkey
from repro.errors import IntegrityError, ParameterError
from repro.secretsharing.redistribution import redistribute
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.secretsharing.verifiable import ProactiveVSS
from repro.systems.base import ArchivalSystem, StoreReceipt, as_shares, share_payloads
from repro.systems.ledger import LedgerEntry, SimulatedLedger


class HasDpss(ArchivalSystem):
    """DPSS-managed archive with hierarchical access and a ledger."""

    name = "HasDPSS"
    citation = "[70]"
    at_rest_relies_on = ()

    def __init__(self, nodes, rng, n: int = 5, t: int = 3):
        super().__init__(nodes, rng)
        self.scheme = ShamirSecretSharing(n, t)
        self.ledger = SimulatedLedger()
        self.key_plane = ProactiveVSS(n, t)
        master = rng.randrange(1, self.key_plane.vss.group.q)
        self.key_plane.initialize(master, rng)
        self._master_bytes = master.to_bytes(32, "big")
        self.ledger.append(
            [
                LedgerEntry(
                    kind="key-deal",
                    content={
                        "commitments": [str(c) for c in self.key_plane.commitments],
                        "n": n,
                        "t": t,
                    },
                )
            ]
        )

    # -- hierarchical access structure -------------------------------------------------

    def derive_path_key(self, path: str) -> bytes:
        """Key for *path*; deriving from an ancestor's key works too, so a
        folder grant covers its subtree (hierarchical access structure)."""
        key = self._master_bytes
        for component in [p for p in path.split("/") if p]:
            key = derive_subkey(key, f"child:{component}")
        return key

    @staticmethod
    def derive_descendant_key(ancestor_key: bytes, relative_path: str) -> bytes:
        key = ancestor_key
        for component in [p for p in relative_path.split("/") if p]:
            key = derive_subkey(key, f"child:{component}")
        return key

    # -- store / retrieve ------------------------------------------------------------------

    def _encode(self, object_id, data):
        split = self.scheme.split(data, self.rng)
        return share_payloads(split.shares), {"n": self.scheme.n, "t": self.scheme.t}, {}

    def _seal(self, receipt: StoreReceipt, data: bytes) -> None:
        # Authentication tag under the object's hierarchical key, recorded
        # on the ledger so retrievals can be audited.
        tag = hmac_sha256(self.derive_path_key(receipt.object_id), data).hex()
        self.ledger.append(
            [
                LedgerEntry(
                    kind="object",
                    content={
                        "object_id": receipt.object_id,
                        "tag": tag,
                        "n": receipt.metadata["n"],
                        "t": receipt.metadata["t"],
                    },
                )
            ]
        )
        receipt.metadata["tag"] = tag

    def _quorum(self, receipt: StoreReceipt) -> int:
        # Degraded read: any t committee shares reconstruct.
        return receipt.metadata["t"]

    def _decode(self, receipt: StoreReceipt, shares: dict[int, bytes], regenerate):
        scheme = ShamirSecretSharing(receipt.metadata["n"], receipt.metadata["t"])
        data, rebuilt = scheme.reconstruct(as_shares("shamir", shares), regenerate=regenerate)
        data = data[: receipt.original_length]
        # The tag is checked before any share rebuilt from this quorum goes out.
        expected = hmac_sha256(self.derive_path_key(receipt.object_id), data)
        if expected.hex() != receipt.metadata["tag"]:
            raise IntegrityError(f"{receipt.object_id}: authentication tag mismatch")
        return data, share_payloads(rebuilt)

    # -- dynamism ------------------------------------------------------------------------------

    def change_committee(self, new_n: int, new_t: int) -> None:
        """DPSS committee change: redistribute data shares, re-deal keys."""
        if not 1 <= new_t <= new_n:
            raise ParameterError(f"invalid committee parameters n={new_n} t={new_t}")
        new_scheme = ShamirSecretSharing(new_n, new_t)
        for receipt in list(self._receipts.values()):
            old_scheme = ShamirSecretSharing(
                receipt.metadata["n"], receipt.metadata["t"]
            )
            fetched = self._fetch_shares(receipt)
            placement = self.placement_policy.place(receipt.object_id, new_scheme.points)
            new_split, _ = redistribute(
                old_scheme,
                as_shares("shamir", fetched),
                new_scheme,
                receipt.original_length,
                self.rng,
            )
            self._replace_shares(receipt, placement, share_payloads(new_split.shares))
            receipt.metadata.update({"n": new_n, "t": new_t})
        # Key plane: fresh proactive round plus a new deal record.
        self.key_plane.renew(self.rng)
        self.scheme = new_scheme
        self.ledger.append(
            [
                LedgerEntry(
                    kind="committee-change",
                    content={
                        "n": new_n,
                        "t": new_t,
                        "commitments": [str(c) for c in self.key_plane.commitments],
                    },
                )
            ]
        )

    def audit_ledger(self) -> None:
        self.ledger.verify()
