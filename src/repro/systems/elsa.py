"""An ELSA-style archive: share the keys, encrypt the data (Muth et al.).

The paper cites ELSA ("efficient long-term secure storage of large
datasets") among the LINCOS follow-ups.  Its engineering idea is the one
every practical secret-shared archive gravitates to: bulk data is encrypted
once with a fast symmetric cipher and stored erasure-coded (cheap), while
only the *keys* live in a proactively renewed verifiable-secret-sharing
committee (expensive machinery, but over 32-byte secrets).

This system is included as an extension beyond Table 1 because it is the
cleanest illustration of the paper's trade-off *inside* one design:

- storage overhead ~ n/k (low!), key-plane costs are negligible;
- proactive key renewal is cheap (scalar VSS, not n^2 x object bytes);
- BUT the bulk ciphertext is computationally protected, so a harvesting
  adversary who steals shards today decrypts them when the cipher falls --
  the key committee's information-theoretic security protects the *keys*,
  not the harvested *data*.  `attempt_recovery` reproduces exactly that
  split: threshold-many key shares open everything immediately; otherwise
  recovery waits for the cipher's break epoch.
"""

from __future__ import annotations

from repro.crypto.aes import AesCtrCipher
from repro.crypto.registry import BreakTimeline
from repro.errors import DecodingError, ParameterError
from repro.gmath.reedsolomon import ReedSolomonCode, Shard
from repro.secretsharing.verifiable import ProactiveVSS, deal_key_limbs, join_key_limbs
from repro.systems.base import ArchivalSystem, StoreReceipt


class ElsaStyleArchive(ArchivalSystem):
    """Erasure-coded symmetric data plane + proactive-VSS key plane."""

    name = "ELSA-style"
    citation = "[47]"
    at_rest_relies_on = ("aes-256-ctr",)

    def __init__(self, nodes, rng, n: int = 6, k: int = 4, key_committee_t: int = 3):
        super().__init__(nodes, rng)
        if not 1 <= k < n:
            raise ParameterError(f"need 1 <= k < n, got n={n} k={k}")
        self.code = ReedSolomonCode(n, k)
        self.cipher = AesCtrCipher(key_size=32)
        self.committee_n = n
        self.committee_t = key_committee_t
        #: Per object: the VSS groups holding its key limbs.
        self._key_groups: dict[str, list[ProactiveVSS]] = {}
        self.key_plane_renewals = 0

    # -- key plane -------------------------------------------------------------------

    def renew_key_plane(self) -> None:
        """Proactive renewal of every object's key committee -- note the
        cost: a few scalar messages per object, independent of object size.
        This is ELSA's entire efficiency claim."""
        for groups in self._key_groups.values():
            for group in groups:
                group.renew(self.rng)
        self.key_plane_renewals += 1

    # -- data plane -------------------------------------------------------------------

    def _encode(self, object_id, data):
        key = self.rng.bytes(32)
        nonce = self.rng.bytes(12)
        ciphertext = self.cipher.encrypt(key, nonce, data)
        groups = deal_key_limbs(key, self.committee_n, self.committee_t, self.rng)
        payloads = {shard.index: shard.data for shard in self.code.encode(ciphertext)}
        metadata = {
            "n": self.code.n,
            "k": self.code.k,
            "nonce": nonce.hex(),
            "ciphertext_length": len(ciphertext),
            "threshold": self.code.k,
        }
        return payloads, metadata, {"key": key, "key_groups": groups}

    def _seal(self, receipt: StoreReceipt, data: bytes) -> None:
        # The committee takes the key only once its ciphertext is placed:
        # a store that fails to place leaves no committee behind.
        self._key_groups[receipt.object_id] = receipt.escrow.pop("key_groups")

    def _quorum(self, receipt: StoreReceipt) -> int:
        # Degraded read: any k erasure shards decode the ciphertext.
        return receipt.metadata["k"]

    def _decode(self, receipt: StoreReceipt, shards: dict[int, bytes], regenerate):
        # The ciphertext's erasure decode rebuilds the rotted shards; the key
        # committee is not touched.
        ciphertext, rebuilt = self._ciphertext(receipt, shards, regenerate)
        nonce = bytes.fromhex(receipt.metadata["nonce"])
        groups = self._key_groups[receipt.object_id]
        key = join_key_limbs((group.reconstruct() for group in groups), self.cipher.key_size)
        return self.cipher.decrypt(key, nonce, ciphertext), rebuilt

    def _ciphertext(self, receipt: StoreReceipt, shards: dict[int, bytes], regenerate=()):
        ciphertext, rebuilt = self.code.decode_array(
            [Shard(index=i, data=p) for i, p in shards.items()],
            receipt.metadata["ciphertext_length"],
            regenerate=regenerate,
        )
        return ciphertext.tobytes(), {shard.index: shard.data for shard in rebuilt}

    # -- adversary --------------------------------------------------------------------

    def steal_key_shares(self, object_id: str, count: int) -> dict[int, list]:
        """Compromise *count* key-committee members (all limbs each)."""
        groups = self._key_groups[object_id]
        stolen: dict[int, list] = {}
        for index in list(range(1, self.committee_n + 1))[:count]:
            stolen[index] = [group.shares()[index] for group in groups]
        return stolen

    def attempt_recovery(
        self,
        object_id: str,
        stolen: dict[int, bytes],
        timeline: BreakTimeline,
        epoch: int,
        stolen_key_shares: dict[int, list] | None = None,
    ) -> bytes:
        receipt = self.receipt(object_id)
        if len(stolen) < self.code.k:
            raise DecodingError(
                f"{object_id}: adversary needs {self.code.k} shards "
                f"for the ciphertext"
            )
        ciphertext, _ = self._ciphertext(receipt, stolen)
        nonce = bytes.fromhex(receipt.metadata["nonce"])

        if stolen_key_shares and len(stolen_key_shares) >= self.committee_t:
            # Threshold compromise of the key committee: reconstruct the key
            # the honest way -- no cryptanalysis involved.  A stale or mixed
            # haul joins to a wrong key, not an error.
            limbs = (
                group.vss.reconstruct([shares[i] for shares in stolen_key_shares.values()])
                for i, group in enumerate(self._key_groups[object_id])
            )
            key = join_key_limbs(limbs, self.cipher.key_size)
            return self.cipher.decrypt(key, nonce, ciphertext)

        # Otherwise: harvested ciphertext waits for the cipher to fall.
        self._require_at_rest_broken(timeline, epoch)
        return self.cipher.decrypt(receipt.escrow["key"], nonce, ciphertext)
