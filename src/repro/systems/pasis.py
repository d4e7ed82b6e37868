"""PASIS (Ganger et al., CMU): the configurable threshold-scheme engine.

Paper, Sections 3.2/4: PASIS "investigated several approaches but left users
to decide which one was best for their data" -- the original "no one size
fits all" position.  Table 1 reflects that: at-rest confidentiality "ITS
(sometimes)", storage cost "Low-High", both depending on the per-object
policy.

Three policies, selectable per stored object:

- ``REPLICATION`` -- r full copies: no confidentiality, lowest complexity;
- ``ERASURE`` -- systematic [n, k] Reed-Solomon: no confidentiality (the
  first k shards are plaintext), n/k cost;
- ``SHAMIR`` -- (t, n) secret sharing: perfect secrecy, n-times cost.

The measured Table 1 row therefore depends on the workload mix, which is
exactly what the benchmark demonstrates by sweeping it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.gmath.reedsolomon import ReedSolomonCode, Shard
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.security import SecurityNotion
from repro.systems.base import ArchivalSystem, StoreReceipt, as_shares, share_payloads


class PasisPolicy(enum.Enum):
    REPLICATION = "replication"
    ERASURE = "erasure"
    SHAMIR = "shamir"

    @property
    def confidential(self) -> bool:
        return self is PasisPolicy.SHAMIR


@dataclass(frozen=True)
class PasisParameters:
    policy: PasisPolicy
    n: int
    threshold: int  # copies needed / k / t depending on policy

    def metadata(self) -> dict:
        """The receipt metadata an object stored under these parameters
        carries; :meth:`from_metadata` reads it back."""
        return {"policy": self.policy.value, "n": self.n, "threshold": self.threshold}

    @classmethod
    def from_metadata(cls, metadata: dict) -> "PasisParameters":
        return cls(PasisPolicy(metadata["policy"]), metadata["n"], metadata["threshold"])


class Pasis(ArchivalSystem):
    """Per-object policy engine over a shared provider fleet."""

    name = "PASIS"
    citation = "[27]"
    at_rest_relies_on = ()  # resolved per object; see at_rest_security_for

    def __init__(self, nodes, rng, default_parameters: PasisParameters | None = None):
        super().__init__(nodes, rng)
        self.default_parameters = default_parameters or PasisParameters(
            PasisPolicy.SHAMIR, n=5, threshold=3
        )

    # -- policy-dependent classification ------------------------------------------------

    def at_rest_security_for(self, object_id: str) -> SecurityNotion:
        if PasisPolicy(self.receipt(object_id).metadata["policy"]).confidential:
            return SecurityNotion.INFORMATION_THEORETIC
        return SecurityNotion.NONE

    @property
    def at_rest_security(self) -> SecurityNotion:
        """Fleet-level answer: ITS only if *every* stored object used a
        confidential policy -- Table 1's 'ITS (sometimes)'."""
        if not self._receipts:
            return SecurityNotion.NONE
        notions = {self.at_rest_security_for(oid) for oid in self._receipts}
        if notions == {SecurityNotion.INFORMATION_THEORETIC}:
            return SecurityNotion.INFORMATION_THEORETIC
        return SecurityNotion.NONE

    # -- store / retrieve ------------------------------------------------------------------

    def store(
        self,
        object_id: str,
        data: bytes,
        parameters: PasisParameters | None = None,
    ) -> StoreReceipt:
        self._reject_known(object_id)
        return self._commit(object_id, data, *self._encode(object_id, data, parameters))

    def _encode(self, object_id, data, parameters: PasisParameters | None = None):
        params = parameters or self.default_parameters
        if params.policy is PasisPolicy.REPLICATION:
            if params.n < 1:
                raise ParameterError("replication needs n >= 1")
            payloads = {i: data for i in range(params.n)}
        elif params.policy is PasisPolicy.ERASURE:
            code = ReedSolomonCode(params.n, params.threshold)
            payloads = {s.index: s.data for s in code.encode(data)}
        else:
            scheme = ShamirSecretSharing(params.n, params.threshold)
            payloads = share_payloads(scheme.split(data, self.rng).shares)
        return payloads, params.metadata(), {}

    def _quorum(self, receipt: StoreReceipt) -> int:
        # Degraded read: the per-object policy's threshold is the quorum.
        # Replication and erasure give the adversary plaintext at it (no
        # confidentiality); Shamir needs it -- and never breaks.
        return receipt.metadata["threshold"]

    def _decode(self, receipt: StoreReceipt, shares: dict[int, bytes], regenerate):
        # Each policy rebuilds the rotted shares from the quorum it decoded:
        # the replica itself, or the same erasure or Shamir interpolation.
        params = PasisParameters.from_metadata(receipt.metadata)
        if params.policy is PasisPolicy.REPLICATION:
            replica = next(iter(shares.values()))
            return replica[: receipt.original_length], dict.fromkeys(regenerate, replica)
        if params.policy is PasisPolicy.ERASURE:
            code = ReedSolomonCode(params.n, params.threshold)
            shards = [Shard(index=i, data=p) for i, p in shares.items()]
            data, rebuilt = code.decode_array(shards, receipt.original_length, regenerate)
            return data.tobytes(), {shard.index: shard.data for shard in rebuilt}
        scheme = ShamirSecretSharing(params.n, params.threshold)
        data, rebuilt = scheme.reconstruct(as_shares("shamir", shares), regenerate=regenerate)
        return data[: receipt.original_length], share_payloads(rebuilt)
