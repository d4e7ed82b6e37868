"""The VSR Archive (Wong, Wang, Wing -- SISW '02).

Paper, Section 3.2: "Wong et al. suggest using a version of proactive secret
sharing for secure archival with the desirable feature of adding or removing
shareholders in each share renewal phase."  Table 1: Computational transit /
ITS at rest / High cost.

The system composes:

- Shamir sharing at rest across independent providers;
- periodic *verifiable secret redistribution* (not just renewal): each
  refresh can move to a different (n', t'), onboarding or retiring
  providers, via :func:`repro.secretsharing.redistribution.redistribute`;
- old shares are destroyed after redistribution, so a mobile adversary's
  pre-refresh haul cannot combine with post-refresh shares (different
  polynomials *and* possibly different thresholds).

Communication accounting from every redistribution is retained so the cost
benchmark can reproduce "this incurs high communication costs ... may become
impractical for the same reasons as re-encryption."
"""

from __future__ import annotations

from repro.errors import ParameterError
from repro.secretsharing.redistribution import RedistributionReport, redistribute
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.systems.base import ArchivalSystem, StoreReceipt, as_shares, share_payloads


class VsrArchive(ArchivalSystem):
    """Shamir archive with verifiable secret redistribution."""

    name = "VSR Archive"
    citation = "[67]"
    at_rest_relies_on = ()

    def __init__(self, nodes, rng, n: int = 5, t: int = 3):
        super().__init__(nodes, rng)
        self.scheme = ShamirSecretSharing(n, t)
        self.redistribution_reports: list[RedistributionReport] = []
        #: Epoch tag carried by every live share set, bumped per refresh.
        self.share_generation = 0

    def _encode(self, object_id, data):
        metadata = {
            "n": self.scheme.n,
            "t": self.scheme.t,
            "generation": self.share_generation,
        }
        return share_payloads(self.scheme.split(data, self.rng).shares), metadata, {}

    def _quorum(self, receipt: StoreReceipt) -> int:
        # Degraded read: any t shares of the current generation suffice.
        return receipt.metadata["t"]

    def _decode(self, receipt: StoreReceipt, shares: dict[int, bytes], regenerate):
        scheme = self._scheme_for(receipt)
        data, rebuilt = scheme.reconstruct(as_shares("shamir", shares), regenerate=regenerate)
        return data[: receipt.original_length], share_payloads(rebuilt)

    def _scheme_for(self, receipt: StoreReceipt) -> ShamirSecretSharing:
        return ShamirSecretSharing(receipt.metadata["n"], receipt.metadata["t"])

    # -- redistribution ------------------------------------------------------------------

    def redistribute_all(self, new_n: int, new_t: int) -> list[RedistributionReport]:
        """Move every object to a fresh (new_n, new_t) share set.

        The old shares are deleted from the nodes afterwards -- leaving them
        would hand a mobile adversary a frozen, never-refreshed target.
        """
        if not 1 <= new_t <= new_n:
            raise ParameterError(f"invalid new parameters n={new_n} t={new_t}")
        new_scheme = ShamirSecretSharing(new_n, new_t)
        reports = []
        for receipt in list(self._receipts.values()):
            fetched = self._fetch_shares(receipt)
            placement = self.placement_policy.place(receipt.object_id, new_scheme.points)
            new_split, report = redistribute(
                self._scheme_for(receipt),
                as_shares("shamir", fetched),
                new_scheme,
                receipt.original_length,
                self.rng,
            )
            reports.append(report)
            self._replace_shares(receipt, placement, share_payloads(new_split.shares))
            receipt.metadata.update(
                {"n": new_n, "t": new_t, "generation": self.share_generation + 1}
            )
        self.scheme = new_scheme
        self.share_generation += 1
        self.redistribution_reports.extend(reports)
        return reports
