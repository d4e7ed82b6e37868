"""Long-term verification of timestamp chains against a break timeline.

The verification rule is the paper's intuition made precise: "signing an old
signature with a new signature preserves the integrity of both as long as
the old signature has not been broken at the time the new signature was
computed."  Concretely, link i's scheme must still have been unbroken at the
epoch the *next* link was created (the last link's scheme must be unbroken
*now*): a renewal that lands after its predecessor's break epoch arrives too
late -- in the gap, a forger could have rewritten history and then obtained
an honest-looking renewal over the forgery.

:class:`ChainAuditor` returns a structured verdict rather than a boolean so
benchmarks and tests can distinguish the failure modes (bad signature,
broken-now head, late renewal, sequence break).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.registry import BreakTimeline
from repro.crypto.sha256 import sha256
from repro.integrity.timestamp import (
    ChainSigner,
    ChainVerifier,
    TimestampChain,
    TimestampLink,
)


@dataclass
class ChainVerdict:
    valid: bool
    checked_links: int
    failures: list[str] = field(default_factory=list)

    def explain(self) -> str:
        if self.valid:
            return f"chain valid ({self.checked_links} links)"
        return "; ".join(self.failures)


class ChainAuditor:
    """Verifies chains given the signers' verification callbacks."""

    def __init__(self, verifiers: dict[bytes, ChainVerifier]):
        """*verifiers* maps signer identity bytes to the signer (or
        verifier) able to check that identity's signatures."""
        self.verifiers = dict(verifiers)

    def register(self, signer: ChainVerifier) -> None:
        self.verifiers[signer.public_identity()] = signer

    def audit(
        self,
        chain: TimestampChain,
        timeline: BreakTimeline,
        now_epoch: int,
    ) -> ChainVerdict:
        failures: list[str] = []
        prev_digest = b"\x00" * 32

        for position, link in enumerate(chain.links):
            # Structural linkage.
            if link.index != position:
                failures.append(f"link {position}: index {link.index} out of sequence")
            # Chain-link digests are public ledger state (anyone can recompute
            # them from the published links); no secret material to protect.
            if link.prev_digest != prev_digest:  # noqa: ARCH004 - public chain link
                failures.append(f"link {position}: does not extend predecessor")
            prev_digest = link.digest()

            # Signature validity (a cryptographic check, always required).
            verifier = self.verifiers.get(link.signer_identity)
            if verifier is None:
                failures.append(f"link {position}: unknown signer")
            elif not verifier.verify(link.signed_message(), link.signature):
                failures.append(f"link {position}: signature invalid")

            # Temporal validity: the scheme must have survived until the
            # moment it was superseded (or until now, for the head).
            superseded_at = (
                chain.links[position + 1].epoch
                if position + 1 < len(chain.links)
                else now_epoch
            )
            break_epoch = timeline.break_epoch(link.scheme)
            if break_epoch is not None and break_epoch <= superseded_at:
                if position + 1 < len(chain.links):
                    failures.append(
                        f"link {position}: scheme {link.scheme} broke at epoch "
                        f"{break_epoch}, before renewal at epoch {superseded_at}"
                    )
                else:
                    failures.append(
                        f"link {position} (head): scheme {link.scheme} broken at "
                        f"epoch {break_epoch} <= now ({now_epoch}) with no renewal"
                    )

        return ChainVerdict(
            valid=not failures, checked_links=len(chain.links), failures=failures
        )

    def audit_renewal_cadence(
        self, chain: TimestampChain, timeline: BreakTimeline, now_epoch: int
    ) -> ChainVerdict:
        """Convenience wrapper whose name documents intent at call sites."""
        return self.audit(chain, timeline, now_epoch)


def forged_link_after_break(
    chain: TimestampChain,
    forged_document: bytes,
    forger_signer: ChainSigner,
    epoch: int,
) -> TimestampLink:
    """Construct the forgery a post-break adversary would insert.

    Used by tests/benchmarks: with the toy-RSA modulus factored, the
    adversary signs an arbitrary document as if it had been timestamped long
    ago.  A chain that renewed in time still rejects it (the forged link
    cannot extend the *renewed* head); a chain that renewed late accepts the
    rewritten history, which is exactly the auditor's late-renewal failure.
    """
    unsigned = TimestampLink(
        index=len(chain.links),
        epoch=epoch,
        scheme=forger_signer.scheme_name,
        reference=sha256(forged_document),
        reference_kind="hash",
        prev_digest=chain.head_digest,
        signature=b"",
        signer_identity=forger_signer.public_identity(),
    )
    signature = forger_signer.sign(unsigned.signed_message())
    return TimestampLink(
        index=unsigned.index,
        epoch=unsigned.epoch,
        scheme=unsigned.scheme,
        reference=unsigned.reference,
        reference_kind=unsigned.reference_kind,
        prev_digest=unsigned.prev_digest,
        signature=signature,
        signer_identity=unsigned.signer_identity,
    )
