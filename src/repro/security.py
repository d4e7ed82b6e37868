"""Security taxonomy shared across the library.

The paper's central axis (Section 2, "Computational vs. Information-Theoretic
Security") distinguishes schemes whose guarantees assume a bounded adversary
from schemes whose guarantees hold against unbounded adversaries.  Figure 1
then ranks data encodings on a qualitative "security level" axis.  This module
makes both notions concrete:

- :class:`SecurityNotion` -- the two-way computational/IT split used in
  security definitions (Definitions 2.1 and 2.2 of the paper).
- :class:`SecurityLevel` -- the ordinal scale used by the trade-off analyzer
  to place encodings on the Figure 1 x-axis.  The ordering is the paper's:
  no confidentiality < broken computational < computational < conditional
  information-theoretic (entropic or leakage-bounded assumptions) < perfect
  information-theoretic.
- :class:`CIAGoal` -- the classic confidentiality/integrity/availability
  triad used when classifying whole systems (Table 1).
- :func:`redact_secret` -- the one sanctioned way to render key/share bytes
  in reprs, logs, and error messages (length + digest prefix, never the
  material itself; enforced by archlint ARCH010).
"""

from __future__ import annotations

import enum
import functools
import hashlib

from repro.errors import ParameterError


def redact_secret(material: bytes | bytearray | memoryview | None) -> str:
    """Render secret *material* without revealing it.

    Returns ``"<empty>"``/``"<none>"`` for degenerate inputs, otherwise
    ``"<N bytes, sha256:xxxxxxxx>"`` -- enough to correlate two values in a
    debug session (equal digests <=> equal material, within sha256) while
    leaking nothing an adversary can invert.  Every ``__repr__`` of a
    dataclass carrying keys or shares routes through here.
    """
    if material is None:
        return "<none>"
    data = bytes(material)
    if not data:
        return "<empty>"
    digest = hashlib.sha256(data).hexdigest()[:8]
    return f"<{len(data)} bytes, sha256:{digest}>"


class CIAGoal(enum.Enum):
    """The classic information-security triad (paper Section 2)."""

    CONFIDENTIALITY = "confidentiality"
    INTEGRITY = "integrity"
    AVAILABILITY = "availability"


class SecurityNotion(enum.Enum):
    """Whether a guarantee assumes a computationally bounded adversary."""

    NONE = "none"
    COMPUTATIONAL = "computational"
    INFORMATION_THEORETIC = "information-theoretic"

    @property
    def label(self) -> str:
        """Table 1 label: the paper prints 'ITS' for information-theoretic."""
        if self is SecurityNotion.INFORMATION_THEORETIC:
            return "ITS"
        return self.value.capitalize()


@functools.total_ordering
class SecurityLevel(enum.Enum):
    """Ordinal security scale for the Figure 1 x-axis.

    Values are (rank, description).  Higher rank = further right in Figure 1.
    """

    NONE = (0, "no confidentiality: plaintext recoverable from any share")
    BROKEN = (1, "computational scheme whose primitive has been broken")
    COMPUTATIONAL = (2, "secure against PPT adversaries under hardness assumptions")
    COMPUTATIONAL_COMBINED = (
        3,
        "robust combiner: secure while at least one member primitive holds",
    )
    ITS_CONDITIONAL = (
        4,
        "information-theoretic under side conditions (entropy or leakage bounds)",
    )
    ITS_PERFECT = (5, "perfect information-theoretic secrecy (epsilon = 0)")

    @property
    def rank(self) -> int:
        return self.value[0]

    @property
    def description(self) -> str:
        return self.value[1]

    def __lt__(self, other: "SecurityLevel") -> bool:
        if not isinstance(other, SecurityLevel):
            return NotImplemented
        return self.rank < other.rank

    @property
    def notion(self) -> SecurityNotion:
        """Collapse the ordinal scale back to the two-way notion."""
        if self.rank <= SecurityLevel.BROKEN.rank:
            return SecurityNotion.NONE
        if self.rank <= SecurityLevel.COMPUTATIONAL_COMBINED.rank:
            return SecurityNotion.COMPUTATIONAL
        return SecurityNotion.INFORMATION_THEORETIC


class StorageCostBand(enum.Enum):
    """Table 1's qualitative storage-cost buckets.

    The paper buckets systems as Low / High (PASIS spans "Low-High" because
    its encoding is per-object configurable).  ``classify_overhead`` maps a
    measured stored-bytes/plaintext-bytes ratio to a bucket; the 2.5x border
    separates erasure-style overheads (n/k, typically 1.3-2x) from
    replication-style overheads (n copies, >= 3x in dispersed deployments).
    """

    LOW = "Low"
    HIGH = "High"
    VARIABLE = "Low-High"

    @staticmethod
    def classify_overhead(ratio: float) -> "StorageCostBand":
        if ratio < 0:
            raise ParameterError(f"storage overhead ratio must be >= 0, got {ratio}")
        return StorageCostBand.LOW if ratio < 2.5 else StorageCostBand.HIGH
