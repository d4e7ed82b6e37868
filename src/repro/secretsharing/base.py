"""Common share containers and the instrumentation every scheme shares.

Every splitting scheme in the package produces :class:`Share` objects and a
:class:`SplitResult` wrapper carrying whatever public metadata the scheme
needs at reconstruction time (original length, packing width, public masked
values...).  Keeping metadata explicit and *public by construction* forces
each scheme to be honest about what an adversary holding a share actually
sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ParameterError
from repro.gmath.kernel import interpolate_rows
from repro.obs import metrics as _metrics
from repro.security import redact_secret


@dataclass(frozen=True)
class Share:
    """One share of a split object.

    Attributes
    ----------
    scheme:
        Name of the producing scheme (e.g. ``"shamir"``).
    index:
        The shareholder index; for polynomial schemes this is the x-value.
    payload:
        The share bytes an adversary stealing this share would obtain.
    """

    scheme: str
    index: int
    payload: bytes

    def __len__(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:
        return (
            f"Share(scheme={self.scheme!r}, index={self.index}, "
            f"payload={redact_secret(self.payload)})"
        )


@dataclass(frozen=True)
class SplitResult:
    """Shares plus the public metadata needed to reconstruct."""

    scheme: str
    shares: tuple[Share, ...]
    threshold: int
    total: int
    original_length: int
    #: Scheme-specific public values (treated as known to the adversary).
    public: dict = field(default_factory=dict)

    @property
    def stored_bytes(self) -> int:
        """Total bytes that hit storage media (shares + public metadata)."""
        public_bytes = sum(
            len(v) for v in self.public.values() if isinstance(v, (bytes, bytearray))
        )
        return sum(len(s) for s in self.shares) + public_bytes

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per plaintext byte -- the Figure 1 y-axis."""
        if self.original_length == 0:
            return float(self.total)
        return self.stored_bytes / self.original_length


# -- instrumentation helpers shared by every scheme ----------------------------


def record_split(scheme: str, plaintext_bytes: int, shares_produced: int) -> None:
    """Account one split: plaintext consumed and shares emitted."""
    _metrics.inc("secretsharing_splits_total", scheme=scheme)
    _metrics.inc("secretsharing_encode_bytes_total", plaintext_bytes, scheme=scheme)
    _metrics.inc("secretsharing_shares_produced_total", shares_produced, scheme=scheme)


def record_reconstruct(scheme: str, plaintext_bytes: int) -> None:
    """Account one reconstruction: plaintext recovered."""
    _metrics.inc("secretsharing_reconstructs_total", scheme=scheme)
    _metrics.inc("secretsharing_decode_bytes_total", plaintext_bytes, scheme=scheme)


def interpolate_with_shares(
    scheme: str,
    quorum: Sequence[Share],
    targets: tuple[int, ...],
    regenerate: Sequence[int] | None,
    points: Sequence[int],
) -> tuple[np.ndarray, list[Share]]:
    """One interpolation through a decode *quorum*: the rows at *targets*
    (the scheme's secret points) plus the shares at the share indices
    *regenerate* (None: none).

    For schemes whose share i is one polynomial's value at x = i (Shamir,
    packed; *points* are the scheme's share points), the quorum a read
    decodes from fixes every other share byte for byte, so repair rebuilds
    a rotted share in the decode's own matmul, without drawing randomness
    or touching a healthy share.
    """
    wanted = tuple(regenerate or ())
    unknown = [index for index in wanted if index not in points]
    if unknown:
        raise ParameterError(f"share indices {unknown} are not share points of {scheme}")
    values = interpolate_rows(
        tuple(share.index for share in quorum),
        [np.frombuffer(share.payload, dtype=np.uint8) for share in quorum],
        targets + wanted,
    )
    rebuilt = [
        Share(scheme=scheme, index=index, payload=row.tobytes())
        for index, row in zip(wanted, values[len(targets) :])
    ]
    return values[: len(targets)], rebuilt
