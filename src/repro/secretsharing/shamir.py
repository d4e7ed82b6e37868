"""Shamir's (t, n) threshold secret sharing over GF(256).

Paper, Section 3.2: "A generalization of the One-Time Pad is Shamir's secret
sharing.  It takes a message m as input, and outputs n shares s_1, ..., s_n,
with |s_i| = |m|, such that any subset of t <= n or more shares suffices to
recover m, but fewer than t shares leaves m perfectly secret."

The scheme is applied bytewise: byte position b of the message is the
constant term of an independent random polynomial of degree t-1, and share i
holds that polynomial's value at x = i across all byte positions.  The paper
notes (citing McEliece-Sarwate) that this is exactly a non-systematic [n, t]
Reed-Solomon code applied to (m, r_1, ..., r_{t-1}); ``tests/`` verifies the
equivalence against :class:`repro.gmath.reedsolomon.ReedSolomonCode`.

Storage cost: every share is as large as the message, so the overhead is a
full factor of n -- "the same overhead as replication with less availability"
(we tolerate only n - t losses).  This provably unavoidable cost (Beimel) is
the left anchor of the paper's efficiency/security trade-off.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import DecodingError, ParameterError
from repro.gmath.kernel import (
    gf256_matmul,
    rows_as_matrix,
    vandermonde_plan,
)
from repro.secretsharing.base import (
    Share,
    SplitResult,
    interpolate_with_shares,
    record_reconstruct,
    record_split,
)
from repro.security import SecurityLevel

_MAX_SHARES = 255


class ShamirSecretSharing:
    """Shamir threshold sharing with perfect (information-theoretic) secrecy."""

    name = "shamir"
    security_level = SecurityLevel.ITS_PERFECT

    def __init__(self, n: int, t: int):
        if not 1 <= t <= n <= _MAX_SHARES:
            raise ParameterError(f"need 1 <= t <= n <= {_MAX_SHARES}, got n={n} t={t}")
        self.n = n
        self.t = t
        #: x-coordinates of the shares; x = 0 is reserved for the secret.
        self.points = list(range(1, n + 1))

    @property
    def storage_overhead(self) -> float:
        """Each of n shares is message-sized: overhead = n (replication-like)."""
        return float(self.n)

    # -- splitting ----------------------------------------------------------------

    def split(self, data: bytes, rng: DeterministicRandom) -> SplitResult:
        """Split *data* into n shares, any t of which reconstruct it.

        One batched kernel call: the share matrix is the cached (n, t)
        Vandermonde plan applied to the coefficient rows ``[secret, r_1,
        ..., r_{t-1}]`` -- n Horner passes collapsed into a single matmul.
        """
        secret = np.frombuffer(data, dtype=np.uint8)
        coefficients = np.empty((self.t, secret.size), dtype=np.uint8)
        coefficients[0] = secret
        if self.t > 1:
            # One bulk draw; byte-identical to t-1 consecutive row draws.
            coefficients[1:] = rng.uint8_array(
                (self.t - 1) * secret.size
            ).reshape(self.t - 1, secret.size)
        evaluated = gf256_matmul(
            vandermonde_plan(tuple(self.points), self.t), coefficients
        )
        shares = tuple(
            Share(scheme=self.name, index=x, payload=evaluated[i].tobytes())
            for i, x in enumerate(self.points)
        )
        record_split(self.name, len(data), self.n)
        return SplitResult(
            scheme=self.name,
            shares=shares,
            threshold=self.t,
            total=self.n,
            original_length=len(data),
        )

    # -- reconstruction --------------------------------------------------------------

    def reconstruct(
        self,
        shares: Sequence[Share] | SplitResult,
        *,
        regenerate: Sequence[int] | None = None,
    ) -> bytes | tuple[bytes, list[Share]]:
        """Recover the secret from any t distinct shares.

        With *regenerate* (share indices), returns ``(secret, shares)``:
        the shares at those indices, rebuilt byte for byte by the same
        interpolation -- one (1 + len(regenerate), t) matmul, no fresh split.
        """
        share_list = list(shares.shares) if isinstance(shares, SplitResult) else list(shares)
        # Cached Lagrange plan at zero (and at the rebuilt points): one matmul.
        rows, rebuilt = interpolate_with_shares(
            self.name, self._select(share_list), (0,), regenerate, self.points
        )
        record_reconstruct(self.name, rows[0].size)
        secret = rows[0].tobytes()
        return secret if regenerate is None else (secret, rebuilt)

    def _select(self, shares: Sequence[Share]) -> list[Share]:
        seen: dict[int, Share] = {}
        for share in shares:
            if not 1 <= share.index <= self.n:
                raise DecodingError(
                    f"share index {share.index} out of range for n={self.n}"
                )
            existing = seen.get(share.index)
            if existing is not None and existing.payload != share.payload:
                raise DecodingError(f"conflicting payloads for share {share.index}")
            seen.setdefault(share.index, share)
        if len(seen) < self.t:
            raise DecodingError(
                f"need {self.t} distinct shares to reconstruct, got {len(seen)}"
            )
        chosen = [seen[i] for i in sorted(seen)][: self.t]
        lengths = {len(s.payload) for s in chosen}
        if len(lengths) != 1:
            raise DecodingError(f"inconsistent share lengths: {sorted(lengths)}")
        return chosen

    # -- share algebra used by proactive renewal ----------------------------------------

    def zero_share_rows(self, length: int, rng: DeterministicRandom) -> list[np.ndarray]:
        """Coefficient rows of a random degree t-1 polynomial with zero
        constant term -- the renewal polynomial of proactive sharing."""
        zero = np.zeros(length, dtype=np.uint8)
        return [zero] + [rng.uint8_array(length) for _ in range(self.t - 1)]

    def evaluate_rows(self, coefficient_rows: list[np.ndarray], x: int) -> np.ndarray:
        """Evaluate vector-coefficient polynomial at share point x."""
        if x not in self.points:
            raise ParameterError(f"x={x} is not a share point of this scheme")
        plan = vandermonde_plan((x,), len(coefficient_rows))
        return gf256_matmul(plan, rows_as_matrix(coefficient_rows))[0]

    def evaluate_rows_at(
        self, coefficient_rows: list[np.ndarray], xs: Sequence[int]
    ) -> np.ndarray:
        """Evaluate vector-coefficient polynomial at many share points at
        once (one kernel call; proactive renewal's per-receiver loop)."""
        for x in xs:
            if x not in self.points:
                raise ParameterError(f"x={x} is not a share point of this scheme")
        plan = vandermonde_plan(tuple(xs), len(coefficient_rows))
        return gf256_matmul(plan, rows_as_matrix(coefficient_rows))


register_primitive(
    name="shamir",
    kind=PrimitiveKind.SECRET_SHARING,
    description="Shamir (t, n) threshold sharing over GF(256)",
    hardness_assumption=None,
)
