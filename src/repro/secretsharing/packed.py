"""Packed (Franklin-Yung) secret sharing over GF(256).

Figure 1 of the paper places "Packed Secret Sharing" strictly below Shamir on
the storage-cost axis at comparable security: by encoding *k* secrets into
one polynomial of degree t + k - 1, each share is only 1/k-th of the message,
for an overhead of n/k instead of n.

The price is threshold slack: privacy still holds against any t shares, but
reconstruction now needs t + k shares (so the loss tolerance drops to
n - t - k).  This trade is exactly the kind of "more storage-efficient, same
information-theoretic guarantee, weaker availability" point the paper's
trade-off discussion centers on.

Construction: the k message chunks are the polynomial's values at k reserved
evaluation points (the top of the field, 255 downward); t uniformly random
values at the first t share points make the polynomial uniform conditioned on
the secrets.  Shares are evaluations at points 1..n.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import DecodingError, ParameterError
from repro.gmath.gf256 import GF256
from repro.gmath.kernel import gf256_matmul, lagrange_matrix_plan, rows_as_matrix
from repro.secretsharing.base import Share, SplitResult, record_reconstruct, record_split
from repro.security import SecurityLevel


class PackedSecretSharing:
    """(t, k, n) packed sharing: t-privacy, k secrets, t+k to reconstruct."""

    name = "packed"
    security_level = SecurityLevel.ITS_PERFECT

    def __init__(self, n: int, t: int, k: int):
        if t < 1 or k < 1:
            raise ParameterError("t and k must be >= 1")
        if n < t + k:
            raise ParameterError(f"need n >= t + k shares to reconstruct (n={n}, t={t}, k={k})")
        if n + k > 255:
            raise ParameterError(f"n + k must be <= 255 over GF(256), got {n + k}")
        self.n = n
        self.t = t
        self.k = k
        self.share_points = list(range(1, n + 1))
        #: Reserved points carrying the message chunks (disjoint from shares).
        self.secret_points = [255 - j for j in range(k)]
        #: Interpolation anchors: the k secret points plus t share points.
        self.anchor_points = self.secret_points + self.share_points[: t]

    @property
    def reconstruction_threshold(self) -> int:
        return self.t + self.k

    @property
    def storage_overhead(self) -> float:
        """Each share is 1/k of the message: overhead = n / k."""
        return self.n / self.k

    # -- splitting ------------------------------------------------------------------

    def split(self, data: bytes, rng: DeterministicRandom) -> SplitResult:
        chunk_rows, original = self._chunk(data)
        random_rows = [rng.uint8_array(chunk_rows[0].size) for _ in range(self.t)]
        anchor_rows = rows_as_matrix(chunk_rows + random_rows)

        # P(x) for the first t share points *is* the random value; the
        # remaining n - t shares are one cached-plan kernel call.
        tail_points = tuple(self.share_points[self.t :])
        tail = (
            gf256_matmul(
                lagrange_matrix_plan(tuple(self.anchor_points), tail_points),
                anchor_rows,
            )
            if tail_points
            else None
        )
        shares = []
        for i, x in enumerate(self.share_points):
            payload = random_rows[i] if i < self.t else tail[i - self.t]
            shares.append(Share(scheme=self.name, index=x, payload=payload.tobytes()))
        record_split(self.name, original, self.n)
        return SplitResult(
            scheme=self.name,
            shares=tuple(shares),
            threshold=self.reconstruction_threshold,
            total=self.n,
            original_length=original,
        )

    def reconstruct(self, shares: Sequence[Share] | SplitResult, original_length: int | None = None) -> bytes:
        if isinstance(shares, SplitResult):
            if original_length is None:
                original_length = shares.original_length
            share_list = list(shares.shares)
        else:
            share_list = list(shares)
            if original_length is None:
                raise ParameterError("original_length required when passing raw shares")
        chosen = self._select(share_list)
        xs = tuple(s.index for s in chosen)
        rows = rows_as_matrix(
            [np.frombuffer(s.payload, dtype=np.uint8) for s in chosen]
        )
        chunk_rows = gf256_matmul(
            lagrange_matrix_plan(xs, tuple(self.secret_points)), rows
        )
        flat = chunk_rows.reshape(-1)
        if original_length > flat.size:
            raise DecodingError("original_length exceeds reconstructed size")
        record_reconstruct(self.name, original_length)
        return flat[:original_length].tobytes()

    # -- helpers ---------------------------------------------------------------------

    def _chunk(self, data: bytes) -> tuple[list[np.ndarray], int]:
        original = len(data)
        row_len = max(1, -(-original // self.k))
        padded = np.zeros(row_len * self.k, dtype=np.uint8)
        padded[:original] = np.frombuffer(data, dtype=np.uint8)
        return [padded[i * row_len : (i + 1) * row_len] for i in range(self.k)], original

    # -- proactive renewal support ---------------------------------------------------

    def renewal_delta_rows(self, length: int, rng: DeterministicRandom) -> list[np.ndarray]:
        """Coefficient rows of a random renewal polynomial for packed shares.

        Herzberg renewal for Shamir uses deltas vanishing at x = 0; packed
        sharing stores k secrets at k reserved points, so a valid delta
        must vanish at ALL of them: delta(x) = Z(x) * r(x), where
        ``Z(x) = prod_j (x - s_j)`` and r is random of degree t - 1.  The
        product has degree t + k - 1 -- the scheme's degree -- so adding
        ``delta(x_i)`` to every share re-randomizes the sharing while every
        packed secret is untouched.
        """
        zero_poly = [1]  # coefficients of Z(x), ascending
        for secret_point in self.secret_points:
            # Multiply by (x - s) = (x + s) in characteristic 2.
            next_coeffs = [0] * (len(zero_poly) + 1)
            for degree, coefficient in enumerate(zero_poly):
                next_coeffs[degree + 1] ^= coefficient
                next_coeffs[degree] ^= GF256.mul(coefficient, secret_point)
            zero_poly = next_coeffs
        random_rows = [rng.uint8_array(length) for _ in range(self.t)]
        # delta coefficients: convolution of Z (scalars) with r (byte rows).
        delta_rows = [
            np.zeros(length, dtype=np.uint8)
            for _ in range(len(zero_poly) + self.t - 1)
        ]
        for z_degree, z_coefficient in enumerate(zero_poly):
            if not z_coefficient:
                continue
            for r_degree, row in enumerate(random_rows):
                delta_rows[z_degree + r_degree] ^= GF256.scalar_mul_vec(
                    z_coefficient, row
                )
        return delta_rows

    def evaluate_delta(self, delta_rows: list[np.ndarray], x: int) -> np.ndarray:
        """Evaluate renewal delta rows at a share point."""
        if x not in self.share_points:
            raise ParameterError(f"x={x} is not a share point")
        return GF256.poly_eval_vec(delta_rows, x)

    def _select(self, shares: Sequence[Share]) -> list[Share]:
        seen: dict[int, Share] = {}
        for share in shares:
            if share.index not in self.share_points:
                raise DecodingError(f"share index {share.index} invalid for n={self.n}")
            seen.setdefault(share.index, share)
        needed = self.reconstruction_threshold
        if len(seen) < needed:
            raise DecodingError(
                f"packed sharing needs {needed} shares (t + k), got {len(seen)}"
            )
        chosen = [seen[i] for i in sorted(seen)][:needed]
        lengths = {len(s.payload) for s in chosen}
        if len(lengths) != 1:
            raise DecodingError(f"inconsistent share lengths: {sorted(lengths)}")
        return chosen


register_primitive(
    name="packed",
    kind=PrimitiveKind.SECRET_SHARING,
    description="Franklin-Yung packed secret sharing (k secrets per polynomial)",
    hardness_assumption=None,
)
