"""Reed-Solomon erasure codes over GF(2^8).

Two variants, matching the paper's usage:

- **Systematic** ``[n, k]`` codes: the first *k* codeword symbols are the
  message itself, the remaining ``n - k`` are parity.  This is what AONT-RS
  and plain erasure-coded availability use.
- **Non-systematic** evaluation codes: the codeword is the polynomial whose
  *coefficients* are the message, evaluated at *n* points.  The paper (citing
  McEliece-Sarwate) notes Shamir's secret sharing is exactly a non-systematic
  ``[n, t]`` RS code applied to ``(m, r_1, ..., r_{t-1})``; we expose this
  form so the equivalence is testable.

Every bulk data path is one call into the batched GF(256) kernel
(:func:`repro.gmath.kernel.gf256_matmul`): a stripe of *k* byte-rows becomes
*n* byte-rows with a single cached-plan matrix product -- no per-coefficient
Python loop, and the Vandermonde inverses that degraded reads need are
LRU-cached by survivor set instead of re-derived O(k^3) per read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import DecodingError, ParameterError
from repro.gmath.kernel import (
    gf256_matmul,
    lagrange_matrix_plan,
    rows_as_matrix,
    rs_decode_plan,
    vandermonde_inverse_plan,
    vandermonde_plan,
)
from repro.obs import metrics as _metrics

_MAX_SYMBOLS = 255  # evaluation points are the nonzero field elements


def _as_payload_array(data) -> np.ndarray:
    """View bytes-like *data* as a flat uint8 array without copying."""
    if isinstance(data, np.ndarray):
        if data.dtype != np.uint8 or data.ndim != 1:
            raise ParameterError("payload array must be a flat uint8 array")
        return data
    return np.frombuffer(data, dtype=np.uint8)


@dataclass(frozen=True)
class Shard:
    """One erasure-coded shard: its codeword index plus payload bytes."""

    index: int
    data: bytes

    def __len__(self) -> int:
        return len(self.data)


class ReedSolomonCode:
    """A ``[n, k]`` Reed-Solomon erasure code over GF(256).

    Evaluation points are ``1..n`` (zero is reserved so the non-systematic
    form can hide a secret at x = 0, Shamir-style).

    Parameters
    ----------
    n:
        Total number of shards produced (codeword length).
    k:
        Number of shards required to reconstruct (dimension).
    """

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n <= _MAX_SYMBOLS:
            raise ParameterError(f"need 1 <= k <= n <= {_MAX_SYMBOLS}, got n={n} k={k}")
        self.n = n
        self.k = k
        self.points = list(range(1, n + 1))
        # The parity plan: for each parity point x, the Lagrange coefficients
        # mapping the k systematic rows to row(x).  Shared LRU cache, so all
        # [n, k] code instances reuse one plan.
        self._parity_plan = lagrange_matrix_plan(
            tuple(self.points[:k]), tuple(self.points[k:])
        )

    # -- helpers ---------------------------------------------------------------

    @property
    def storage_overhead(self) -> float:
        """Stored bytes per plaintext byte (n / k)."""
        return self.n / self.k

    def _split_rows(self, data) -> tuple[np.ndarray, int]:
        """Pad *data* and reshape into a (k, row_len) byte matrix.

        *data* may be bytes-like or a flat uint8 array (e.g. an AONT package
        handed along without a ``bytes()`` round-trip).  Returns the matrix
        and the original length (needed to strip padding on decode).  Padding
        is zeros; the true length is carried out-of-band by the caller (the
        Shard container's metadata lives at a higher layer).  When the data
        length is already divisible by k the matrix is a zero-copy view of
        the input buffer.
        """
        buf = _as_payload_array(data)
        original = buf.size
        row_len = max(1, -(-original // self.k))
        if row_len * self.k == original:
            rows = buf.reshape(self.k, row_len)
        else:
            padded = np.zeros(row_len * self.k, dtype=np.uint8)
            padded[:original] = buf
            rows = padded.reshape(self.k, row_len)
        return rows, original

    # -- systematic form --------------------------------------------------------

    def encode(self, data) -> list[Shard]:
        """Systematically encode *data* (bytes-like or flat uint8 array) into
        n shards (any k reconstruct)."""
        rows, original = self._split_rows(data)
        _metrics.inc("rs_encode_bytes_total", original)
        shards = [Shard(i, rows[i].tobytes()) for i in range(self.k)]
        if self.n > self.k:
            parity = gf256_matmul(self._parity_plan, rows)
            shards.extend(
                Shard(self.k + offset, parity[offset].tobytes())
                for offset in range(self.n - self.k)
            )
        return shards

    def decode_array(self, shards: list[Shard], original_length: int) -> np.ndarray:
        """Reconstruct the original payload as a flat uint8 array.

        Zero-copy sibling of :meth:`decode`: the returned array is a view of
        the decoded row matrix, so downstream stages (AONT unpackaging) can
        keep working on the buffer directly.
        """
        _metrics.inc("rs_decode_bytes_total", original_length)
        rows = self._decode_rows(shards)
        flat = rows.reshape(-1)
        if original_length > flat.size:
            raise DecodingError(
                f"original_length {original_length} exceeds decoded size {flat.size}"
            )
        return flat[:original_length]

    def decode(self, shards: list[Shard], original_length: int) -> bytes:
        """Reconstruct the original bytes from any k distinct shards."""
        return self.decode_array(shards, original_length).tobytes()

    def _decode_rows(self, shards: list[Shard]) -> np.ndarray:
        chosen = self._select_shards(shards)
        indices = [s.index for s in chosen]
        if indices[: self.k] == list(range(self.k)) and len(indices) >= self.k:
            # Fast path: all systematic shards survived.
            _metrics.inc("rs_decode_path_total", path="systematic")
            return rows_as_matrix(
                [np.frombuffer(s.data, dtype=np.uint8) for s in chosen[: self.k]]
            )
        _metrics.inc("rs_decode_path_total", path="interpolated")
        xs = tuple(self.points[s.index] for s in chosen)
        # One cached plan takes surviving codeword rows straight to message
        # rows: (evaluate at systematic points) o (Vandermonde inverse).
        plan = rs_decode_plan(xs, tuple(self.points[: self.k]))
        payload = rows_as_matrix(
            [np.frombuffer(s.data, dtype=np.uint8) for s in chosen]
        )
        return gf256_matmul(plan, payload)

    def _select_shards(self, shards: list[Shard]) -> list[Shard]:
        seen: dict[int, Shard] = {}
        for s in shards:
            if not 0 <= s.index < self.n:
                raise DecodingError(f"shard index {s.index} out of range for n={self.n}")
            seen.setdefault(s.index, s)
        if len(seen) < self.k:
            raise DecodingError(f"need {self.k} distinct shards, got {len(seen)}")
        chosen = [seen[i] for i in sorted(seen)][: self.k]
        lengths = {len(s.data) for s in chosen}
        if len(lengths) != 1:
            raise DecodingError(f"inconsistent shard lengths: {sorted(lengths)}")
        return chosen

    # -- non-systematic (Shamir-equivalent) form ---------------------------------

    def encode_nonsystematic(self, coefficient_rows: list[np.ndarray]) -> list[Shard]:
        """Evaluate the polynomial whose coefficient rows are given at all n
        points.  With ``coefficient_rows = [secret, r1, ..., r_{k-1}]`` and the
        secret recovered at x = 0, this *is* Shamir's scheme."""
        if len(coefficient_rows) != self.k:
            raise ParameterError(f"expected {self.k} coefficient rows")
        plan = vandermonde_plan(tuple(self.points), self.k)
        evaluated = gf256_matmul(plan, rows_as_matrix(coefficient_rows))
        return [
            Shard(i, evaluated[i].tobytes()) for i in range(self.n)
        ]

    def decode_nonsystematic(self, shards: list[Shard]) -> list[np.ndarray]:
        """Recover the k coefficient rows from any k distinct shards."""
        chosen = self._select_shards(shards)
        xs = tuple(self.points[s.index] for s in chosen)
        inverse = vandermonde_inverse_plan(xs, self.k)
        payload = rows_as_matrix(
            [np.frombuffer(s.data, dtype=np.uint8) for s in chosen]
        )
        coefficients = gf256_matmul(inverse, payload)
        return [coefficients[i] for i in range(self.k)]
