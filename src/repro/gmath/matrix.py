"""Small dense matrices over finite fields.

Used to build and invert Vandermonde matrices for Reed-Solomon decoding and
for the verifiable secret redistribution protocol.  Matrices here are tiny
(n is the shareholder count, typically < 30), so clarity beats asymptotics:
plain Gaussian elimination with partial search for a nonzero pivot.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DecodingError, ParameterError


class FieldMatrix:
    """A dense row-major matrix with entries in a generic finite field."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows: Sequence[Sequence[int]]):
        self.field = field
        self.rows = [list(r) for r in rows]
        if not self.rows or not self.rows[0]:
            raise ParameterError("matrix must be non-empty")
        width = len(self.rows[0])
        if any(len(r) != width for r in self.rows):
            raise ParameterError("ragged matrix rows")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, field, n: int) -> "FieldMatrix":
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    @classmethod
    def vandermonde(cls, field, xs: Sequence[int], width: int) -> "FieldMatrix":
        """Rows ``[1, x, x^2, ..., x^(width-1)]`` for each evaluation point."""
        rows = []
        for x in xs:
            row, power = [], field.one
            for _ in range(width):
                row.append(power)
                power = field.mul(power, x)
            rows.append(row)
        return cls(field, rows)

    # -- shape ----------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"FieldMatrix({self.shape[0]}x{self.shape[1]})"

    # -- arithmetic -------------------------------------------------------------

    def matvec(self, vec: Sequence[int]) -> list[int]:
        f = self.field
        if len(vec) != self.shape[1]:
            raise ParameterError("matvec dimension mismatch")
        out = []
        for row in self.rows:
            acc = f.zero
            for a, b in zip(row, vec):
                acc = f.add(acc, f.mul(a, b))
            out.append(acc)
        return out

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        f = self.field
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ParameterError("matmul dimension mismatch")
        rows = []
        for i in range(n):
            row = []
            for j in range(m):
                acc = f.zero
                for t in range(k):
                    acc = f.add(acc, f.mul(self.rows[i][t], other.rows[t][j]))
                row.append(acc)
            rows.append(row)
        return FieldMatrix(f, rows)

    def inverse(self) -> "FieldMatrix":
        """Gauss-Jordan inversion; raises DecodingError if singular."""
        f = self.field
        n, m = self.shape
        if n != m:
            raise ParameterError("only square matrices can be inverted")
        aug = [list(row) + ident for row, ident in zip(self.rows, FieldMatrix.identity(f, n).rows)]
        for col in range(n):
            pivot_row = next(
                (r for r in range(col, n) if aug[r][col] != f.zero), None
            )
            if pivot_row is None:
                raise DecodingError("singular matrix (repeated share indices?)")
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            pivot_inv = f.inv(aug[col][col])
            aug[col] = [f.mul(pivot_inv, v) for v in aug[col]]
            for r in range(n):
                if r == col or aug[r][col] == f.zero:
                    continue
                factor = aug[r][col]
                aug[r] = [
                    f.sub(v, f.mul(factor, p)) for v, p in zip(aug[r], aug[col])
                ]
        return FieldMatrix(f, [row[n:] for row in aug])

    def solve(self, rhs: Sequence[int]) -> list[int]:
        """Solve ``A x = rhs`` for square A."""
        return self.inverse().matvec(list(rhs))
