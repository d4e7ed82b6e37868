"""The finite field GF(2^8).

GF(2^8) is represented with the AES/Rijndael reduction polynomial
``x^8 + x^4 + x^3 + x + 1`` (0x11B).  Elements are Python ints in ``[0, 255]``
or numpy ``uint8`` arrays for bulk operations.

The module builds log/antilog tables once at import time using the generator
``0x03`` and exposes both scalar operations (for clarity and for use by the
generic polynomial code) and vectorized operations (for throughput: secret
sharing and Reed-Solomon coding touch every byte of every object).

Design note (DESIGN.md "substrates"): Shamir's scheme is applied bytewise, so
a 1 MiB object means 2^20 independent GF(256) polynomial evaluations per
share.  Pure-Python loops would dominate the entire library's runtime; the
table-driven numpy path keeps encode/decode in the tens-of-MB/s range, enough
for the paper's workloads at laptop scale.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.errors import ParameterError
from repro.obs import metrics as _metrics

#: The AES reduction polynomial x^8 + x^4 + x^3 + x + 1.
REDUCING_POLYNOMIAL = 0x11B

#: Generator element used to build the discrete-log tables.
GENERATOR = 0x03

ORDER = 256
_MULT_GROUP_ORDER = ORDER - 1  # 255


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables for GF(2^8) under the AES polynomial."""
    exp = np.zeros(2 * _MULT_GROUP_ORDER, dtype=np.uint8)
    log = np.zeros(ORDER, dtype=np.int32)
    value = 1
    for power in range(_MULT_GROUP_ORDER):
        exp[power] = value
        log[value] = power
        # Multiply by the generator 0x03 = x + 1: v*3 = (v << 1) ^ v.
        value ^= value << 1
        if value & 0x100:
            value ^= REDUCING_POLYNOMIAL
    # Duplicate so exp[log a + log b] never needs a modulo.
    exp[_MULT_GROUP_ORDER:] = exp[:_MULT_GROUP_ORDER]
    return exp, log


_EXP, _LOG = _build_tables()

# Full 256x256 multiplication table: 64 KiB, lets vectorized multiply be a
# single fancy-index instead of three lookups plus a zero mask.
_MUL_TABLE = np.zeros((ORDER, ORDER), dtype=np.uint8)
_nz = np.arange(1, ORDER)
_MUL_TABLE[1:, 1:] = _EXP[(_LOG[_nz][:, None] + _LOG[_nz][None, :])]

_INV_TABLE = np.zeros(ORDER, dtype=np.uint8)
_INV_TABLE[1:] = _EXP[_MULT_GROUP_ORDER - _LOG[_nz]]


class GF256:
    """Namespace class for GF(2^8) arithmetic.

    All methods are static/class methods; the class exists so the generic
    polynomial and matrix code can treat "a field" as an object with
    ``add``/``sub``/``mul``/``div``/``inv``/``zero``/``one`` and so GF(256)
    and :class:`repro.gmath.gfp.PrimeField` are interchangeable.
    """

    order = ORDER
    zero = 0
    one = 1

    # -- scalar operations -------------------------------------------------

    @staticmethod
    def validate(a: int) -> int:
        """Return *a* if it is a valid field element, else raise."""
        if not isinstance(a, (int, np.integer)) or not 0 <= a < ORDER:
            raise ParameterError(f"not a GF(256) element: {a!r}")
        return int(a)

    @staticmethod
    def add(a: int, b: int) -> int:
        """Field addition (XOR in characteristic 2)."""
        return a ^ b

    @staticmethod
    def sub(a: int, b: int) -> int:
        """Field subtraction; identical to addition in GF(2^8)."""
        return a ^ b

    @staticmethod
    def neg(a: int) -> int:
        """Additive inverse; every element is its own negative."""
        return a

    @staticmethod
    def mul(a: int, b: int) -> int:
        """Field multiplication via log/antilog tables.

        Deliberately unmetered: protocol code (matrix inversion, Lagrange
        plans) calls this O(k^3) times per operation, and a registry
        round-trip per scalar op dominated the pure-Python paths.  The
        plans built from it are counted per lookup instead
        (``codec_plan_requests_total``, see :mod:`repro.gmath.kernel`).
        """
        if a == 0 or b == 0:
            return 0
        return int(_EXP[_LOG[a] + _LOG[b]])

    @staticmethod
    def inv(a: int) -> int:
        """Multiplicative inverse; raises on zero."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(256)")
        return int(_INV_TABLE[a])

    @classmethod
    def div(cls, a: int, b: int) -> int:
        """Field division a / b (unmetered; see :meth:`mul`)."""
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return int(_EXP[_LOG[a] - _LOG[b] + _MULT_GROUP_ORDER])

    @staticmethod
    def pow(a: int, e: int) -> int:
        """Exponentiation a**e with e >= 0 (a != 0 for negative logic)."""
        if e < 0:
            return GF256.pow(GF256.inv(a), -e)
        if e == 0:
            return 1
        if a == 0:
            return 0
        return int(_EXP[(_LOG[a] * e) % _MULT_GROUP_ORDER])

    @staticmethod
    def elements() -> Iterable[int]:
        """Iterate over all 256 field elements."""
        return range(ORDER)

    # -- vectorized operations ---------------------------------------------

    @staticmethod
    def scalar_mul_vec(scalar: int, vec: np.ndarray) -> np.ndarray:
        """Multiply every element of *vec* by *scalar* (one table row)."""
        _metrics.inc("gf256_vec_ops_total")
        return _MUL_TABLE[scalar][vec]

    @staticmethod
    def poly_eval_vec(coeffs: list[np.ndarray], x: int) -> np.ndarray:
        """Evaluate a polynomial with vector coefficients at scalar *x*.

        ``coeffs[0]`` is the constant term; each coefficient is a uint8 array
        of the same length (one independent polynomial per byte position).
        Horner's rule with one table-row lookup per degree step.
        """
        if not coeffs:
            raise ParameterError("empty coefficient list")
        row = _MUL_TABLE[x]
        acc = coeffs[-1]
        for coefficient in reversed(coeffs[:-1]):
            acc = np.bitwise_xor(row[acc], coefficient)
        _metrics.inc("gf256_vec_evals_total")
        _metrics.inc("gf256_vec_bytes_total", acc.size * len(coeffs))
        return acc

