"""GF(2^8) field arithmetic: axioms, tables, and vectorized agreement."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.gmath.gf256 import GF256

element = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


class TestFieldAxioms:
    @given(element, element)
    def test_addition_commutes(self, a, b):
        assert GF256.add(a, b) == GF256.add(b, a)

    @given(element, element, element)
    def test_addition_associates(self, a, b, c):
        assert GF256.add(GF256.add(a, b), c) == GF256.add(a, GF256.add(b, c))

    @given(element)
    def test_additive_identity(self, a):
        assert GF256.add(a, 0) == a

    @given(element)
    def test_every_element_is_its_own_negative(self, a):
        assert GF256.add(a, GF256.neg(a)) == 0

    @given(element, element)
    def test_multiplication_commutes(self, a, b):
        assert GF256.mul(a, b) == GF256.mul(b, a)

    @given(element, element, element)
    def test_multiplication_associates(self, a, b, c):
        assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))

    @given(element)
    def test_multiplicative_identity(self, a):
        assert GF256.mul(a, 1) == a

    @given(element, element, element)
    def test_distributivity(self, a, b, c):
        left = GF256.mul(a, GF256.add(b, c))
        right = GF256.add(GF256.mul(a, b), GF256.mul(a, c))
        assert left == right

    @given(nonzero)
    def test_inverse_cancels(self, a):
        assert GF256.mul(a, GF256.inv(a)) == 1

    @given(element, nonzero)
    def test_division_inverts_multiplication(self, a, b):
        assert GF256.mul(GF256.div(a, b), b) == a

    @given(element)
    def test_mul_by_zero(self, a):
        assert GF256.mul(a, 0) == 0


class TestEdgeCases:
    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            GF256.inv(0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF256.div(5, 0)

    def test_validate_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            GF256.validate(256)
        with pytest.raises(ParameterError):
            GF256.validate(-1)

    def test_validate_accepts_range(self):
        assert GF256.validate(0) == 0
        assert GF256.validate(255) == 255

    def test_elements_count(self):
        assert len(list(GF256.elements())) == 256

    @given(element, st.integers(min_value=0, max_value=300))
    def test_pow_matches_repeated_multiplication(self, a, e):
        expected = 1
        for _ in range(e):
            expected = GF256.mul(expected, a)
        assert GF256.pow(a, e) == expected

    @given(nonzero, st.integers(min_value=1, max_value=50))
    def test_negative_pow(self, a, e):
        assert GF256.mul(GF256.pow(a, -e), GF256.pow(a, e)) == 1


class TestVectorized:
    def test_scalar_mul_vec(self):
        rng = np.random.default_rng(2)
        vec = rng.integers(0, 256, 256, dtype=np.uint8)
        for scalar in (0, 1, 2, 37, 255):
            got = GF256.scalar_mul_vec(scalar, vec)
            for x, z in zip(vec, got):
                assert GF256.mul(scalar, int(x)) == int(z)

    def test_poly_eval_vec_constant(self):
        c = np.array([7, 8, 9], dtype=np.uint8)
        assert list(GF256.poly_eval_vec([c], 99)) == [7, 8, 9]

    def test_poly_eval_vec_matches_horner(self):
        rng = np.random.default_rng(3)
        coeffs = [rng.integers(0, 256, 16, dtype=np.uint8) for _ in range(4)]
        x = 17
        got = GF256.poly_eval_vec(coeffs, x)
        for position in range(16):
            expected = 0
            for degree, row in enumerate(coeffs):
                term = GF256.mul(int(row[position]), GF256.pow(x, degree))
                expected = GF256.add(expected, term)
            assert expected == int(got[position])

    def test_poly_eval_vec_rejects_empty(self):
        with pytest.raises(ParameterError):
            GF256.poly_eval_vec([], 1)
