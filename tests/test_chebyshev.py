"""Chebyshev coefficient machinery.

Float-side oracle: the defining identity T_N(cos t) = cos(N t), with the
polynomial evaluated exactly at the double cos t and rounded once.
Exact-side oracles: hand-checked small coefficient vectors, the derivative
identity against the second kind (the derivative taken here, coefficient by
coefficient), and evaluation at 1.
"""

import math
from fractions import Fraction

import pytest

from chebprob.chebyshev import chebyshev_T, chebyshev_U, reversed_T
from chebprob.eulerpoly import eval_poly
from chebprob.exactnum import DensePolynomial


def coeffs(p: DensePolynomial) -> tuple:
    return tuple(int(c) for c in p.coefficients)


def value(p: DensePolynomial, x) -> Fraction:
    return eval_poly(p, x)


class TestFirstKind:
    def test_small_polynomials(self):
        assert coeffs(chebyshev_T(0)) == (1,)
        assert coeffs(chebyshev_T(1)) == (0, 1)
        assert coeffs(chebyshev_T(2)) == (-1, 0, 2)
        assert coeffs(chebyshev_T(3)) == (0, -3, 0, 4)
        assert coeffs(chebyshev_T(4)) == (1, 0, -8, 0, 8)

    def test_leading_coefficient(self):
        for N in range(1, 30):
            assert chebyshev_T(N).coefficients[-1] == 2 ** (N - 1)

    def test_parity(self):
        # Only degrees of the same parity as N appear.
        for N in range(51):
            for degree, c in enumerate(chebyshev_T(N).coefficients):
                if (degree - N) % 2 != 0:
                    assert c == 0

    def test_value_at_one_exact(self):
        for N in range(51):
            assert value(chebyshev_T(N), 1) == 1

    def test_defining_identity_floats(self):
        for N in range(11):
            for theta in (0.1, 0.3, 1.0, 2.2, 3.0):
                got = float(value(chebyshev_T(N), math.cos(theta)))
                assert got == pytest.approx(math.cos(N * theta), abs=1e-11)

    def test_roots_via_closed_form(self):
        # The closed-form roots cos((2k-1) pi / 2N), through the coefficients.
        for N in range(1, 51):
            for k in range(1, N + 1):
                theta = (2 * k - 1) * math.pi / (2 * N)
                assert abs(float(value(chebyshev_T(N), math.cos(theta)))) < 1e-10

    def test_roots_via_coefficients_small_n(self):
        # The same roots through a float Horner pass over the coefficients,
        # which stays accurate while the coefficients are small.
        for N in range(1, 11):
            for k in range(1, N + 1):
                x = math.cos((2 * k - 1) * math.pi / (2 * N))
                acc = 0.0
                for c in reversed(chebyshev_T(N).coefficients):
                    acc = acc * x + float(c)
                assert abs(acc) < 1e-10

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            chebyshev_T(-1)


class TestSecondKind:
    def test_small_polynomials(self):
        assert coeffs(chebyshev_U(0)) == (1,)
        assert coeffs(chebyshev_U(1)) == (0, 2)
        assert coeffs(chebyshev_U(3)) == (0, -4, 0, 8)

    def test_derivative_identity(self):
        # d/dz T_N = N * U_{N-1}, coefficient for coefficient.
        for N in range(1, 51):
            lhs = tuple(i * c for i, c in enumerate(chebyshev_T(N).coefficients))[1:]
            rhs = tuple(N * c for c in chebyshev_U(N - 1).coefficients)
            assert lhs == rhs

    def test_defining_identity_floats(self):
        for N in range(9):
            for theta in (0.2, 0.9, 2.5):
                expected = math.sin((N + 1) * theta) / math.sin(theta)
                got = float(value(chebyshev_U(N), math.cos(theta)))
                assert got == pytest.approx(expected, abs=1e-11)


class TestReversed:
    def test_examples(self):
        assert coeffs(reversed_T(1)) == (1,)
        assert coeffs(reversed_T(2)) == (2, 0, -1)
        assert coeffs(reversed_T(4)) == (8, 0, -8, 0, 1)

    def test_reversal_relation(self):
        for N in range(1, 20):
            t = chebyshev_T(N).coefficients
            r = reversed_T(N)
            for j, c in enumerate(r.coefficients):
                assert c == t[N - j]

    def test_constant_term_never_zero(self):
        for N in range(1, 30):
            assert reversed_T(N).coefficients[0] == 2 ** (N - 1)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            reversed_T(0)


class TestEvaluation:
    def test_horner_small(self):
        assert value(chebyshev_T(2), 2) == 7

    def test_trig_point(self):
        theta = 0.3
        got = float(value(chebyshev_T(3), math.cos(theta)))
        assert got == pytest.approx(math.cos(3 * theta), abs=1e-12)

    def test_zero_polynomial(self):
        zero = DensePolynomial.of([0, 0])
        assert zero.coefficients == (0,) and zero.degree == 0
        assert value(zero, 5) == 0

    def test_eval_exact(self):
        assert value(chebyshev_T(2), Fraction(1, 2)) == Fraction(-1, 2)
