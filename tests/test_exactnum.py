"""Combinatorial primitives against independent oracles.

The binomial oracle is the Pascal-triangle recurrence with big integers; the
Catalan oracle is the direct quotient formula; the power kernel is checked
against Fraction products and the Fraction reciprocal of ``series``.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebprob.exactnum import (
    ballot_number,
    binomial,
    catalan_sequence,
    extend_power,
    float_or_inf,
    format_rational,
)
from chebprob.series import TruncatedSeries


def pascal_triangle(rows: int) -> list[list[int]]:
    triangle = [[1]]
    for n in range(1, rows + 1):
        prev = triangle[-1]
        row = [1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1]
        triangle.append(row)
    return triangle


PASCAL = pascal_triangle(40)


class TestBinomial:
    def test_small_value(self):
        assert binomial(5, 2) == 10

    def test_out_of_range_is_zero(self):
        assert binomial(3, -1) == 0
        assert binomial(3, 4) == 0

    def test_large_value_against_pascal(self):
        assert PASCAL[40][20] == 137846528820
        assert binomial(40, 20) == 137846528820

    def test_whole_triangle_against_pascal(self):
        for n in range(41):
            for k in range(n + 1):
                assert binomial(n, k) == PASCAL[n][k]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(0, 80), st.integers(-5, 85))
    def test_symmetry(self, n, k):
        if 0 <= k <= n:
            assert binomial(n, k) == binomial(n, n - k)


class TestCatalan:
    def test_first_value(self):
        assert catalan_sequence(1) == [1]

    def test_against_direct_formula(self):
        # Oracle: C_n = binom(2n, n) / (n + 1) via the Pascal binomial.
        big = pascal_triangle(60)
        values = catalan_sequence(30)
        for n in range(30):
            quotient, remainder = divmod(big[2 * n][n], n + 1)
            assert remainder == 0
            assert values[n] == quotient
        assert values[4] == 14
        assert values[10] == 16796

    def test_sequence_matches_singletons(self):
        # Each entry is independent of how long a sequence is asked for.
        assert catalan_sequence(12) == [catalan_sequence(n + 1)[n] for n in range(12)]


class TestBallot:
    def test_examples(self):
        assert ballot_number(1, 0) == 1
        # 0 - binom(1, 1): outside the triangle the value goes negative.
        assert ballot_number(1, 2) == -1
        assert ballot_number(5, 2) == 10 - 5 == 5

    def test_one_binomial_equals_the_difference(self):
        for n in range(61):
            for k in range(-3, n + 4):
                assert ballot_number(n, k) == binomial(n, k) - binomial(n, k - 1), (n, k)
        with pytest.raises(ValueError):
            ballot_number(-1, 0)

    def test_nonnegative_in_triangle(self):
        # Catalan-triangle region 0 <= 2k <= n + 1, exhaustively to n = 30.
        for n in range(31):
            for k in range(0, (n + 1) // 2 + 1):
                assert ballot_number(n, k) >= 0, (n, k)


def series_product(a, b, order):
    # The Cauchy product through z^order, term by term.
    return [
        sum(a[j] * b[n - j] for j in range(n + 1) if j < len(a) and n - j < len(b))
        for n in range(order + 1)
    ]


def series_power(q, alpha, order):
    # q^alpha through z^order by |alpha| products, and for alpha < 0 the
    # Fraction reciprocal of q^|alpha|.
    power = [Fraction(1)]
    for _ in range(abs(alpha)):
        power = series_product(power, q, order)
    if alpha < 0:
        return list(TruncatedSeries.of(power, order).reciprocal().coefficients)
    return power + [Fraction(0)] * (order + 1 - len(power))


class TestExtendQuotient:
    # The power kernel at alpha = -1, the reciprocal the law of mu_N takes.
    @settings(max_examples=50)
    @given(
        st.sampled_from([1, -1]),
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        st.integers(0, 12),
    )
    def test_reciprocal_equals_the_fraction_reference(self, c0, tail, order):
        # A unit constant term keeps every coefficient of the reciprocal an
        # integer, and c0 (q / c0)^(-1) = 1/q.
        taps = [(i, t) for i, t in enumerate(tail, 1) if t]
        pad = len(tail)
        values = extend_power(taps, c0, -1, [0] * pad + [c0], pad + order, pad)
        reference = TruncatedSeries.of([c0, *tail], order).reciprocal()
        assert tuple(values[pad:]) == reference.coefficients

    def test_extends_in_place_and_keeps_what_it_holds(self):
        values = [0, 1]
        assert extend_power([(1, -1)], 1, -1, values, 4, 1) is values
        assert values == [0, 1, 1, 1, 1]
        assert extend_power([(1, 7)], 1, -1, values, 3, 1) == [0, 1, 1, 1, 1]

    def test_inexact_division_names_the_index(self):
        # 1 / (2 + z) from index 1: g_1 = -1/2 at index 2.
        with pytest.raises(ArithmeticError, match="index 2"):
            extend_power([(1, 1)], 2, -1, [0, 1], 2, 1)


class TestExtendPower:
    @settings(max_examples=80)
    @given(
        st.sampled_from([1, -1]),
        st.lists(st.integers(-5, 5), min_size=1, max_size=5),
        st.integers(-4, 4),
        st.integers(0, 3),
        st.integers(-3, 3).filter(bool),
        st.integers(0, 10),
    )
    def test_power_equals_the_fraction_reference(self, q0, tail, alpha, start, g0, order):
        # A unit constant term keeps every coefficient of g0 (q / q0)^alpha
        # an integer.  The entries below start are left as they are.
        taps = [(j, t) for j, t in enumerate(tail, 1) if t]
        below = list(range(7, 7 + start))
        values = extend_power(taps, q0, alpha, below + [g0], start + order, start)
        q = [Fraction(c, q0) for c in [q0, *tail]]
        assert values[:start] == below
        assert values[start:] == [g0 * c for c in series_power(q, alpha, order)]

    def test_catalan_square_and_binomial_row(self):
        # From the Catalan recurrence, (C*C)_k = C_{k+1}; and (1 + z)^3.
        catalan = catalan_sequence(9)
        taps = list(enumerate(catalan[:8]))[1:]
        assert extend_power(taps, 1, 2, [1], 7) == catalan[1:]
        assert extend_power([(1, 1)], 1, 3, [1], 5) == [1, 3, 3, 1, 0, 0]


class TestRationalBasics:
    @given(
        st.fractions(max_denominator=10**6),
        st.fractions(max_denominator=10**6),
    )
    def test_add_then_subtract_roundtrips(self, a, b):
        assert (a + b) - b == a

    @given(st.fractions(max_denominator=10**9))
    def test_normalized_with_positive_denominator(self, a):
        assert a.denominator >= 1
        from math import gcd

        assert gcd(abs(a.numerator), a.denominator) == 1

    def test_format(self):
        assert format_rational(Fraction(1, 2)) == "1/2"
        assert format_rational(Fraction(-3, 4)) == "-3/4"
        assert format_rational(Fraction(7, 1)) == "7"
        assert format_rational(5) == "5"

    def test_float_or_inf(self):
        # The float where it exists; past the float range, where float()
        # raises OverflowError, an infinity of the value's sign.
        assert float_or_inf(Fraction(-1, 3)) == float(Fraction(-1, 3))
        assert float_or_inf(Fraction(1, 10**400)) == 0.0
        assert float_or_inf(Fraction(10**400, 3)) == math.inf
        assert float_or_inf(-(10**400)) == -math.inf
