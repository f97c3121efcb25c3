"""Euler machinery against hand-rolled series oracles.

The independent oracle for the Euler numbers multiplies the reciprocal
series of cosh by cosh itself using nothing but raw Fraction lists; the
polynomial oracles expand the generating function to low order the same way,
and build E_n(x) from the Euler numbers by the half-shift expansion.
"""

import math
import threading
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import chebprob.eulerpoly as eulerpoly_module
from chebprob.eulerpoly import (
    euler_numbers,
    euler_poly,
    eval_poly,
    gen_euler_recursive,
    gen_euler_series,
    gen_euler_zero,
)
from chebprob.identities import MAX_DEGREE

# Orders at which the routes are held to each other through MAX_DEGREE.
WIDE_ORDERS = (0, 1, 2, 10, 40)


def series_product(a, b, order):
    return [
        sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(order + 1)
    ]


def series_reciprocal(a, order):
    out = [Fraction(1) / a[0]]
    for n in range(1, order + 1):
        out.append(-out[0] * sum(a[i] * out[n - i] for i in range(1, n + 1)))
    return out


def half_shift_expansion(n):
    """E_n(x) = sum_k binom(n, k) (E_k / 2^k) (x - 1/2)^(n-k), expanded in
    powers of x, from the Euler numbers."""
    numbers = euler_numbers(n)
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(0, n + 1, 2):
        weight = Fraction(math.comb(n, k) * numbers[k], 2**k)
        m = n - k
        for j in range(m + 1):
            coeffs[j] += weight * math.comb(m, j) * Fraction(-1, 2) ** (m - j)
    return tuple(coeffs)


def cosh_coefficients(order):
    return [
        Fraction(1, math.factorial(n)) if n % 2 == 0 else Fraction(0)
        for n in range(order + 1)
    ]


class TestEulerNumbers:
    def test_against_series_oracle(self):
        order = 14
        cosh = cosh_coefficients(order)
        recip = series_reciprocal(cosh, order)
        assert series_product(cosh, recip, order) == [Fraction(1)] + [
            Fraction(0)
        ] * order
        oracle = [recip[n] * math.factorial(n) for n in range(order + 1)]
        assert list(euler_numbers(order)) == oracle

    def test_frozen_values(self):
        table = euler_numbers(8)
        assert table[0] == 1
        assert table[2] == -1
        assert table[4] == 5
        assert table[6] == -61
        assert table[8] == 1385

    def test_odd_indices_vanish(self):
        table = euler_numbers(31)
        for n in range(1, 32, 2):
            assert table[n] == 0

    def test_even_signs_alternate(self):
        table = euler_numbers(30)
        for n in range(0, 16):
            value = table[2 * n]
            assert (-1) ** n * value > 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            euler_numbers(-1)


class TestEulerAtZero:
    def test_first_values(self):
        values = gen_euler_zero(1, 4)
        assert values[0] == 1
        assert values[1] == Fraction(-1, 2)
        assert values[2] == 0

    def test_against_generating_function_oracle(self):
        # (e^z + 1)/2 inverted by hand; entries are E_n(0)/n!.
        order = 10
        half_shifted = [Fraction(1)] + [
            Fraction(1, 2 * math.factorial(n)) for n in range(1, order + 1)
        ]
        recip = series_reciprocal(half_shifted, order)
        oracle = [recip[n] * math.factorial(n) for n in range(order + 1)]
        assert list(gen_euler_zero(1, order)) == oracle


class TestEulerPoly:
    def test_degree_one(self):
        assert euler_poly(1).coefficients == (Fraction(-1, 2), Fraction(1))

    def test_degree_zero(self):
        assert euler_poly(0).coefficients == (Fraction(1),)

    def test_degree_two_with_oracle(self):
        # Expand the generating function to order 2 by hand: the coefficient
        # of z^2/2! in (2/(1+e^z)) e^{xz} is x^2 + 2 x E_1(0) + E_2(0).
        zero = gen_euler_zero(1, 2)
        oracle = (zero[2], 2 * zero[1], Fraction(1))
        assert euler_poly(2).coefficients == oracle
        assert euler_poly(2).coefficients == (Fraction(0), Fraction(-1), Fraction(1))

    def test_half_shift_oracle(self):
        for n in range(33):
            assert euler_poly(n).coefficients == half_shift_expansion(n), n

    def test_half_point_identity(self):
        # E_n = 2^n E_n(1/2), exactly, through n = 30.
        table = euler_numbers(30)
        for n in range(31):
            half_value = eval_poly(euler_poly(n), Fraction(1, 2))
            assert 2**n * half_value == table[n]

    def test_monic(self):
        for n in range(12):
            assert euler_poly(n).coefficients[-1] == 1
            assert euler_poly(n).degree == n


class TestGeneralized:
    def test_linear_case(self):
        for p in range(1, 21):
            poly = gen_euler_recursive(1, p)
            assert poly.coefficients == (Fraction(-p, 2), Fraction(1))

    def test_order_one_reduces_to_classical(self):
        for n in range(9):
            assert euler_poly(n).coefficients == gen_euler_series(n, 1).coefficients

    def test_hand_value_n2_p2(self):
        poly = gen_euler_recursive(2, 2)
        assert poly.coefficients == (Fraction(1, 2), Fraction(-2), Fraction(1))

    def test_series_route_linear(self):
        assert gen_euler_series(1, 3).coefficients == (Fraction(-3, 2), Fraction(1))

    def test_series_route_constant(self):
        for p in (1, 4, 9):
            assert gen_euler_series(0, p).coefficients == (Fraction(1),)

    def test_routes_agree(self):
        for n in range(7):
            for p in range(1, 9):
                assert (
                    gen_euler_recursive(n, p).coefficients
                    == gen_euler_series(n, p).coefficients
                ), (n, p)

    def test_routes_agree_on_the_grid(self):
        # The scaled-integer series route against the recursive one, and
        # against the same expansion in Fractions, powered by iterated
        # products: every n <= 16 at p <= 24, and every n <= MAX_DEGREE at
        # the orders WIDE_ORDERS.  The powers are taken once, through
        # z^MAX_DEGREE; degree n reads their first n + 1 coefficients.
        top = MAX_DEGREE
        denom = [Fraction(1)] + [
            Fraction(1, 2 * math.factorial(j)) for j in range(1, top + 1)
        ]
        recip = series_reciprocal(denom, top)
        powered = [Fraction(1)] + [Fraction(0)] * top
        for p in range(max(WIDE_ORDERS) + 1):
            degrees = range(top + 1) if p in WIDE_ORDERS else range(17 if p <= 24 else 0)
            for n in degrees:
                in_fractions = tuple(
                    math.comb(n, k) * powered[n - k] * math.factorial(n - k)
                    for k in range(n + 1)
                )
                coeffs = gen_euler_series(n, p).coefficients
                assert coeffs == gen_euler_recursive(n, p).coefficients, (n, p)
                assert coeffs == in_fractions, (n, p)
            powered = series_product(powered, recip, top)

    def test_routes_agree_for_every_p(self):
        # A coefficient of E_n^{(p)}(x), binom(n, k) E_{n-k}^{(p)}(0), is a
        # polynomial of degree at most n in p: the egf of the values at zero
        # is exp(p log(2/(1 + e^z))), and the log is O(z).  Two such
        # polynomials that agree at n + 1 orders agree at every order.  The
        # (n+1)-th forward difference over p = 0..n+1 checks the degree on
        # what both routes return.
        for n in range(21):
            rows = []
            for p in range(n + 2):
                coeffs = gen_euler_series(n, p).coefficients
                assert coeffs == gen_euler_recursive(n, p).coefficients, (n, p)
                rows.append(coeffs)
            for k in range(n + 1):
                column = [row[k] for row in rows]
                for _ in range(n + 1):
                    column = [b - a for a, b in zip(column, column[1:])]
                assert column == [0], (n, k)

    @settings(max_examples=40)
    @given(st.integers(0, 10), st.integers(1, 14))
    def test_routes_agree_random(self, n, p):
        assert (
            gen_euler_recursive(n, p).coefficients
            == gen_euler_series(n, p).coefficients
        )

    def test_monic_of_exact_degree(self):
        for n in range(9):
            for p in (1, 2, 5, 11):
                poly = gen_euler_recursive(n, p)
                assert poly.degree == n
                assert poly.coefficients[-1] == 1

    def test_order_zero_is_pure_power(self):
        for n in range(6):
            expected = tuple(
                Fraction(1) if k == n else Fraction(0) for k in range(n + 1)
            )
            assert gen_euler_recursive(n, 0).coefficients == expected
            assert gen_euler_series(n, 0).coefficients == expected

    def test_values_at_zero_are_dyadic(self):
        # 2^m E_m^{(p)}(0) is an integer: the zero rows are held as those.
        for p in range(41):
            for m, value in enumerate(gen_euler_zero(p, 12)):
                assert 2**m % value.denominator == 0, (p, m, value)

    def test_zero_rows_are_cached_consistently(self):
        fresh = gen_euler_zero(7, 9)
        again = gen_euler_zero(7, 5)
        assert fresh[:6] == again

    def test_concurrent_readers(self):
        results = []

        def worker(p):
            results.append((p, gen_euler_recursive(4, p).coefficients))

        threads = [
            threading.Thread(target=worker, args=(p,))
            for _ in range(2)
            for p in range(1, 9)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for p, coeffs in results:
            assert coeffs == gen_euler_series(4, p).coefficients


zero_row_requests = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=6
)


class TestZeroRowMemo:
    # A first request of order 0 beyond row 0's length must extend row 0
    # without raising an order below it.
    @example([(3, 0)])
    @settings(max_examples=50, deadline=None)
    @given(zero_row_requests)
    def test_any_request_order_gives_the_unmemoized_values(self, order):
        # Start from the initial rows, so that the memo grows in the drawn
        # order; the rows held before are put back afterwards.
        with eulerpoly_module._CACHE_LOCK:
            held = {p: list(row) for p, row in eulerpoly_module._ZERO_ROWS.items()}
            eulerpoly_module._ZERO_ROWS.clear()
            eulerpoly_module._ZERO_ROWS[0] = [1]
        try:
            for n, p in order:
                assert (
                    gen_euler_recursive(n, p).coefficients
                    == gen_euler_series(n, p).coefficients
                ), (n, p)
        finally:
            with eulerpoly_module._CACHE_LOCK:
                eulerpoly_module._ZERO_ROWS.clear()
                eulerpoly_module._ZERO_ROWS.update(held)


class TestEvalPoly:
    def test_examples(self):
        assert eval_poly(euler_poly(1), Fraction(1, 2)) == 0
        assert eval_poly(euler_poly(2), 1) == 0
        assert eval_poly(euler_poly(0), Fraction(123, 7)) == 1

    def test_rational_point(self):
        # E_2(x) = x^2 - x at 3/7: 9/49 - 3/7 = -12/49.
        assert eval_poly(euler_poly(2), Fraction(3, 7)) == Fraction(-12, 49)
