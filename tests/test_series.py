"""Truncated-series arithmetic: reciprocal and power against first
principles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebprob.series import TruncatedSeries


def test_geometric_reciprocal():
    # 1 / (1 - z) = 1 + z + z^2 + ...
    s = TruncatedSeries.of([1, -1], 8)
    assert s.reciprocal().coefficients == (Fraction(1),) * 9


def test_reciprocal_roundtrip():
    s = TruncatedSeries.of([2, 1, Fraction(1, 3), 0, -5], 10)
    assert (s * s.reciprocal()).coefficients == TruncatedSeries.one(10).coefficients


def test_zero_constant_term_rejected():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries.of([0, 1], 3).reciprocal()


def test_shift():
    s = TruncatedSeries.of([1, 2, 3], 2)
    assert s.shift(1).coefficients == (Fraction(0), Fraction(1), Fraction(2))


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries.one(3) + TruncatedSeries.one(4)


@settings(max_examples=50)
@given(
    st.integers(0, 3),
    st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=8),
        min_size=1,
        max_size=5,
    ),
    st.integers(0, 6),
)
def test_pow_equals_iterated_product(leading_zeros, coeffs, exponent):
    # Leading zeros leave positions of the product that no pair of nonzero
    # coefficients reaches; they must still hold Fractions.
    s = TruncatedSeries.of([0] * leading_zeros + coeffs, 6)
    iterated = TruncatedSeries.one(6)
    for _ in range(exponent):
        iterated = iterated * s
        assert all(type(c) is Fraction for c in iterated.coefficients)
    powered = s.pow(exponent)
    assert all(type(c) is Fraction for c in powered.coefficients)
    assert powered.coefficients == iterated.coefficients
