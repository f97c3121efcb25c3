"""The Fraction reference reciprocal against first principles."""

from fractions import Fraction

import pytest

from chebprob.series import TruncatedSeries


def test_geometric_reciprocal():
    # 1 / (1 - z) = 1 + z + z^2 + ...
    s = TruncatedSeries.of([1, -1], 8)
    assert s.reciprocal().coefficients == (Fraction(1),) * 9


def test_reciprocal_roundtrip():
    s = TruncatedSeries.of([2, 1, Fraction(1, 3), 0, -5], 10)
    a, b = s.coefficients, s.reciprocal().coefficients
    product = [sum(a[j] * b[n - j] for j in range(n + 1)) for n in range(11)]
    assert product == [1] + [0] * 10


def test_zero_constant_term_rejected():
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries.of([0, 1], 3).reciprocal()
