"""Truncated power series with exact rational coefficients: the Fraction
reference for the integer power-series kernel of :mod:`.exactnum`.

A :class:`TruncatedSeries` is a prefix of a formal power series: coefficients
of z^0 .. z^order, all :class:`~fractions.Fraction`.  Its one operation is the
reciprocal, a plain long division over rationals that shares no code with
``exactnum.extend_power``; the tests hold that kernel and the law of mu_N
against it.
No library route imports this module.  Values are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .exactnum import Rational, require

__all__ = ["TruncatedSeries"]


class TruncatedSeries(NamedTuple):
    coefficients: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Iterable[Rational], order: int) -> "TruncatedSeries":
        """Series with the given leading coefficients, zero-padded/truncated
        to exactly ``order + 1`` entries."""
        order = require("TruncatedSeries.of", "order", order, 0)
        coeffs = [Fraction(v) for v in values][: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse, term by term; requires a nonzero constant
        term.  Classical long-division recurrence, O(order^2)."""
        c0 = self.coefficients[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        inv0 = Fraction(1) / c0
        out = [inv0]
        for n in range(1, len(self.coefficients)):
            acc = Fraction(0)
            for i in range(1, n + 1):
                ci = self.coefficients[i]
                if ci:
                    acc += ci * out[n - i]
            out.append(-inv0 * acc)
        return TruncatedSeries(tuple(out))
