"""Truncated power series with exact rational coefficients.

A :class:`TruncatedSeries` is a prefix of a formal power series: coefficients
of z^0 .. z^order, all :class:`~fractions.Fraction`.  Arithmetic truncates to
the common order, which is exactly the regime in which prefix arithmetic is
valid; products are the truncated convolutions of :mod:`.exactnum`, made
``Fraction`` again on the way out.  Values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .exactnum import Rational, convolution_power, convolve

__all__ = ["TruncatedSeries"]


@dataclass(frozen=True)
class TruncatedSeries:
    coefficients: tuple[Fraction, ...]

    @classmethod
    def of(cls, values: Iterable[Rational], order: int) -> "TruncatedSeries":
        """Series with the given leading coefficients, zero-padded/truncated
        to exactly ``order + 1`` entries."""
        if order < 0:
            raise ValueError(f"order must be >= 0, got {order}")
        coeffs = [Fraction(v) for v in values][: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        return cls(tuple(coeffs))

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls.of([1], order)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            tuple(a + b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        return TruncatedSeries(
            tuple(a - b for a, b in zip(self.coefficients, other.coefficients))
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_order(other)
        product = convolve(self.coefficients, other.coefficients, self.order + 1)
        return TruncatedSeries.of(product, self.order)

    def shift(self, k: int = 1) -> "TruncatedSeries":
        """Multiply by z^k, truncating at the same order."""
        if k < 0:
            raise ValueError(f"shift requires k >= 0, got {k}")
        zeros = (Fraction(0),) * min(k, self.order + 1)
        return TruncatedSeries((zeros + self.coefficients)[: self.order + 1])

    def reciprocal(self) -> "TruncatedSeries":
        """Multiplicative inverse, term by term; requires a nonzero constant
        term.  Classical long-division recurrence, O(order^2)."""
        c0 = self.coefficients[0]
        if c0 == 0:
            raise ZeroDivisionError("series with zero constant term has no reciprocal")
        inv0 = Fraction(1) / c0
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                ci = self.coefficients[i]
                if ci:
                    acc += ci * out[n - i]
            out.append(-inv0 * acc)
        return TruncatedSeries(tuple(out))

    def pow(self, exponent: int) -> "TruncatedSeries":
        """Nonnegative integer power, by :func:`convolution_power`."""
        if exponent < 0:
            raise ValueError(f"pow requires exponent >= 0, got {exponent}")
        if exponent == 0:
            return TruncatedSeries.one(self.order)
        powered = convolution_power(self.coefficients, exponent, self.order + 1)
        return TruncatedSeries.of(powered, self.order)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)
