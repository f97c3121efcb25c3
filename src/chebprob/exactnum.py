"""Exact combinatorial primitives: binomials, Catalan and ballot numbers,
the integer power of a power series, dyadic rationals and the dense
polynomial type.

All arithmetic here is exact.  Plain ``int`` is the arbitrary-precision
integer and :class:`fractions.Fraction` the exact rational (always stored
normalized with positive denominator); sequences are ordinary lists indexed
from 0.  Everything returned by this module is a plain immutable value, safe
to share between threads.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "DomainError",
    "binomial",
    "catalan_sequence",
    "ballot_number",
    "DensePolynomial",
    "format_rational",
]


class DomainError(ValueError):
    """An argument outside the domain of a public function, raised before any
    work is done: by :func:`require` for one integer and its range, by
    :func:`require_rational` for a rational, by :func:`require_positive` for
    a tolerance or a band, inline for the rest (a float, two arguments at
    once, an empty sequence, a parity).  The command line reports it as a
    usage error; every other exception is a fault of the program."""


def require(
    caller: str, name: str, value: int, low: int | None = None,
    high: int | None = None,
) -> int:
    """Argument ``name`` of ``caller`` as a plain int, refused outside
    low <= value <= high (no upper bound when ``high`` is None) with a
    DomainError: "<caller> requires <low> <= <name> <= <high>, got
    <name>=<value>", or "<caller> requires <name> >= <low>, got
    <name>=<value>".  With no ``low`` either, only an integer is required,
    for a caller that words its range itself.

    A bool, or a value with no ``__index__`` (a float, a Fraction), is no
    integer and is refused first, as "<caller> requires an integer <name>,
    got <name>=<value!r>".  A numpy integer passes and is returned as the
    int of ``operator.index``, so callers bind the result: a numpy scalar
    in the exact arithmetic overflows, or makes numpy scalars of what it
    touches.  A plain int passes on one type test and is returned as it is,
    since the per-index law oracle makes two calls per ballot term."""
    if type(value) is not int:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise DomainError(
                f"{caller} requires an integer {name}, got {name}={value!r}"
            )
        value = operator.index(value)
    if low is None:
        return value
    if high is None:
        if value < low:
            raise DomainError(f"{caller} requires {name} >= {low}, got {name}={value}")
    elif not low <= value <= high:
        raise DomainError(
            f"{caller} requires {low} <= {name} <= {high}, got {name}={value}"
        )
    return value


def require_rational(caller: str, name: str, value: Rational) -> Fraction:
    """Argument ``name`` of ``caller`` as a Fraction of plain ints: whatever
    ``Fraction(value)`` takes but a bool (an int, a finite float, a Fraction,
    a numpy integer, a string such as "1/3").  Anything else is a DomainError
    in the shape of :func:`require`'s: "<caller> requires a rational <name>,
    got <name>=<value!r>"."""
    try:
        if isinstance(value, bool):
            raise TypeError  # Fraction takes a bool as 0 or 1
        x = Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise DomainError(
            f"{caller} requires a rational {name}, got {name}={value!r}"
        ) from None
    if type(x.numerator) is not int or type(x.denominator) is not int:
        # Fraction keeps the numpy scalars of a numpy integer.
        x = Fraction(int(x.numerator), int(x.denominator))
    return x


def require_positive(caller: str, name: str, value: float) -> float:
    """Argument ``name`` of ``caller``, a tolerance or a band, as it is: a real
    0 < value < inf and no bool; an int past the float range is finite."""
    if type(value) is bool or not (isinstance(value, Real) and 0 < value < math.inf):
        raise DomainError(f"{caller}: {name} must be positive and finite, got {value}")
    return value


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the total convention: 0 outside 0 <= k <= n.

    Summation formulas downstream run their index over ranges that leave the
    triangle; the zero convention keeps them total.
    """
    n = require("binomial", "n", n, 0)
    k = require("binomial", "k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan_sequence(count: int) -> list[int]:
    """First ``count`` Catalan numbers [C_0, ..., C_{count-1}]."""
    count = require("catalan_sequence", "count", count, 1)
    out = [1]
    for n in range(count - 1):
        # C_{n+1} = C_n * 2(2n+1)/(n+2); the division is exact.
        out.append(out[-1] * 2 * (2 * n + 1) // (n + 2))
    return out


def ballot_number(n: int, k: int) -> int:
    """Ballot number binom(n, k) - binom(n, k-1) (Catalan-triangle entry).

    Uses the total binomial convention, so the value is defined for any
    integer k and may be negative outside the triangle.  Inside it the
    difference is binom(n, k) (n - 2k + 1) / (n - k + 1), an exact division,
    so one binomial is computed instead of two.
    """
    n = require("ballot_number", "n", n, 0)
    k = require("ballot_number", "k", k)
    if 0 <= k <= n:
        return math.comb(n, k) * (n - 2 * k + 1) // (n - k + 1)
    return -1 if k == n + 1 else 0


def extend_power(
    taps: Sequence[tuple[int, int]], q0: int, alpha: int, values: list[int],
    last: int, start: int = 0,
) -> list[int]:
    """Extend ``values`` in place through index ``last`` with the power
    g = g_0 (q / q0)^alpha of an integer series q = q0 + q_1 z + q_2 z^2 + ...,
    g_m held at index ``start + m``; returns ``values``.

    This is the one integer power-series kernel of the package, J. C. P.
    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7): q g' = alpha q' g gives

        m q0 g_m = sum_{j=1..m} ((alpha + 1) j - m) q_j g_{m-j}

    over the nonzero taps (j, q_j), j >= 1.  Its callers are the law of mu_N
    (alpha = -1, ``probnum._law``), the series route of the Euler
    polynomials (alpha = -p, ``eulerpoly.gen_euler_series``) and the Catalan
    power (alpha = N, ``identities.catalan_prefix_check``).  The caller puts
    g_0 at index ``start``; the entries below it are never read.  Each step
    is a checked ``divmod``: a remainder raises ArithmeticError naming the
    index, for g_m is then not an integer.  The kernel keeps no state;
    callers that share ``values`` between threads hold their lock.
    """
    a1 = alpha + 1
    for i in range(len(values), last + 1):
        m = i - start
        g, remainder = divmod(
            sum((a1 * j - m) * q * values[i - j] for j, q in taps if j <= m),
            m * q0,
        )
        if remainder:
            raise ArithmeticError(f"division by {m * q0} is not exact at index {i}")
        values.append(g)
    return values


_ZERO = Fraction(0)


def dyadic(numerator: int, exponent: int) -> Fraction:
    """numerator / 2^exponent (exponent >= 0) as a normalized Fraction.

    The common factor is the power of two read off the numerator's trailing
    zero bits, so the instance is built from the coprime pair the way
    ``Fraction`` builds its results, skipping its constructor's gcd: 2-2.3 ms
    at 32768 bits, about 20 s over a table through ``max_ell = 2^15``.
    """
    if numerator == 0:
        return _ZERO
    shift = min((numerator & -numerator).bit_length() - 1, exponent)
    out = object.__new__(Fraction)
    out._numerator = numerator >> shift
    out._denominator = 1 << (exponent - shift)
    return out


class DensePolynomial(NamedTuple):
    """Polynomial as a dense coefficient tuple, index = degree; evaluate it
    with :func:`~.eulerpoly.eval_poly`.

    The trailing coefficient is nonzero except for the zero polynomial,
    which is stored as the single coefficient 0.
    """

    coefficients: tuple[Rational, ...]

    @classmethod
    def of(cls, values) -> "DensePolynomial":
        coeffs = list(values)
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        if not coeffs:
            coeffs = [0]
        return cls(tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def format_rational(x: Rational) -> str:
    """Render an exact value as "num/den", omitting "/den" when den == 1.
    A value that is no rational is a DomainError (:func:`require_rational`).
    Past Python's int-to-str digit limit it raises ValueError: the library
    leaves interpreter state alone, and ``cli.main`` lifts the limit."""
    f = require_rational("format_rational", "x", x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def float_or_inf(x: Rational) -> float:
    """The float of an exact value, or an infinity of its sign beyond the
    float range, where ``float`` raises OverflowError."""
    try:
        return float(x)
    except OverflowError:
        return -math.inf if x < 0 else math.inf
