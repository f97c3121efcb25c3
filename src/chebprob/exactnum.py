"""Exact combinatorial primitives: binomials, Catalan and ballot numbers,
sequence convolution, integer series long division, dyadic rationals and
the dense polynomial type.

All arithmetic here is exact.  Plain ``int`` is the arbitrary-precision
integer and :class:`fractions.Fraction` the exact rational (always stored
normalized with positive denominator); sequences are ordinary lists indexed
from 0.  Everything returned by this module is a plain immutable value, safe
to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

Rational = Union[int, Fraction]

__all__ = [
    "Rational",
    "DomainError",
    "require",
    "binomial",
    "catalan_sequence",
    "ballot_number",
    "convolve",
    "convolution_power",
    "extend_quotient",
    "dyadic",
    "DensePolynomial",
    "format_rational",
    "float_or_inf",
]


class DomainError(ValueError):
    """An argument outside the domain of a public function, raised before any
    work is done: by :func:`require` for one integer and its range, inline for
    the rest (a float, two arguments at once, an empty sequence, a parity).
    The command line reports it as a usage error; every other exception is a
    fault of the program."""


def require(
    caller: str, name: str, value: int, low: int | None = None,
    high: int | None = None,
) -> None:
    """Refuse argument ``name`` of ``caller`` outside low <= value <= high
    (no upper bound when ``high`` is None) with a DomainError: "<caller>
    requires <low> <= <name> <= <high>, got <name>=<value>", or "<caller>
    requires <name> >= <low>, got <name>=<value>".  With no ``low`` either,
    only an integer is required, for a caller that words its range itself.

    A bool, or a value with no ``__index__`` (a float, a Fraction), is no
    integer and is refused first, as "<caller> requires an integer <name>,
    got <name>=<value!r>"; numpy integers pass.  A plain int passes on one
    type test, since the law routes check an index per term."""
    if type(value) is not int and (
        isinstance(value, bool) or not hasattr(value, "__index__")
    ):
        raise DomainError(
            f"{caller} requires an integer {name}, got {name}={value!r}"
        )
    if low is None:
        return
    if high is None:
        if value < low:
            raise DomainError(f"{caller} requires {name} >= {low}, got {name}={value}")
    elif not low <= value <= high:
        raise DomainError(
            f"{caller} requires {low} <= {name} <= {high}, got {name}={value}"
        )


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the total convention: 0 outside 0 <= k <= n.

    Summation formulas downstream run their index over ranges that leave the
    triangle; the zero convention keeps them total.
    """
    require("binomial", "n", n, 0)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def catalan_sequence(count: int) -> list[int]:
    """First ``count`` Catalan numbers [C_0, ..., C_{count-1}]."""
    require("catalan_sequence", "count", count, 1)
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
    require("ballot_number", "n", n, 0)
    if 0 <= k <= n:
        return math.comb(n, k) * (n - 2 * k + 1) // (n - k + 1)
    return -1 if k == n + 1 else 0


def convolve(
    a: Sequence[Rational], b: Sequence[Rational], length: int | None = None
) -> list[Rational]:
    """Convolution c_n = sum_j a_j * b_{n-j}.

    The full result has length len(a) + len(b) - 1.  When the inputs are
    prefixes of longer sequences only the first min(len(a), len(b)) entries
    are meaningful; pass ``length`` to truncate to the range you trust.
    """
    if not a or not b:
        raise DomainError("convolve requires nonempty sequences")
    full = len(a) + len(b) - 1
    n_out = full if length is None else min(length, full)
    out: list[Rational] = [0] * n_out
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        top = min(len(b), n_out - i)
        for j in range(top):
            out[i + j] += ai * b[j]
    return out


def convolution_power(
    a: Sequence[Rational], N: int, length: int | None = None
) -> list[Rational]:
    """N-fold self-convolution of ``a`` (N >= 1), by repeated squaring.

    Exact arithmetic makes the squaring route agree term-for-term with
    iterated :func:`convolve`.  ``length`` truncates as in :func:`convolve`.
    """
    if not a:
        raise DomainError("convolution_power requires a nonempty sequence")
    require("convolution_power", "N", N, 1)
    full = N * (len(a) - 1) + 1
    cap = full if length is None else min(length, full)
    result: list[Rational] | None = None
    base = list(a)
    n = N
    while n:
        if n & 1:
            result = base[:cap] if result is None else convolve(result, base, cap)
        n >>= 1
        if n:
            base = convolve(base, base, cap)
    assert result is not None
    return result[:cap]


def extend_quotient(
    taps: Sequence[tuple[int, int]], c0: int, values: list[int], last: int
) -> list[int]:
    """Extend ``values`` in place through index ``last`` by the long division
    c0 a_m = -sum_i t_i a_{m-i} over the nonzero taps (i, t_i), i >= 1, of an
    integer denominator c0 + t_1 z + t_2 z^2 + ...; returns ``values``.

    This is the one integer series reciprocal of the package; its caller is
    the law of mu_N (``probnum._law``).  The caller pads ``values``
    with at least max(i) leading entries (zeros before the first term of the
    quotient), so every a_{m-i} exists and the loop tests no bound.  Each
    step is a checked ``divmod``: a remainder raises ArithmeticError naming
    the index, for the quotient is then not integral.  The kernel keeps no
    state; callers that share ``values`` between threads hold their lock.
    """
    for m in range(len(values), last + 1):
        a, remainder = divmod(-sum(t * values[m - i] for i, t in taps), c0)
        if remainder:
            raise ArithmeticError(f"division by {c0} is not exact at ell={m}")
        values.append(a)
    return values


_ZERO = Fraction(0)


def dyadic(numerator: int, exponent: int) -> Fraction:
    """numerator / 2^exponent (exponent >= 0) as a normalized Fraction.

    The common factor is the power of two read off the trailing zero bits of
    the numerator, so the coprime pair is known and the instance is built
    from it the way ``Fraction`` builds its own results, without the gcd its
    constructor takes.
    """
    if numerator == 0:
        return _ZERO
    shift = min((numerator & -numerator).bit_length() - 1, exponent)
    out = object.__new__(Fraction)
    out._numerator = numerator >> shift
    out._denominator = 1 << (exponent - shift)
    return out


@dataclass(frozen=True)
class DensePolynomial:
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
    Past Python's int-to-str digit limit it raises ValueError: the library
    leaves interpreter state alone, and ``cli.main`` lifts the limit."""
    f = Fraction(x)
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
