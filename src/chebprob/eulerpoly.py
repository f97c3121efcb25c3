"""Euler numbers, Euler polynomials, and their higher-order generalization,
all exact, by two independent routes.

Conventions.  The Euler numbers E_n are the coefficients of z^n/n! in
1/cosh z (zero for odd n).  E_n(x) denotes the Euler polynomial and
E_n^{(p)}(x) the order-p polynomial whose exponential generating function is
(2 / (1 + e^z))^p e^{xz}; order p = 1 recovers E_n(x), so ``euler_poly(n)``
is ``gen_euler_recursive(n, 1)``.  All of these are monic of degree n and
returned as :class:`~.exactnum.DensePolynomial`.

Two construction routes are provided for the generalized polynomials and are
required to agree coefficient-for-coefficient:

* ``gen_euler_recursive`` raises the order of the values at zero one step
  at a time from order 0, whose row is (1, 0, 0, ...): the generating
  function of order p times h = (1 + e^z)/2 is that of order p - 1, so
  E_n^{(p)}(0) = E_n^{(p-1)}(0) - (1/2) sum_{k<n} binom(n, k) E_k^{(p)}(0),
  one division by h per order.  It then expands E_n^{(p)}(x) = sum_k
  binom(n, k) x^k E_{n-k}^{(p)}(0), each coefficient one dyadic Fraction
  made from the integer row.
* ``gen_euler_series`` expands the generating function directly in the
  ordinary basis: the p-th power of 2/(1 + e^z) = h^(-1), by the integer
  power-series kernel ``exactnum.extend_power`` (J. C. P. Miller's
  recurrence, alpha = -p), then multiplied by the e^{xz} series symbolically
  in x.  It runs in integers scaled by K = 2^n n!: the ordinary coefficient
  of z^m in h^(-p) is E_m^{(p)}(0)/m!, whose denominator divides 2^m m! and
  so K, so each step's division by m K is exact (and checked), and one
  Fraction is made per output coefficient.  Step m costs m products of numbers of about
  2 log2 K bits (plus the m log2 p bits by which E_m^{(p)}(0) grows), so
  the route is O(n^2) such products for every p.  It shares no row with the
  recursive route: one power recurrence for h^(-p) on the ordinary
  coefficients, not p divisions by h on the exponential ones, so each route
  stays an oracle for the other.

The Euler numbers come from their own recurrence, the one of 1/cosh z, which
shares nothing with the values at zero of either route; E_n = 2^n E_n(1/2)
therefore compares two independent recurrences (acceptance criterion 6).
Each call runs it afresh, O(n^2); the library asks for n <= 14 only.

The value-at-zero rows of the recursive route are memoized per order behind
a lock, read by ``gen_euler_zero`` and ``gen_euler_recursive`` (so by
``euler_poly``, the identity's target); its difference table reads none.  The
values at zero are dyadic (2^n E_n^{(p)}(0) is an integer), so the rows are
held as those integers and the recurrence runs in ``int``; a Fraction is
made only on the way out.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .exactnum import (
    DensePolynomial, Rational, dyadic, extend_power, require, require_rational,
)

__all__ = [
    "euler_numbers",
    "euler_poly",
    "gen_euler_zero",
    "gen_euler_recursive",
    "gen_euler_series",
    "eval_poly",
]

_CACHE_LOCK = threading.Lock()
# Value-at-zero rows by order, as integers: row p holds 2^n E_n^{(p)}(0) for
# n = 0, 1, ...
_ZERO_ROWS: dict[int, list[int]] = {0: [1]}


def _zero_rows_upto(p: int, max_n: int) -> list[int]:
    # Caller holds _CACHE_LOCK.  The egf G_q = (2/(1 + e^z))^q of row q
    # satisfies (1 + e^z)/2 G_q = G_{q-1}, so E_n^{(q)}(0) = E_n^{(q-1)}(0)
    # - (1/2) sum_{k<n} binom(n, k) E_k^{(q)}(0); times 2^n, with b the row
    # of order q and b' that of order q - 1: b_n = b'_n - sum_{k<n}
    # binom(n, k) 2^(n-k-1) b_k.  Row 0 is (1, 0, 0, ...).  Only the rows above
    # the highest order under p whose row reaches max_n (a row is never longer
    # than the one below it) are extended, found by a search down: a loop over
    # orders 1..p took the identity grid's n-major requests 1.2x as long.
    if len(_ZERO_ROWS.get(p, ())) > max_n:
        return _ZERO_ROWS[p]
    row0 = _ZERO_ROWS[0]
    row0.extend([0] * (max_n + 1 - len(row0)))
    start = max(p, 1)
    while start > 1 and len(_ZERO_ROWS.get(start - 1, ())) <= max_n:
        start -= 1
    for q in range(start, p + 1):
        prev = _ZERO_ROWS[q - 1]
        row = _ZERO_ROWS.setdefault(q, [])
        for n in range(len(row), max_n + 1):
            acc = sum(math.comb(n, k) * row[k] << (n - k - 1) for k in range(n))
            row.append(prev[n] - acc)
    return _ZERO_ROWS[p]


def euler_numbers(max_n: int) -> tuple[int, ...]:
    """Euler numbers E_0..E_max_n, exact, from cosh z * sum E_n z^n/n! = 1:
    sum over even k <= m of binom(m, k) E_k = 0 for even m >= 2."""
    max_n = require("euler_numbers", "max_n", max_n, 0)
    E = [1]
    for m in range(1, max_n + 1):
        E.append(0 if m % 2 else -sum(math.comb(m, k) * E[k] for k in range(0, m, 2)))
    return tuple(E)


def gen_euler_zero(p: int, max_n: int) -> tuple[Fraction, ...]:
    """E_0^{(p)}(0)..E_max_n^{(p)}(0), exact and memoized per order."""
    p = require("gen_euler_zero", "p", p, 0)
    max_n = require("gen_euler_zero", "max_n", max_n, 0)
    with _CACHE_LOCK:
        row = _zero_rows_upto(p, max_n)[: max_n + 1]
    return tuple(dyadic(b, n) for n, b in enumerate(row))


def euler_poly(n: int) -> DensePolynomial:
    """Euler polynomial E_n(x), the order-1 case of the recursive route."""
    n = require("euler_poly", "n", n, 0)
    return gen_euler_recursive(n, 1)


def gen_euler_recursive(n: int, p: int) -> DensePolynomial:
    """E_n^{(p)}(x) built from the order-raised values at zero.

    Order p = 0 is admitted as the empty product, E_n^{(0)}(x) = x^n.
    """
    n = require("gen_euler_recursive", "n", n, 0)
    p = require("gen_euler_recursive", "p", p, 0)
    with _CACHE_LOCK:
        row = _zero_rows_upto(p, n)[: n + 1]
    # binom(n, k) E_{n-k}^{(p)}(0) = binom(n, k) b_{n-k} / 2^(n-k).
    return DensePolynomial(
        tuple(dyadic(math.comb(n, k) * row[n - k], n - k) for k in range(n + 1))
    )


def gen_euler_series(n: int, p: int) -> DensePolynomial:
    """E_n^{(p)}(x) from the generating function directly; independent of the
    recursive route and required to match it exactly."""
    n = require("gen_euler_series", "n", n, 0)
    p = require("gen_euler_series", "p", p, 0)
    # g = (2/(1 + e^z))^p = h^(-p), h = (1 + e^z)/2, by the power kernel.
    # Scaled by K = 2^n n!, h_0 = K and h_j = K/(2 j!) are integers, and so
    # is G_m = K g_m = K E_m^{(p)}(0)/m! for m <= n, since that denominator
    # divides 2^m m!.
    K = math.factorial(n) << n
    taps = [(j, K // (2 * math.factorial(j))) for j in range(1, n + 1)]
    G = extend_power(taps, K, -p, [K], n)
    # The coefficient of x^k is binom(n, k) (n-k)! g_{n-k} = (n!/k!) G_{n-k}/K
    # = G_{n-k} / (2^n k!), and G_{n-k} / k! is an integer.
    coeffs = []
    for k in range(n + 1):
        q, remainder = divmod(G[n - k], math.factorial(k))
        if remainder:
            raise ArithmeticError(f"division by {k}! is not exact at k={k}")
        coeffs.append(dyadic(q, n))
    return DensePolynomial(tuple(coeffs))


def eval_poly(poly: DensePolynomial, x: Rational) -> Fraction:
    """Exact value of the polynomial at a rational point.

    The coefficients are put over one common denominator and summed by a
    homogeneous Horner in integers, so the result is normalized once instead
    of at every step.
    """
    coefficients = poly.coefficients
    x = require_rational("eval_poly", "x", x)
    den = math.lcm(*(c.denominator for c in coefficients))
    value, q_power = 0, 1
    for c in reversed(coefficients):
        value = value * x.numerator + c.numerator * (den // c.denominator) * q_power
        q_power *= x.denominator
    return Fraction(value, den * x.denominator ** (len(coefficients) - 1))
