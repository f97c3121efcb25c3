"""Chebyshev polynomials of the first and second kind with exact integer
coefficients, plus the reversed first-kind polynomial, whose reciprocal
series is the law of mu_N.  The law builds its taps in closed form
(``probnum._law``); T_N is their oracle in the tests.  The package does not
load this module; U_N waits on the Bernoulli companion (ROADMAP item 6).

T_N is defined by T_N(cos t) = cos(N t) and computed here from the recurrence
T_0 = 1, T_1 = z, T_{n+1} = 2z T_n - T_{n-1}; U_N likewise with U_0 = 1,
U_1 = 2z.  The reversed polynomial is z^N T_N(1/z), i.e. the coefficient
vector of T_N read back to front; its constant term 2^{N-1} never vanishes,
so its reciprocal power series exists.
"""

from __future__ import annotations

from .exactnum import DensePolynomial, require

__all__ = [
    "chebyshev_T",
    "chebyshev_U",
    "reversed_T",
]


def chebyshev_T(N: int) -> DensePolynomial:
    """First-kind Chebyshev polynomial T_N, exact coefficients."""
    N = require("chebyshev_T", "N", N, 0)
    return _recurrence(N, u_kind=False)


def chebyshev_U(N: int) -> DensePolynomial:
    """Second-kind Chebyshev polynomial U_N, exact coefficients."""
    N = require("chebyshev_U", "N", N, 0)
    return _recurrence(N, u_kind=True)


def _recurrence(N: int, u_kind: bool) -> DensePolynomial:
    prev = [1]
    cur = [0, 2 if u_kind else 1]
    if N == 0:
        return DensePolynomial.of(prev)
    for _ in range(N - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return DensePolynomial.of(cur)


def reversed_T(N: int) -> DensePolynomial:
    """Coefficient reversal of T_N: the coefficient of z^j is the coefficient
    of z^{N-j} in T_N.  Its constant term is the leading 2^{N-1} of T_N."""
    N = require("reversed_T", "N", N, 1)
    return DensePolynomial.of(tuple(reversed(chebyshev_T(N).coefficients)))
