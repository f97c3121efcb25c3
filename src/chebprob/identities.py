"""End-to-end identity checks tying the pieces together.

* ``reconstruct_euler`` sums the weighted generalized-polynomial series

      E_n(x) = N^{-n} sum_{k >= N} p_k E_n^{(k)}( k/2 + N (x - 1/2) )

  with exact arithmetic, stepping a difference table in k, until it matches
  the directly computed E_n(x) to a requested tolerance.
* ``expectation_form_check`` verifies the underlying expectation identity
  sum_k p_k E_n^{(k)}(k/2) = N^n E_n(1/2): the same sum at x = 1/2, not
  divided by N^n.  Both run one summation routine, ``_reconstruct``.
* ``asymptotic_ratio`` tracks the large-N behaviour of the generating
  function 1/T_N(1/z) against the geometric factor (z / (1 + sqrt(1-z^2)))^N.
  The ratio is 2 / (1 + a^(-2N)) with a = (1 + sqrt(1-z^2))/z > 1 (proved in
  its docstring), so it increases in N and tends to 2, not 1.
* ``catalan_prefix_check`` verifies that the normalized coefficients
  q_ell = 2^{ell-1} p_ell start out as the coefficients of C(z)^N, the N-th
  power of the Catalan series, and first disagree exactly at ell = 3N.
* ``moment_integral_check`` checks the moments of the sech(pi t) density,
  integral of t^k sech(pi t) dt = |E_k| / 2^k (0 for odd k), by the
  trapezoid rule in stdlib floats, so the check loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .eulerpoly import euler_numbers, euler_poly, eval_poly
from .exactnum import (
    DomainError,
    Rational,
    catalan_sequence,
    extend_power,
    float_or_inf,
    format_rational,
    require,
    require_positive,
    require_rational,
)
from .probnum import _check_table_args, _law

__all__ = [
    "ConvergenceError",
    "ReconstructionResult",
    "CatalanPrefixReport",
    "reconstruct_euler",
    "expectation_form_check",
    "asymptotic_ratio",
    "catalan_prefix_check",
    "moment_integral_check",
    "INTEGRAL_TOL",
    "MAX_MOMENT_ORDER",
]

# The least term budget; the budget grows from here (_default_max_k).
DEFAULT_MAX_K = 2000
# The largest term budget.  A sum forced to the end of it (n = 8, N = 10,
# x = 10^6) took 2.4 s and 153 MB on a 2-vCPU VM.  Its memory is the law
# memo, which through k holds about k^2 / 2 bits, so the budget of n = 8,
# N = 10, x = 10^400 (607350) would hold about 23 GB.
MAX_K = 2**16
# Largest n and N of the identity.  A sum to the end of a budget of MAX_K
# builds the law of mu_N through it, O(N) operations on k-bit numbers per
# term, and n//2 additions per term; at n = MAX_DEGREE and N = MAX_N that
# takes the time and memory given in README "Cost".
MAX_DEGREE = 32
MAX_N = 2**7
# The law memo is read this many indices ahead of the current term (never
# past the budget), so a sum takes its lock once per block, not per term.
_LAW_BLOCK = 2**7
# Bounds of moment_integral_check's deviation, by k % 2: an absolute 1e-10
# for even k, and 1e-12 for odd k, whose moments vanish identically.
INTEGRAL_TOL = (1e-10, 1e-12)
# The moment |E_k| / 2^k grows fast (1.2e4 at k = 14), so the rounding of the
# sum alone exceeds the 1e-10 bound past this order (k = 14 gives 7e-12,
# k = 16 2e-10).
MAX_MOMENT_ORDER = 14
# Trapezoid step of the moment integrals.  Their integrands are analytic in
# the strip |Im t| < 1/2, so the rule's error is about 4 exp(-pi / h) 2^-k,
# 6e-22 at h = 1/16, far below rounding; a power of two keeps every node
# exact.
_QUAD_STEP = 1 / 16


class ConvergenceError(RuntimeError):
    """The weighted series did not reach the tolerance within the k-budget."""

    def __init__(self, message: str, achieved_error: float):
        self.achieved_error = achieved_error
        super().__init__(f"{message} (achieved error {achieved_error:.3e})")


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of one truncated reconstruction of E_n(x).

    ``abs_error`` is the float image of the exact difference between
    ``partial_value`` and ``target``; ``tail_estimate`` extrapolates the last
    term geometrically (heuristic, for reporting only; 0 at N = 1).
    ``first_small_term_k`` records where added terms first dropped below a
    tenth of the tolerance: the stopping rule available when no exact target
    exists.
    """

    n: int
    N: int
    x: Fraction
    terms_used: int
    partial_value: Fraction
    target: Fraction
    abs_error: float
    tail_estimate: float
    first_small_term_k: int | None

    def json_dict(self) -> dict:
        return {
            "n": self.n,
            "N": self.N,
            "x": format_rational(self.x),
            "terms_used": self.terms_used,
            "partial_value": format_rational(self.partial_value),
            "target": format_rational(self.target),
            "abs_error": self.abs_error,
            "tail_estimate": self.tail_estimate,
            "first_small_term_k": self.first_small_term_k,
        }


def _default_max_k(n: int, N: int, tol: float, x: Rational = Fraction(1, 2)) -> int:
    """Default term budget of the weighted series: the least k >= 2000 with
    k^n (1 + 2N|x - 1/2|)^n c^k / (1 - c) <= tol, c = cos(pi/2N).

    The weights decay like c^k, so the tail of the series past k is at most
    the geometric sum 1/(1 - c) times its first term (the factor that
    ``probnum.geometric_tail_bound`` carries); E_n^{(k)} at the series' point
    y = k/2 + N(x - 1/2) grows like y^n, |y| <= (k/2)(1 + 2N|x - 1/2|).  The
    log of that spread is taken from its integer terms, so no float overflows."""
    u, q = Fraction(x).as_integer_ratio()
    log_spread = math.log(q + N * abs(2 * u - q)) - math.log(q)
    decay = math.cos(math.pi / (2 * N))
    log_decay = math.log(decay)
    log_tol = math.log(tol) + math.log1p(-decay)

    def reached(k: int) -> bool:
        return n * (math.log(k) + log_spread) + k * log_decay <= log_tol

    if reached(DEFAULT_MAX_K):
        return DEFAULT_MAX_K
    # n log k + k log_decay falls from k = n / -log_decay on; search there.
    low = max(DEFAULT_MAX_K, math.ceil(n / -log_decay))
    high = 2 * low
    while not reached(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if reached(mid) else (mid, high)
    return high


def _reconstruct(
    caller: str,
    what: str,
    n: int,
    N: int,
    x: Rational,
    divided: bool,
    tol: float,
) -> ReconstructionResult:
    """The one summation of the identity: sum S_k / scale for k = N, N+2, ...
    (off-parity weights vanish), S_k = sum_{j <= k} p_j E_n^{(j)}(j/2 +
    N(x - 1/2)), until it is within ``tol`` of N^n E_n(x) / scale, with k at
    most the term budget ``_default_max_k(n, N, tol, x)``; scale is N^n if
    ``divided``, else 1.

    The domain: 0 <= n <= MAX_DEGREE, 1 <= N <= MAX_N, a rational x, a real
    finite tol > 0 and a term budget of at most MAX_K; ``caller`` names the
    entry point in the DomainError, ``what`` the sum in the
    ConvergenceError.

    With x = u/q, the argument is Y_k / 2q for Y_k = kq + N(2u - q), and
    H_k = (2q)^n E_n^{(k)}(Y_k / 2q) is an integer polynomial of degree at
    most n//2 in k, whose difference table :func:`_seed_table` builds at
    k = N; a term is a_k H_k, a_k = 2^k p_k, and n//2 additions step the
    table.  S_k = total / den with den = 2^(n+k) q^n; no gcd is taken.  With
    target = g / h and tol = e / f, the stop test and the small-term test are
    multiplied through by scale den h f > 0, and den enters them as a shift
    by n + k.  The law memo is read _LAW_BLOCK indices ahead, so its lock is
    taken once per block of terms, and the memo is never extended past the
    budget.
    """
    n = require(caller, "n", n, 0, MAX_DEGREE)
    N = require(caller, "N", N, 1, MAX_N)
    tol = require_positive(caller, "tol", tol)
    x = require_rational(caller, "x", x)
    scale = N**n if divided else 1
    budget = _default_max_k(n, N, tol, x)
    if budget > MAX_K:
        raise DomainError(
            f"{caller} requires a term budget of at most {MAX_K}; "
            f"n={n}, N={N}, this x and tol={tol} need {budget}"
        )
    target = eval_poly(euler_poly(n), x) * Fraction(N**n, scale)
    tol_exact = Fraction(tol)

    g, h = target.numerator * scale, target.denominator
    e, f = tol_exact.numerator, tol_exact.denominator
    u, q = x.numerator, x.denominator
    q_n = q**n
    order = n // 2
    table = _seed_table(n, N, q, N * (2 * u - q))
    # den = q^n 2^(n+k), so g den and e scale den are shifts of g q^n and
    # e scale q^n, made once.
    g_q = g * q_n
    bound = e * scale * q_n
    bound_h = bound * h
    terms_used = 0
    first_small: int | None = None
    total = 0
    held = N - 1  # the law is read through index held
    for k in range(N, budget + 1, 2):
        if k > held:
            held = min(k + _LAW_BLOCK, budget)
            law = _law(N, held)
        term = law[k] * table[0]
        for i in range(order):
            table[i] += table[i + 1]
        total = (total << 2) + term
        terms_used += 1
        if first_small is None and 10 * f * abs(term) < bound << (n + k):
            first_small = k
        if abs(total * h - (g_q << (n + k))) * f <= bound_h << (n + k):
            den = q_n << (n + k)
            partial = Fraction(total, scale * den)
            # mu_1 = 1 is a point mass, so nothing lies past its one term.
            # In floats cos(pi/2) is 6.1e-17, not 0, and a zero decay times
            # an infinite last term would be NaN, so N = 1 skips the formula.
            tail = 0.0
            if N > 1:
                decay = math.cos(math.pi / (2 * N))
                last_term = float_or_inf(Fraction(abs(term), scale * den))
                tail = last_term * decay**2 / (1.0 - decay**2)
            return ReconstructionResult(
                n=n,
                N=N,
                x=x,
                terms_used=terms_used,
                partial_value=partial,
                target=target,
                abs_error=float(abs(partial - target)),
                tail_estimate=tail,
                first_small_term_k=first_small,
            )
    den = q_n << (n + k)
    raise ConvergenceError(
        f"{what} not within {tol} by k={budget}, the end of the term budget",
        achieved_error=float_or_inf(abs(Fraction(total, scale * den) - target)),
    )


def _seed_table(n: int, N: int, q: int, offset: int) -> list[int]:
    """H_k = (2q)^n E_n^{(k)}(k/2 + w), w = offset / 2q, and its differences
    of orders 1..n//2, step 2, at k = N.  The egf sech(t/2)^k e^{wt} has
    log sech(t/2) = O(t^2), so H_k is a polynomial of degree at most n//2 in
    k (Noerlund).  At k = -r the egf is cosh(t/2)^r e^{wt} =
    E[e^{(w + R_r/2) t}], R_r a sum of r independent +-1 signs, so H_-r =
    E[(offset + q R_r)^n]; the table is seeded at r = r0, r0 + 2, ...,
    r0 + 2(n//2), r0 = N % 2, and stepped to k = N."""
    order = n // 2
    # Every moment of R_r is an integer, so the shift by r bits is exact.
    table = [
        sum(math.comb(r, i) * (offset + q * (r - 2 * i)) ** n
            for i in range(r + 1)) >> r
        for r in range(N % 2 + 2 * order, -1, -2)
    ]
    for i in range(1, order + 1):
        for j in range(order, i - 1, -1):
            table[j] -= table[j - 1]
    for _ in range((N + 1) // 2 + order):
        for i in range(order):
            table[i] += table[i + 1]
    return table


def reconstruct_euler(
    n: int,
    N: int,
    x: Rational,
    tol: float,
) -> ReconstructionResult:
    """Sum the weighted generalized-polynomial series for E_n(x) until the
    exact difference from the exact target drops to ``tol``.

    Terms run over k = N, N+2, ... (off-parity weights vanish); everything is
    accumulated exactly, floats appear only in the report.  The term budget
    is the library's: it grows from 2000 with n, N, |x - 1/2| and 1/tol, and
    a call whose budget would pass MAX_K is refused with DomainError before
    any term is summed.  Raises :class:`ConvergenceError` when the budget is
    exhausted first, which on a true identity means the library is wrong.
    """
    return _reconstruct(
        "reconstruct_euler", f"series for E_{n}(x) with N={N}",
        n, N, x, True, tol,
    )


def expectation_form_check(
    n: int,
    N: int,
    tol: float = 1e-12,
) -> Fraction:
    """Truncate sum_k p_k E_n^{(k)}(k/2) against N^n E_n(1/2) and return the
    exact absolute difference once it is within ``tol``, under the term
    budget of :func:`reconstruct_euler`.  It is the sum of
    :func:`reconstruct_euler` at x = 1/2, not divided by N^n."""
    result = _reconstruct(
        "expectation_form_check", f"expectation identity for n={n}, N={N}",
        n, N, Fraction(1, 2), False, tol,
    )
    return abs(result.partial_value - result.target)


def asymptotic_ratio(N: int, z: float) -> float:
    """Ratio of 1/T_N(1/z) to (z / (1 + sqrt(1-z^2)))^N for 0 < z < 1.

    With a = (1 + sqrt(1-z^2))/z > 1 one has T_N(1/z) = (a^N + a^-N)/2, so
    the ratio equals 2 / (1 + a^(-2N)): finite, positive, increasing in N,
    and tending to 2.  An N past 2^53, beyond the integers a float holds, is
    refused.
    """
    N = require("asymptotic_ratio", "N", N, 1, 2**53)
    if not (isinstance(z, Real) and 0.0 < z < 1.0):
        raise DomainError(f"z must lie strictly inside (0, 1), got z={z!r}")
    a = (1.0 + math.sqrt(1.0 - z * z)) / z
    return 2.0 / (1.0 + math.exp(-2.0 * N * math.log(a)))


@dataclass(frozen=True)
class CatalanPrefixReport:
    """Comparison of q_{N+2k} against the coefficients of z^k in C(z)^N, the
    N-th power of the Catalan series, for k = 0..N, with the first
    disagreement pinned at ell = 3N."""

    N: int
    q_prefix: tuple[Fraction, ...]
    convolution_prefix: tuple[int, ...]
    prefix_equal: bool
    mismatch_ell: int
    q_at_mismatch: Fraction
    convolution_at_mismatch: int
    leading_difference: Fraction

    @property
    def ok(self) -> bool:
        return self.prefix_equal and self.leading_difference != 0


def catalan_prefix_check(N: int) -> CatalanPrefixReport:
    """Verify q_{N+2k} = [z^k] C(z)^N exactly for k < N and that the first
    disagreement falls exactly at ell = 3N.

    C(z) = sum_j C_j z^j is the Catalan series; its power through z^N is
    taken by the integer power kernel :func:`~.exactnum.extend_power`
    (alpha = N), and the q_ell = a_ell / 2 are read from the law memo built
    through 3N.  That table has the cap of a table of the law,
    N * 3N <= ``probnum.MAX_LAW_WORK``, so N <= 2364.  The observed leading
    difference is reported, not asserted to any particular value.
    """
    N, _ = _check_table_args("catalan_prefix_check", N, 3 * N)
    # q_ell = a_ell / 2 with a_ell = 2^ell p_ell the integers of the law memo.
    law = _law(N, 3 * N)
    q_prefix = tuple(Fraction(law[N + 2 * k], 2) for k in range(N))
    q_at_mismatch = Fraction(law[3 * N], 2)
    taps = list(enumerate(catalan_sequence(N + 1)))[1:]
    power = extend_power(taps, 1, N, [1], N)
    conv_prefix = tuple(power[:N])
    return CatalanPrefixReport(
        N=N,
        q_prefix=q_prefix,
        convolution_prefix=conv_prefix,
        prefix_equal=q_prefix == conv_prefix,
        mismatch_ell=3 * N,
        q_at_mismatch=q_at_mismatch,
        convolution_at_mismatch=power[N],
        leading_difference=power[N] - q_at_mismatch,
    )


def moment_integral_check(k: int) -> float:
    """Quadrature check of the sech moment integral: the k-th absolute moment
    of the sech(pi x) density equals |E_k| / 2^k for even k and vanishes for
    odd k.

    Returns the absolute deviation of the trapezoid rule (step ``_QUAD_STEP``)
    from the exact value; the check passes when it is at most
    ``INTEGRAL_TOL[k % 2]``.  Orders above ``MAX_MOMENT_ORDER``, where
    rounding alone exceeds that bound, are refused.
    """
    k = require("moment_integral_check", "k", k, 0, MAX_MOMENT_ORDER)
    value = _trapezoid_moment(k, _QUAD_STEP)
    if k % 2 == 1:
        return abs(value)
    reference = Fraction(abs(euler_numbers(k)[k]), 2**k)
    return abs(value - float(reference))


def _trapezoid_moment(k: int, h: float) -> float:
    """Trapezoid rule of step h for the integral of t^k sech(pi t) over
    [-c, c], c = 14 + 2k, summed exactly by ``math.fsum``.

    The cutoff grows with k so the discarded tail stays far below
    ``INTEGRAL_TOL`` (the integrand at the cutoff is below 1e-18); the rule
    has 2c/h + 1 nodes.  The integrand is evaluated at the positive nodes
    only and mirrored with the sign (-1)^k: libm's pow and cosh are exactly
    odd and even, so this gives the values at every node, at half the cost,
    and an odd moment sums to exactly 0.
    """
    cutoff = 14.0 + 2.0 * k
    half = [(j * h) ** k / math.cosh(math.pi * (j * h))
            for j in range(1, round(cutoff / h) + 1)]
    half[-1] *= 0.5
    sign = -1.0 if k % 2 else 1.0
    return h * math.fsum([0.0**k, *half, *(sign * value for value in half)])
