"""End-to-end identity checks tying the pieces together.

* ``reconstruct_euler`` sums the weighted generalized-polynomial series

      E_n(x) = N^{-n} sum_{k >= N} p_k E_n^{(k)}( k/2 + N (x - 1/2) )

  with exact arithmetic until it matches the directly computed E_n(x) to a
  requested tolerance.
* ``expectation_form_check`` verifies the underlying expectation identity
  sum_k p_k E_n^{(k)}(k/2) = N^n E_n(1/2), again exactly.
* ``asymptotic_ratio`` tracks the large-N behaviour of the generating
  function 1/T_N(1/z) against the geometric factor (z / (1 + sqrt(1-z^2)))^N.
  Empirically the ratio tends to 2, not 1; callers assert the observed limit.
* ``catalan_prefix_check`` verifies that the normalized coefficients
  q_ell = 2^{ell-1} p_ell start out as the N-th convolution power of the
  Catalan numbers and first disagree exactly at ell = 3N.
* ``catalan_gf_check`` verifies the Catalan generating-function quadratic
  z S(z)^2 - S(z) + 1 = 0 through a given order (the algebraic form of
  S(z) = 2 / (1 + sqrt(1 - 4z)), avoiding float square roots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import (
    Rational,
    catalan_sequence,
    convolution_power,
    format_rational,
)
from .eulerpoly import euler_poly, eval_poly, gen_euler_recursive
from .probnum import _law, probnum_series
from .series import TruncatedSeries

__all__ = [
    "ConvergenceError",
    "ReconstructionResult",
    "QSequence",
    "CatalanPrefixReport",
    "CatalanGFReport",
    "reconstruct_euler",
    "expectation_form_check",
    "asymptotic_ratio",
    "q_sequence",
    "catalan_prefix_check",
    "catalan_gf_check",
]

DEFAULT_MAX_K = 2000
# Band, in standard errors, of the Monte Carlo checks; here, not in the numpy
# module ``stochastic``, so that the command line reads it without numpy.
DEFAULT_BAND = 4.0


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
    term geometrically (heuristic, for reporting only).
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


def _weighted_terms(n: int, N: int, shift: Fraction, max_k: int):
    """Yield (k, p_k E_n^{(k)}(k/2 + shift)) for k = N, N+2, ..., max_k;
    off-parity weights vanish."""
    for k in range(N, max_k + 1, 2):
        weight = _law(N, k)[k]
        yield k, weight * eval_poly(gen_euler_recursive(n, k), Fraction(k, 2) + shift)


def reconstruct_euler(
    n: int,
    N: int,
    x: Rational,
    tol: float,
    max_k: int = DEFAULT_MAX_K,
) -> ReconstructionResult:
    """Sum the weighted generalized-polynomial series for E_n(x) until the
    exact difference from the exact target drops to ``tol``.

    Terms run over k = N, N+2, ... (off-parity weights vanish); everything is
    accumulated as rationals, floats appear only in the report.  Raises
    :class:`ConvergenceError` when the budget ``max_k`` is exhausted first.
    """
    if n < 0:
        raise ValueError(f"reconstruct_euler requires n >= 0, got n={n}")
    if N < 1:
        raise ValueError(f"reconstruct_euler requires N >= 1, got N={N}")
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    x = Fraction(x)
    target = eval_poly(euler_poly(n), x)
    tol_exact = Fraction(tol)
    scale = Fraction(N) ** n
    shift = N * (x - Fraction(1, 2))
    decay = math.cos(math.pi / (2 * N))

    partial = Fraction(0)
    terms_used = 0
    first_small: int | None = None
    last_term = Fraction(0)

    for k, weighted in _weighted_terms(n, N, shift, max_k):
        term = weighted / scale
        partial += term
        terms_used += 1
        last_term = term
        if first_small is None and abs(term) < tol_exact / 10:
            first_small = k
        error = abs(partial - target)
        if error <= tol_exact:
            tail = float(abs(last_term)) * decay**2 / (1.0 - decay**2) if decay else 0.0
            return ReconstructionResult(
                n=n,
                N=N,
                x=x,
                terms_used=terms_used,
                partial_value=partial,
                target=target,
                abs_error=float(error),
                tail_estimate=tail,
                first_small_term_k=first_small,
            )
    raise ConvergenceError(
        f"series for E_{n}(x) with N={N} not within {tol} after k={max_k}",
        achieved_error=float(abs(partial - target)),
    )


def expectation_form_check(
    n: int,
    N: int,
    tol: float = 1e-12,
    max_k: int = DEFAULT_MAX_K,
) -> Fraction:
    """Truncate sum_k p_k E_n^{(k)}(k/2) against N^n E_n(1/2) and return the
    exact absolute difference once it is within ``tol``."""
    if n < 0:
        raise ValueError(f"expectation_form_check requires n >= 0, got n={n}")
    if N < 1:
        raise ValueError(f"expectation_form_check requires N >= 1, got N={N}")
    target = Fraction(N) ** n * eval_poly(euler_poly(n), Fraction(1, 2))
    tol_exact = Fraction(tol)
    partial = Fraction(0)
    for _, weighted in _weighted_terms(n, N, Fraction(0), max_k):
        partial += weighted
        difference = abs(partial - target)
        if difference <= tol_exact:
            return difference
    raise ConvergenceError(
        f"expectation identity for n={n}, N={N} not within {tol} after k={max_k}",
        achieved_error=float(abs(partial - target)),
    )


def asymptotic_ratio(N: int, z: float) -> float:
    """Ratio of 1/T_N(1/z) to (z / (1 + sqrt(1-z^2)))^N for 0 < z < 1.

    With a = (1 + sqrt(1-z^2))/z > 1 one has T_N(1/z) = (a^N + a^-N)/2, so
    the ratio equals 2 / (1 + a^(-2N)): finite, positive, increasing in N,
    and tending to 2.
    """
    if N < 1:
        raise ValueError(f"asymptotic_ratio requires N >= 1, got N={N}")
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie strictly inside (0, 1), got z={z!r}")
    a = (1.0 + math.sqrt(1.0 - z * z)) / z
    return 2.0 / (1.0 + math.exp(-2.0 * N * math.log(a)))


@dataclass(frozen=True)
class QSequence:
    """Normalized coefficients q_ell = 2^{ell-1} p_ell for ell = 0..max."""

    N: int
    values: tuple[Fraction, ...]


def q_sequence(N: int, max_ell: int) -> QSequence:
    if N < 1:
        raise ValueError(f"q_sequence requires N >= 1, got N={N}")
    table = probnum_series(N, max_ell)
    values = tuple(
        Fraction(2) ** (ell - 1) * v for ell, v in enumerate(table.values)
    )
    return QSequence(N, values)


@dataclass(frozen=True)
class CatalanPrefixReport:
    """Comparison of q_{N+2k} against the Catalan convolution power entries
    for k = 0..N, with the first disagreement pinned at ell = 3N."""

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

    def json_dict(self) -> dict:
        return {
            "N": self.N,
            "q_prefix": [format_rational(v) for v in self.q_prefix],
            "convolution_prefix": list(self.convolution_prefix),
            "prefix_equal": self.prefix_equal,
            "mismatch_ell": self.mismatch_ell,
            "q_at_mismatch": format_rational(self.q_at_mismatch),
            "convolution_at_mismatch": self.convolution_at_mismatch,
            "leading_difference": format_rational(self.leading_difference),
        }


def catalan_prefix_check(N: int) -> CatalanPrefixReport:
    """Verify q_{N+2k} = (Catalan^{*N})_k exactly for k < N and that the
    first disagreement falls exactly at ell = 3N.

    The observed leading difference is reported, not asserted to any
    particular value.
    """
    if N < 1:
        raise ValueError(f"catalan_prefix_check requires N >= 1, got N={N}")
    q = q_sequence(N, 3 * N).values
    conv = convolution_power(catalan_sequence(N + 1), N, length=N + 1)
    q_prefix = tuple(q[N + 2 * k] for k in range(N))
    conv_prefix = tuple(int(c) for c in conv[:N])
    prefix_equal = all(a == b for a, b in zip(q_prefix, conv_prefix))
    difference = Fraction(conv[N]) - q[3 * N]
    return CatalanPrefixReport(
        N=N,
        q_prefix=q_prefix,
        convolution_prefix=conv_prefix,
        prefix_equal=prefix_equal,
        mismatch_ell=3 * N,
        q_at_mismatch=q[3 * N],
        convolution_at_mismatch=int(conv[N]),
        leading_difference=difference,
    )


@dataclass(frozen=True)
class CatalanGFReport:
    order: int
    ok: bool
    residual: tuple[Fraction, ...]


def catalan_gf_check(order: int) -> CatalanGFReport:
    """Check z S^2 - S + 1 = 0 through z^order for the Catalan series S."""
    if order < 1:
        raise ValueError(f"catalan_gf_check requires order >= 1, got {order}")
    s = TruncatedSeries.of(catalan_sequence(order + 1), order)
    residual = s.pow(2).shift(1) - s + TruncatedSeries.one(order)
    return CatalanGFReport(order, residual.is_zero(), residual.coefficients)
