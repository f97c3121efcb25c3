"""Probability numbers: the law of the random index mu_N.

The generating function of mu_N is the reciprocal 1/T_N(1/z); its power
series coefficients p_ell = Pr(mu_N = ell) are rationals supported on
{N, N+2, N+4, ...}, every one >= 0: the law is a convolution of laws, since
mu_N is N plus twice a sum of floor(N/2) independent geometric variables
(``stochastic.sample_mu``).  This module computes them by three independent
routes and cross-validates:

* ``probnum_series``  -- exact: z^N times the truncated reciprocal of the
  reversed Chebyshev polynomial, the power -1 taken by the integer
  power-series kernel ``exactnum.extend_power``.
* ``probnum_trig``    -- float: the root-angle formula
  p_ell = (1/N) sum_{k=1}^{N} (-1)^{k+1} sin(t_k) cos(t_k)^{ell-1}
  with t_k = (2k-1) pi / (2N).
* ``probnum_catalan`` -- exact: an alternating ballot-number (Catalan
  triangle) sum, folded into one branch (below); ``catalan_table`` counts
  the exit paths it counts, for a whole table, by additions alone.

Exact routes must agree identically; the trig route agrees to float
accuracy.  ``cross_validate`` enforces both.

The ballot sum.  With n = ell - 1 the ballot number
A(n, k) = binom(n, k) - binom(n, k-1) gives
2^ell p_ell = sum_t (-1)^t A(n, (ell - (2t+1)N)/2) over all integers t,
under the total binomial convention.  Write B(n, d) = binom(n, (n-d)/2),
zero for |d| > n; then A(n, (ell - (2t+1)N)/2) = B(n, (2t+1)N - 1) -
B(n, (2t+1)N + 1).  As B(n, -d) = B(n, d) (that is,
binom(n, k) = binom(n, n-k)), the map t -> -1-t leaves each term
(-1)^t [B(n, (2t+1)N - 1) - B(n, (2t+1)N + 1)] unchanged, so the terms with
t < 0 repeat those with t >= 0 and

    2^ell p_ell = 2 sum_{t >= 0} (-1)^t [B(n, (2t+1)N - 1) - B(n, (2t+1)N + 1)],

about ell/N terms.  It is the method-of-images count of the +-1 paths from
0 that first reach -N or N at step ell, so mu_N is the exit time of simple
random walk from (-N, N) (Feller, *An Introduction to Probability Theory*,
Vol. 1, Ch. XIV).  ``catalan_table`` counts those paths on the half-line
0..N, as they are symmetric about 0: about N L additions of at most L bits
for a table through L.  This route shares nothing with the recurrence below.

The series values live in one append-only memo per N, lock-guarded and
held for the life of the process; the identity layer reads it.
The reciprocal of the reversed polynomial c_0 + c_1 z + ... + c_N z^N gives
p_ell = -(c_1 p_{ell-1} + ... + c_N p_{ell-N}) / c_0.  The values are dyadic
(the denominator of p_ell divides 2^ell), so the memo holds the integers
a_ell = 2^ell p_ell.  With c_0 = 2^(N-1), their series is
2 / (1 + t_1 z + ... + t_N z^N) over the integer taps
t_{2k} = 2^{2k} c_{2k} / c_0 (the odd c_i vanish), so

    a_ell = -(t_1 a_{ell-1} + t_2 a_{ell-2} + ... + t_N a_{ell-N}):

the power -1 of the package's one integer power-series kernel,
``exactnum.extend_power``, with a_N = 2 at index N after N leading zeros.
The taps are built in closed form (Rivlin, *Chebyshev Polynomials*, ch. 1),
t_{2k} = (-1)^k N/(N-k) binom(N-k, k) = (-1)^k (binom(N-k, k) +
binom(N-k-1, k-1)) for k = 1..N//2; the tests hold them against
``chebyshev.reversed_T``.  Each new term costs O(N) integer operations and
no gcd, a longer table never redoes the terms already held, and a Fraction
is made only where a public function returns one.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from fractions import Fraction
from operator import add
from typing import Iterator, Literal

from .exactnum import (
    DomainError,
    ballot_number,
    dyadic,
    extend_power,
    format_rational,
    require,
    require_positive,
)

__all__ = [
    "ProbTable",
    "CrossValidationError",
    "CrossValidationReport",
    "root_angles",
    "probnum_series",
    "probnum_trig",
    "probnum_catalan",
    "catalan_table",
    "trig_value",
    "cross_validate",
    "tail_mass",
    "geometric_tail_bound",
]

Method = Literal["series", "trig", "catalan"]

# Bounds of a table of the law through max_ell, which set its time and memory
# (README "Cost" gives the worst tables they admit).  The memo holds about
# max_ell^2 / 2 bits, 64 MiB at MAX_ELL.
MAX_ELL = 2**15
# A series term costs about N/2 products of taps of up to N bits by terms of
# ell bits, so a table at most about (N max_ell)^2 bit operations, and a trig
# table N max_ell float operations.  As max_ell >= N, this bounds N by 2^12.
MAX_LAW_WORK = 2**24
# The walk's table (catalan_table, cross_validate) adds the N counts of its
# half-line a step, of up to max_ell bits (N max_ell^2 bit operations).
MAX_BALLOT_ELL = 2**13

# The series-vs-trig bound of cross_validate.  The worst deviation of the trig
# route from the exact law over N in {1, 2, 7, 30, 100, 500, 1000, 2048} and
# max_ell up to 8192 is 9.1e-17, so a deviation past 1e-10 is a fault.
TRIG_TOL = 1e-10

_LAW_LOCK = threading.Lock()
# N -> (the taps (2k, t_2k), k = 1..N//2; a_0, a_1, ...) with
# a_ell = 2^ell p_ell
_LAW: dict[int, tuple[tuple, list[int]]] = {}


class CrossValidationError(Exception):
    """Two computation methods disagree at a specific index."""

    def __init__(self, N: int, ell: int, methods: str, detail: str):
        self.N = N
        self.ell = ell
        self.methods = methods
        super().__init__(f"N={N}, ell={ell}, {methods}: {detail}")


def root_angles(N: int) -> tuple[float, ...]:
    """The root angles t_k = (2k-1) pi / (2N) for k = 1..N; the cos(t_k) are
    the roots of T_N."""
    N = require("root_angles", "N", N, 1)
    return tuple((2 * k - 1) * math.pi / (2 * N) for k in range(1, N + 1))


def _trig_values(N: int, ells: range) -> list[float]:
    """The root-angle formula at each ell of ``ells`` (0.0 at ell = 0), from
    one list of the terms (sign (-1)^(k+1), sin t_k, cos t_k)."""
    terms = [
        (-1.0 if i % 2 else 1.0, math.sin(t), math.cos(t))
        for i, t in enumerate(root_angles(N))
    ]
    return [
        math.fsum(sign * s * c ** (ell - 1) for sign, s, c in terms) / N
        if ell else 0.0
        for ell in ells
    ]


@dataclass(frozen=True)
class ProbTable:
    """Prefix of the law of mu_N: values[ell] approximates or equals p_ell
    for ell = 0..max_ell, tagged with the producing method and an upper
    bound on the mass beyond max_ell."""

    N: int
    max_ell: int
    values: tuple
    method: Method
    tail_bound: float

    def support(self) -> Iterator[tuple[int, object]]:
        """(ell, value) pairs over the support indices N, N+2, ..."""
        for ell in range(self.N, self.max_ell + 1, 2):
            yield ell, self.values[ell]

    def rows(self) -> list[tuple[int, str | None, float]]:
        """Support rows (ell, exact-string-or-None, float value)."""
        exact = self.method != "trig"
        out = []
        for ell, v in self.support():
            if exact:
                out.append((ell, format_rational(v), float(v)))
            else:
                out.append((ell, None, float(v)))
        return out

    def json_dict(self) -> dict:
        return {
            "N": self.N,
            "max_ell": self.max_ell,
            "method": self.method,
            "tail_bound": self.tail_bound,
            "values": [
                {"ell": ell, "exact": exact, "float": fv}
                for ell, exact, fv in self.rows()
            ],
        }

    def csv_rows(self) -> list[list[str]]:
        rows = [["ell", "exact", "float"]]
        for ell, exact, fv in self.rows():
            rows.append([str(ell), exact if exact is not None else "", repr(fv)])
        return rows


def _law(N: int, max_ell: int) -> list[int]:
    """The memo of mu_N as the integers a_ell = 2^ell p_ell, extended through
    ``max_ell`` by :func:`~.exactnum.extend_power`.

    The list is append-only: callers index or slice it below ``max_ell``
    without the lock, and never mutate it.
    """
    with _LAW_LOCK:
        entry = _LAW.get(N)
        if entry is None:
            taps = tuple(
                (2 * k, (-1) ** k * (math.comb(N - k, k) + math.comb(N - k - 1, k - 1)))
                for k in range(1, N // 2 + 1)
            )
            # a_N = 2^N / c_0 = 2.
            entry = _LAW[N] = (taps, [0] * N + [2])
        taps, values = entry
        return extend_power(taps, 1, -1, values, max_ell, N)


def _gap_up(numerators: list[int], max_ell: int) -> float:
    """The exact mass beyond max_ell, 1 - sum_{ell <= max_ell} p_ell, from
    the numerators a_ell = 2^ell p_ell as one integer sum over 2^max_ell,
    rounded up to the next float."""
    total = 0
    for a in numerators[: max_ell + 1]:
        total = (total << 1) + a
    gap = dyadic((1 << max_ell) - total, max_ell)
    approx = float(gap)
    if Fraction(approx) < gap:
        approx = math.nextafter(approx, math.inf)
    return approx


def probnum_series(N: int, max_ell: int) -> ProbTable:
    """Exact table of p_0..p_max_ell via the reciprocal series of the
    reversed polynomial (method tag "series")."""
    N, max_ell = _check_table_args("probnum_series", N, max_ell)
    law = _law(N, max_ell)
    values = tuple(dyadic(law[ell], ell) for ell in range(max_ell + 1))
    return ProbTable(N, max_ell, values, "series", _gap_up(law, max_ell))


def trig_value(N: int, ell: int) -> float:
    """Root-angle formula for p_ell in double precision (compensated sum
    over the alternating root terms).  Total in ell; returns 0.0 at ell=0.
    An ell past 2^53, beyond the integers a float holds, is refused."""
    N = require("trig_value", "N", N, 1)
    ell = require("trig_value", "ell", ell, 0, 2**53)
    return _trig_values(N, range(ell, ell + 1))[0]


def probnum_trig(N: int, max_ell: int) -> ProbTable:
    """Float table of p_0..p_max_ell from the root-angle formula (method tag
    "trig").  Off-support entries carry the formula's cancellation residue,
    of the order of machine epsilon.  The tail bound is the geometric bound
    from the dominant root cos(pi/(2N))."""
    N, max_ell = _check_table_args("probnum_trig", N, max_ell)
    values = tuple(_trig_values(N, range(max_ell + 1)))
    return ProbTable(N, max_ell, values, "trig", geometric_tail_bound(N, max_ell))


def probnum_catalan(N: int, ell: int) -> Fraction:
    """p_ell as the folded ballot sum, exactly (the closed form, one
    :func:`~.exactnum.ballot_number` per term; the per-index oracle of
    :func:`catalan_table`).

    With n = ell - 1 and B(n, d) = binom(n, (n - d)/2), zero for d > n:

        2^ell p_ell = 2 sum_{t >= 0} (-1)^t [B(n, (2t+1)N - 1) - B(n, (2t+1)N + 1)]

    Each bracket is the ballot number binom(n, k) - binom(n, k - 1) with
    k = (ell - (2t+1)N)/2.  ell must equal N mod 2; below N the sum is empty
    and the value is zero.
    """
    N = require("probnum_catalan", "N", N, 1)
    ell = require("probnum_catalan", "ell", ell, 1)
    if (ell - N) % 2 != 0:
        raise DomainError(
            f"parity mismatch: ell={ell} must equal N={N} mod 2 "
            "(off-parity values are identically zero upstream)"
        )
    n = ell - 1
    acc = 0
    for t, centre in enumerate(range(N, ell + 1, 2 * N)):
        term = ballot_number(n, (ell - centre) // 2)
        acc += -term if t % 2 else term
    return dyadic(2 * acc, ell)


def _exit_path_counts(N: int, max_ell: int) -> list[int]:
    """a_ell = 2^ell p_ell for ell = 0..max_ell: the +-1 paths from 0 that
    first reach -N or N at step ell.  The paths still inside are symmetric
    about 0, so h[i] counts those at i (and at -i), i = 0..N: every count
    moves by one a step, those at 1 and -1 onto 0, those at +-(N - 1) step
    out, and the end h[N] stays 0."""
    h = [1] + [0] * N
    counts = [0] * (max_ell + 1)
    for ell in range(1, max_ell + 1):
        counts[ell] = 2 * h[N - 1]
        h = [2 * h[1], *map(add, h, h[2:]), 0]
    return counts


def catalan_table(N: int, max_ell: int) -> ProbTable:
    """Exact table from the walk's exit-path counts :func:`_exit_path_counts`
    (method tag "catalan"); off-support entries are zero."""
    N, max_ell = _check_table_args("catalan_table", N, max_ell, MAX_BALLOT_ELL)
    numerators = _exit_path_counts(N, max_ell)
    values = tuple(dyadic(a, ell) for ell, a in enumerate(numerators))
    tail = _gap_up(numerators, max_ell)
    return ProbTable(N, max_ell, values, "catalan", tail)


@dataclass(frozen=True)
class CrossValidationReport:
    N: int
    max_ell: int
    tol: float
    max_trig_deviation: float
    indices_checked: int

    def json_dict(self) -> dict:
        return asdict(self)


def cross_validate(
    N: int, max_ell: int, tol: float = TRIG_TOL
) -> CrossValidationReport:
    """Require series == catalan exactly and |series - trig| <= tol at every
    index through max_ell; returns the worst trig deviation seen.

    The exact routes are compared as the integers a_ell = 2^ell p_ell: the
    law memo against one table of the walk's exit-path counts.  Raises
    :class:`CrossValidationError` naming (N, ell, method pair) on the first
    disagreement.
    """
    tol = require_positive("cross_validate", "tol", tol)
    N, max_ell = _check_table_args("cross_validate", N, max_ell, MAX_BALLOT_ELL)
    law = _law(N, max_ell)
    walk = _exit_path_counts(N, max_ell)
    trig = _trig_values(N, range(max_ell + 1))
    worst = 0.0
    for ell in range(max_ell + 1):
        a = law[ell]
        if a != walk[ell]:
            raise CrossValidationError(
                N, ell, "series/catalan",
                f"{format_rational(dyadic(a, ell))} != "
                f"{format_rational(dyadic(walk[ell], ell))}",
            )
        # int / int is correctly rounded, so this is float(p_ell).
        deviation = abs(a / (1 << ell) - trig[ell])
        worst = max(worst, deviation)
        if deviation > tol:
            raise CrossValidationError(
                N, ell, "series/trig", f"deviation {deviation:.3e} > tol {tol:.3e}"
            )
    return CrossValidationReport(N, max_ell, tol, worst, max_ell + 1)


def tail_mass(N: int, max_ell: int) -> float:
    """Upper bound on the mass beyond max_ell: one minus the exact partial
    sum, rounded up to the next float."""
    N, max_ell = _check_table_args("tail_mass", N, max_ell)
    return _gap_up(_law(N, max_ell), max_ell)


def geometric_tail_bound(N: int, max_ell: int) -> float:
    """Closed-form tail bound c^max_ell / (1 - c) with c = cos(pi/(2N)):
    every p_ell is at most c^(ell-1), so the geometric sum dominates the
    tail.  Coarser than :func:`tail_mass` but needs no exact table.

    From N = 149078414 on, c rounds to 1.0 and the bound is ``math.inf``,
    still an upper bound; where it underflows (N = 2 from max_ell = 2151 on)
    it is the least positive float, for the tail of N >= 2 is positive.  An N
    or a max_ell past 2^53, beyond the integers a float holds, is refused."""
    N = require("geometric_tail_bound", "N", N, 1, 2**53)
    max_ell = require("geometric_tail_bound", "max_ell", max_ell, 0, 2**53)
    c = math.cos(math.pi / (2 * N))
    if c == 1.0:
        return math.inf
    return max(c**max_ell / (1.0 - c), math.ulp(0.0) if N > 1 else 0.0)


def _check_table_args(
    caller: str, N: int, max_ell: int, longest: int = MAX_ELL
) -> tuple[int, int]:
    """The domain of a table of the law: N >= 1, N <= max_ell <= longest and
    N max_ell <= MAX_LAW_WORK, which bound its time and memory.  Returns
    (N, max_ell) as plain ints (:func:`~.exactnum.require`)."""
    N = require(caller, "N", N, 1)
    max_ell = require(caller, "max_ell", max_ell)
    if not N <= max_ell <= longest:
        raise DomainError(
            f"{caller} requires N <= max_ell <= {longest}, got max_ell={max_ell}, N={N}"
        )
    if N * max_ell > MAX_LAW_WORK:
        raise DomainError(
            f"{caller} requires N * max_ell <= {MAX_LAW_WORK}, "
            f"got N={N}, max_ell={max_ell}"
        )
    return N, max_ell
