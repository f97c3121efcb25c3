"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Seeds and sample sizes for the statistical criterion
are fixed below; every assertion is deterministic.

Criterion 5 note: its normalization clause checks that the table carries the
whole unit mass, for every N <= 10.  At ell = 200 the exact gap
1 - sum_{ell<=200} p_ell must be nonnegative and equal the closed-form mass
beyond 200 (the root-angle formula summed as a geometric series), so the
whole series sums to 1.  The 1e-6 bound cannot be asked of ell = 200: the law
has mean N^2 and its tail shrinks by cos(pi/(2N)) per step, so for N >= 5
more than 1e-6 of the mass lies beyond 200 (about 10.6% at N = 10).  The bound
is asserted instead at L_N, the first cutoff whose geometric tail bound is
below 1e-6, where the exact gap is checked against the same closed form.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from chebprob.eulerpoly import (
    euler_numbers,
    euler_poly,
    eval_poly,
    gen_euler_recursive,
    gen_euler_series,
)
from chebprob.identities import (
    asymptotic_ratio,
    catalan_prefix_check,
    reconstruct_euler,
)
from chebprob.probnum import (
    geometric_tail_bound,
    probnum_catalan,
    probnum_series,
    trig_value,
)
from chebprob.stochastic import (
    RandomStream,
    mc_klebanov,
    moment_integral_check,
    sample_mu,
)

KLEBANOV_SEEDS = {2: 42, 3: 43, 4: 44}
MU_SEED = 7
MC_SAMPLES = 10**6
BAND = 4.0


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_exact_n2_law():
    start = time.perf_counter()
    table = probnum_series(2, 40)
    ok = True
    for ell in range(41):
        expected = Fraction(1, 2 ** (ell // 2)) if ell >= 2 and ell % 2 == 0 else 0
        ok = ok and table.values[ell] == expected
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(1, ok, f"N=2 law p_2l = 2^-l exact through ell=40; {elapsed:.3f}s")
    assert ok


def test_criterion_02_exact_n3_law():
    start = time.perf_counter()
    table = probnum_series(3, 33)
    ok = all(
        table.values[2 * k + 3] == Fraction(3**k, 2 ** (2 * k + 2))
        for k in range(16)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    report(2, ok, f"N=3 law 3^k/2^(2k+2) exact for k<=15; {elapsed:.3f}s")
    assert ok


def test_criterion_03_n4_closed_form():
    table = probnum_series(4, 40)
    root = math.sqrt(2.0)
    worst = 0.0
    for half in range(2, 21):
        closed = (
            root
            / 2 ** (2 * half + 1)
            * ((2 + root) ** (half - 1) - (2 - root) ** (half - 1))
        )
        worst = max(worst, abs(closed - float(table.values[2 * half])))
    ok = worst <= 1e-10
    report(3, ok, f"N=4 surd closed form vs exact series, worst gap {worst:.2e}")
    assert ok


def test_criterion_04_triple_method_agreement():
    start = time.perf_counter()
    worst_trig = 0.0
    ok = True
    for N in range(1, 11):
        table = probnum_series(N, 60)
        for ell in range(61):
            exact = table.values[ell]
            if ell >= 1 and (ell - N) % 2 == 0:
                ok = ok and probnum_catalan(N, ell) == exact
            deviation = abs(float(exact) - trig_value(N, ell))
            worst_trig = max(worst_trig, deviation)
    elapsed = time.perf_counter() - start
    ok = ok and worst_trig <= 1e-10 and elapsed < 10.0
    report(
        4,
        ok,
        f"series==catalan exact, |series-trig| max {worst_trig:.2e}, "
        f"N<=10, ell<=60; {elapsed:.2f}s",
    )
    assert ok


def _tail_beyond(N: int, cutoff: int) -> float:
    """Mass of mu_N beyond cutoff (cutoff >= N), by summing the root-angle
    formula p_ell = (1/N) sum_k (-1)^(k+1) sin(t_k) cos(t_k)^(ell-1) over the
    support indices l0, l0+2, ...: a geometric series in cos(t_k)^2."""
    l0 = cutoff + 2 - (cutoff - N) % 2
    terms = []
    for k in range(1, N + 1):
        theta = (2 * k - 1) * math.pi / (2 * N)
        # cos(t_k) as the sine of the complementary angle: exactly 0 at pi/2.
        cos_t = math.sin((N - 2 * k + 1) * math.pi / (2 * N))
        terms.append((-1) ** (k + 1) * cos_t ** (l0 - 1) / math.sin(theta))
    return math.fsum(terms) / N


def test_criterion_05_vanishing_nonneg_normalization():
    structural_ok = True
    denominators_ok = True
    tail_ok = True
    gaps_200 = {}
    gaps_far = {}
    for N in range(1, 11):
        table = probnum_series(N, 200)
        for ell, value in enumerate(table.values):
            if ell < N or (ell - N) % 2 != 0:
                structural_ok = structural_ok and value == 0
            else:
                structural_ok = structural_ok and value >= 0
                denominators_ok = denominators_ok and 2**ell % value.denominator == 0
        far = next(L for L in itertools.count(N) if geometric_tail_bound(N, L) < 1e-6)
        gap_200 = 1 - sum(table.values)
        gap_far = 1 - sum(probnum_series(N, far).values)
        for cutoff, gap in ((200, gap_200), (far, gap_far)):
            tail_ok = tail_ok and gap >= 0 and math.isclose(
                gap, _tail_beyond(N, cutoff), rel_tol=1e-12
            )
        gaps_200[N] = gap_200
        gaps_far[N] = (far, gap_far)
    normalization_ok = all(gap < Fraction(1, 10**6) for _, gap in gaps_far.values())
    ok = structural_ok and denominators_ok and tail_ok and normalization_ok
    at_200 = ", ".join(f"{N}: {float(g):.1e}" for N, g in gaps_200.items())
    at_far = ", ".join(f"{N}: {float(g):.1e} at {L}" for N, (L, g) in gaps_far.items())
    detail = (
        f"vanishing/nonneg {'ok' if structural_ok else 'VIOLATED'}, "
        f"denominators divide 2^ell {'ok' if denominators_ok else 'VIOLATED'}, "
        f"gaps = closed-form tails {'ok' if tail_ok else 'VIOLATED'}, "
        f"1-sum(ell<=L_N)<1e-6 {'ok' if normalization_ok else 'VIOLATED'}; "
        f"gaps at 200 {{{at_200}}}; gaps at L_N {{{at_far}}}"
    )
    report(5, ok, detail)
    assert structural_ok
    assert denominators_ok
    assert tail_ok, f"gaps differ from the closed-form tails: {at_200}; {at_far}"
    assert normalization_ok, f"1 - sum(ell<=L_N) reaches 1e-6: {at_far}"


def test_criterion_06_euler_machinery():
    table = euler_numbers(30)
    half_ok = all(
        2**n * eval_poly(euler_poly(n), Fraction(1, 2)) == table[n]
        for n in range(31)
    )
    dual_ok = all(
        gen_euler_recursive(n, p).coefficients == gen_euler_series(n, p).coefficients
        for n in range(13)
        for p in range(1, 21)
    )
    linear_ok = all(
        gen_euler_recursive(1, p).coefficients == (Fraction(-p, 2), Fraction(1))
        for p in range(1, 21)
    )
    ok = half_ok and dual_ok and linear_ok
    report(
        6,
        ok,
        "E_n = 2^n E_n(1/2) (n<=30), dual routes equal (n<=12, p<=20), "
        "E_1^(p) = x - p/2 (p<=20)",
    )
    assert ok


def test_criterion_07_central_identity_grid():
    start = time.perf_counter()
    points = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 7), Fraction(-2, 3))
    worst_error = 0.0
    worst_terms = 0
    for N in (2, 3, 4, 5):
        for n in range(9):
            for x in points:
                result = reconstruct_euler(n, N, x, 1e-9)
                worst_error = max(worst_error, result.abs_error)
                worst_terms = max(worst_terms, result.terms_used)
    elapsed = time.perf_counter() - start
    ok = worst_error <= 1e-9 and elapsed < 60.0
    report(
        7,
        ok,
        f"reconstruction grid N in 2..5, n in 0..8, 5 rational points: "
        f"worst error {worst_error:.2e}, max terms {worst_terms}; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_08_catalan_prefix():
    ok = True
    differences = {}
    for N in range(1, 9):
        result = catalan_prefix_check(N)
        ok = ok and result.prefix_equal and result.leading_difference != 0
        differences[N] = str(result.leading_difference)
    report(
        8,
        ok,
        f"q prefix equals Catalan convolution power for k<N, first mismatch "
        f"exactly at 3N (N<=8); leading differences recorded: {differences}",
    )
    assert ok


def test_criterion_09_asymptotic_ratio():
    ok = True
    finals = {}
    for z in (0.3, 0.5, 0.7):
        values = [asymptotic_ratio(N, z) for N in range(1, 61)]
        # Non-decreasing: the ratio saturates at 2.0 in double precision.
        monotone = all(a <= b for a, b in zip(values, values[1:]))
        ok = ok and monotone and values[0] < values[-1]
        ok = ok and abs(values[-1] - 2.0) < 1e-3
        finals[z] = values[-1]
    report(
        9,
        ok,
        f"ratio to the geometric factor is monotone and within 1e-3 of 2.0 "
        f"at N=60: {finals}",
    )
    assert ok


def test_criterion_10_stochastic_suite():
    start = time.perf_counter()
    ok = True
    details = []
    for N, seed in KLEBANOV_SEEDS.items():
        mc = mc_klebanov(RandomStream(seed), N, MC_SAMPLES)
        m2, m4 = mc.entries[1], mc.entries[2]
        within = m2.standardized <= BAND and m4.standardized <= BAND
        ok = ok and within
        details.append(
            f"N={N}: m2 {m2.standardized:.2f}SE m4 {m4.standardized:.2f}SE"
        )
    for k in (0, 2, 4, 6):
        deviation = moment_integral_check(k)
        ok = ok and deviation <= 1e-10
    draws = sample_mu(RandomStream(MU_SEED), 2, MC_SAMPLES)
    frequency = float(np.mean(draws == 2))
    se = math.sqrt(0.25 / MC_SAMPLES)
    mu_ok = abs(frequency - 0.5) <= BAND * se
    ok = ok and mu_ok
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(
        10,
        ok,
        f"klebanov moments ({'; '.join(details)}), quadrature k in 0..6 "
        f"<=1e-10, Pr(mu_2=2) freq {frequency:.4f}; {elapsed:.1f}s",
    )
    assert ok
