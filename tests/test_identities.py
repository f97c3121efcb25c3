"""The identity layer: reconstruction, expectation form, asymptotics, and
the Catalan facts."""

import math
from fractions import Fraction
from unittest import mock

import pytest
import chebprob.identities as identities_module
import chebprob.probnum as probnum_module
from hypothesis import given, settings
from hypothesis import strategies as st

from chebprob.chebyshev import chebyshev_T
from chebprob.eulerpoly import (
    euler_poly, eval_poly, gen_euler_recursive, gen_euler_zero,
)
from chebprob.exactnum import DomainError
from chebprob.identities import (
    DEFAULT_MAX_K,
    MAX_K,
    ConvergenceError,
    ReconstructionResult,
    asymptotic_ratio,
    _default_max_k,
    catalan_prefix_check,
    expectation_form_check,
    reconstruct_euler,
)
from chebprob.probnum import MAX_LAW_WORK, probnum_series


class TestReconstruction:
    def test_linear_case(self):
        result = reconstruct_euler(1, 2, Fraction(1, 4), 1e-9)
        assert result.target == Fraction(-1, 4)
        assert result.abs_error <= 1e-9
        assert abs(float(result.partial_value) + 0.25) < 1e-9
        assert result.terms_used >= 1

    def test_constant_case(self):
        # Weights sum to one, so n = 0 reproduces 1 for any admissible N, x.
        for N in (2, 3, 5):
            result = reconstruct_euler(0, N, Fraction(9, 2), 1e-9)
            assert result.target == 1
            assert result.abs_error <= 1e-9

    def test_constant_case_within_the_default_budget(self):
        # For n = 0 the tail past k is at most c^k / (1 - c), c = cos(pi/2N),
        # so the default budget is enough; without the factor 1/(1 - c) it
        # ended at k = 3561, with the error at 1.27e-30.
        for x in (Fraction(1, 2), Fraction(1, 3), 0, 2):
            result = reconstruct_euler(0, 8, x, 1e-30)
            assert result.abs_error <= 1e-30
        assert expectation_form_check(0, 12, 1e-9) <= Fraction(1e-9)

    def test_higher_degree(self):
        result = reconstruct_euler(4, 3, Fraction(3, 7), 1e-9)
        assert result.target == eval_poly(euler_poly(4), Fraction(3, 7))
        assert result.abs_error <= 1e-9

    def test_no_tail_at_N_1(self):
        # mu_1 = 1 is a point mass, so the one term is the whole sum.  The
        # float decay cos(pi/2) = 6.1e-17 gave 6.2e-34 here, and an infinite
        # estimate once the term passed the float range.
        for n, x in ((1, Fraction(1, 3)), (32, Fraction(10**20))):
            result = reconstruct_euler(n, 1, x, 1e-9)
            assert result.terms_used == 1
            assert result.partial_value == result.target
            assert result.tail_estimate == 0.0

    def test_exact_bookkeeping(self):
        result = reconstruct_euler(2, 2, Fraction(0), 1e-6)
        # abs_error is the float image of the exact difference.
        assert result.abs_error == float(abs(result.partial_value - result.target))

    def test_budget_exhaustion(self, monkeypatch):
        monkeypatch.setattr(identities_module, "_default_max_k", lambda *args: 25)
        with pytest.raises(ConvergenceError) as info:
            reconstruct_euler(4, 5, Fraction(1, 3), 1e-9)
        assert info.value.achieved_error > 0

    def test_default_budget_follows_n_N_and_tol(self, monkeypatch):
        # At the fixed 2000-term budget this true identity was reported as a
        # failure; it converges at k = 3316, inside the derived budget.
        result = reconstruct_euler(8, 10, Fraction(3, 7), 1e-12)
        assert 10 + 2 * (result.terms_used - 1) == 3316
        assert result.abs_error <= 1e-12
        assert _default_max_k(8, 10, 1e-12) >= 3316
        monkeypatch.setattr(identities_module, "_default_max_k", lambda *args: 3000)
        with pytest.raises(ConvergenceError, match="by k=3000, the end of the term budget"):
            reconstruct_euler(8, 10, Fraction(3, 7), 1e-12)

    def test_default_budget_is_the_least_k_past_2000(self):
        for n in (0, 1, 8, 40):
            for N in (1, 2, 10, 30):
                for tol in (1e-3, 1e-9, 1e-15):
                    c = math.cos(math.pi / (2 * N))
                    k = _default_max_k(n, N, tol)
                    assert k >= DEFAULT_MAX_K, (n, N, tol)
                    assert k**n * c**k / (1 - c) <= tol, (n, N, tol)
                    if k > DEFAULT_MAX_K:
                        assert (k - 1) ** n * c ** (k - 1) / (1 - c) > tol, (n, N, tol)

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            reconstruct_euler(-1, 2, 0, 1e-9)
        with pytest.raises(ValueError):
            reconstruct_euler(1, 2, 0, -1.0)

    def test_term_size_marker(self):
        result = reconstruct_euler(1, 2, Fraction(1, 4), 1e-3)
        # With the loose tolerance, terms shrink below tol/10 before the
        # partial sum reaches it, so the marker must be set.
        assert result.first_small_term_k is None or result.first_small_term_k >= 2
        tight = reconstruct_euler(1, 2, Fraction(1, 4), 1e-12)
        assert tight.abs_error <= 1e-12

    def test_terms_bounded_by_geometric_tail_prediction(self):
        # Stopping index against the a-priori bound: term magnitudes are at
        # most c^(k-1) (|shift| + 3 sqrt k)^n / N^n with c = cos(pi/(2N)), so
        # the error after k is below that over (1 - c^2); the first k making
        # the bound <= tol must dominate the observed stopping index.
        tol = 1e-9
        for N in (2, 3, 5):
            c = math.cos(math.pi / (2 * N))
            for n in (0, 3, 8):
                for x in (Fraction(0), Fraction(-2, 3)):
                    result = reconstruct_euler(n, N, x, tol)
                    stop_k = N + 2 * (result.terms_used - 1)
                    shift = abs(float(N * (x - Fraction(1, 2))))
                    k = N
                    while True:
                        envelope = (
                            c ** (k - 1)
                            * (shift + 3.0 * math.sqrt(k)) ** n
                            / (N**n * (1.0 - c * c))
                        )
                        if envelope <= tol:
                            break
                        k += 2
                    assert stop_k <= k, (N, n, x, stop_k, k)

    def test_term_magnitudes_eventually_decrease(self):
        # Empirical decay check over the sampled range: after the polynomial
        # factor loses to the geometric one, term sizes never grow again.
        for N, n, x in ((2, 4, Fraction(0)), (3, 8, Fraction(-2, 3)), (5, 6, Fraction(1))):
            weights = probnum_series(N, N + 160).values
            shift = N * (x - Fraction(1, 2))
            magnitudes = []
            for k in range(N, N + 161, 2):
                arg = Fraction(k, 2) + shift
                value = eval_poly(gen_euler_recursive(n, k), arg)
                magnitudes.append(abs(weights[k] * value))
            last_rise = max(
                (i for i in range(1, len(magnitudes)) if magnitudes[i] > magnitudes[i - 1]),
                default=0,
            )
            assert last_rise < len(magnitudes) - 20, (N, n, x, last_rise)


def reference_terms(n, N, shift, max_k):
    """(k, p_k E_n^{(k)}(k/2 + shift)) for k = N, N+2, ..., max_k, in plain
    Fractions: the weighted-sum loop as it was before it ran in integers."""
    weights = probnum_series(N, max(N, max_k)).values
    for k in range(N, max_k + 1, 2):
        arg = Fraction(k, 2) + shift
        value = Fraction(0)
        for c in reversed(gen_euler_recursive(n, k).coefficients):
            value = value * arg + c
        yield k, weights[k] * value


def reference_reconstruct(n, N, x, tol, max_k):
    target = eval_poly(euler_poly(n), x)
    tol_exact = Fraction(tol)
    scale = Fraction(N) ** n
    decay = math.cos(math.pi / (2 * N))
    partial = Fraction(0)
    terms_used = 0
    first_small = None
    for k, weighted in reference_terms(n, N, N * (x - Fraction(1, 2)), max_k):
        term = weighted / scale
        partial += term
        terms_used += 1
        if first_small is None and abs(term) < tol_exact / 10:
            first_small = k
        error = abs(partial - target)
        if error <= tol_exact:
            # mu_1 is a point mass: nothing lies past its one term.
            tail = float(abs(term)) * decay**2 / (1.0 - decay**2) if N > 1 else 0.0
            return ReconstructionResult(
                n, N, x, terms_used, partial, target, float(error), tail, first_small
            )
    raise ConvergenceError(
        f"series for E_{n}(x) with N={N} not within {tol} by k={max_k}, "
        "the end of the term budget",
        achieved_error=float(abs(partial - target)),
    )


def reference_expectation(n, N, tol, max_k):
    target = Fraction(N) ** n * eval_poly(euler_poly(n), Fraction(1, 2))
    partial = Fraction(0)
    for _, weighted in reference_terms(n, N, Fraction(0), max_k):
        partial += weighted
        difference = abs(partial - target)
        if difference <= Fraction(tol):
            return difference
    raise ConvergenceError(
        f"expectation identity for n={n}, N={N} not within {tol} by k={max_k}, "
        "the end of the term budget",
        achieved_error=float(abs(partial - target)),
    )


def outcome(fn, *args):
    try:
        return fn(*args)
    except ConvergenceError as exc:
        return "ConvergenceError", str(exc), exc.achieved_error


points = st.integers(1, 9).flatmap(
    lambda b: st.builds(Fraction, st.integers(-2 * b, 2 * b), st.just(b))
)


class TestIntegerLoop:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 8),
        N=st.integers(1, 6),
        x=points,
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        data=st.data(),
    )
    def test_equals_the_fraction_loop(self, n, N, x, tol, data):
        # Field for field, terms_used and first_small_term_k included; under
        # the library's budget or a small one put in its place (down to the
        # one term k = N), the same ConvergenceError and achieved_error.
        small = data.draw(st.one_of(st.none(), st.integers(N, 30)))
        default = _default_max_k

        def budget(*args):
            return default(*args) if small is None else small

        with mock.patch.object(identities_module, "_default_max_k", budget):
            got = outcome(reconstruct_euler, n, N, x, tol)
            expectation = outcome(expectation_form_check, n, N, tol)
        assert got == outcome(reference_reconstruct, n, N, x, tol, budget(n, N, tol, x))
        assert expectation == outcome(reference_expectation, n, N, tol, budget(n, N, tol))

    def test_budget_above_MAX_K_refused_before_any_work(self, monkeypatch):
        # The law memo through k holds about k^2 / 2 bits: the default budget
        # of the first call, 607350, would hold about 23 GB.
        def no_work(*args):
            raise AssertionError("a refused budget reached the sum")

        monkeypatch.setattr(identities_module, "_law", no_work)
        monkeypatch.setattr(identities_module, "euler_poly", no_work)
        # The message names the budget the call needs.
        cap = f"requires a term budget of at most {MAX_K};"
        with pytest.raises(DomainError, match=f"{cap} n=8, N=10, .* need 607350$"):
            reconstruct_euler(8, 10, 10**400, 1e-9)
        with pytest.raises(DomainError, match=f"{cap} n=1, N=2, .* need 66538$"):
            reconstruct_euler(1, 2, 10**10000, 1e-9)
        with pytest.raises(DomainError, match=f"^expectation_form_check {cap}"):
            expectation_form_check(1, 100, 1e-300)
        monkeypatch.setattr(identities_module, "_default_max_k", lambda *args: MAX_K + 1)
        with pytest.raises(DomainError, match=f"{cap} .* need {MAX_K + 1}$"):
            reconstruct_euler(2, 3, Fraction(1, 3), 1e-9)
        with pytest.raises(DomainError, match=f"{cap} .* need {MAX_K + 1}$"):
            expectation_form_check(2, 3, 1e-9)

    def test_budget_of_MAX_K_admitted(self, monkeypatch):
        exact = reconstruct_euler(2, 3, Fraction(1, 3), 1e-9)
        monkeypatch.setattr(identities_module, "_default_max_k", lambda *args: MAX_K)
        assert reconstruct_euler(2, 3, Fraction(1, 3), 1e-9) == exact


def per_order_sum(what, n, N, x, scale, tol, budget):
    """The identity's sum as it ran before the difference table: for each
    term k, the zero row of order k as the integers b_m = 2^m E_m^{(k)}(0),
    then the homogeneous Horner sum of binom(n, i) b_{n-i} at (Y_k, q),
    Y_k = kq + N(2u - q); the same stop tests on the same integers."""
    x = Fraction(x)
    target = eval_poly(euler_poly(n), x) * Fraction(N**n, scale)
    g, h = target.numerator * scale, target.denominator
    e, f = Fraction(tol).numerator, Fraction(tol).denominator
    u, q = x.numerator, x.denominator
    weights = probnum_series(N, max(N, budget)).values
    total, terms_used, first_small = 0, 0, None
    for k in range(N, budget + 1, 2):
        row = [int(b * 2**m) for m, b in enumerate(gen_euler_zero(k, n))]
        horner, q_power = 0, 1
        for i in range(n, -1, -1):
            coefficient = math.comb(n, i) * row[n - i]
            horner = horner * (k * q + N * (2 * u - q)) + coefficient * q_power
            q_power *= q
        term = int(weights[k] * 2**k) * horner
        total = (total << 2) + term
        den = q**n << (n + k)
        terms_used += 1
        bound = e * scale * den
        if first_small is None and 10 * f * abs(term) < bound:
            first_small = k
        if abs(total * h - g * den) * f <= bound * h:
            partial = Fraction(total, scale * den)
            tail = 0.0
            if N > 1:
                decay = math.cos(math.pi / (2 * N))
                last_term = float(Fraction(abs(term), scale * den))
                tail = last_term * decay**2 / (1.0 - decay**2)
            return ReconstructionResult(
                n, N, x, terms_used, partial, target,
                float(abs(partial - target)), tail, first_small,
            )
    raise ConvergenceError(
        f"{what} not within {tol} by k={budget}, the end of the term budget",
        achieved_error=float(abs(Fraction(total, scale * den) - target)),
    )


class TestLawMemo:
    def memo_after(self, n, N, x, tol):
        # From an empty memo, so that only this sum grows it; the memo list
        # holds a_ell at index ell, N leading zeros included.
        with probnum_module._LAW_LOCK:
            probnum_module._LAW.clear()
        outcome = reconstruct_euler(n, N, x, tol)
        return outcome, len(probnum_module._LAW[N][1])

    def test_memo_grows_by_a_bounded_block(self):
        # The sum reads the law a fixed block ahead of its term and never
        # past the budget.  Reading it twice as far as the term, as a
        # doubling memo would, holds 17716 entries here.
        n, N, x, tol = 8, 10, Fraction(100000), 1e-9
        result, held = self.memo_after(n, N, x, tol)
        k = N + 2 * (result.terms_used - 1)
        assert k == 9128
        budget = _default_max_k(n, N, tol, x)
        assert held <= min(budget, k + identities_module._LAW_BLOCK) + 1
        assert held >= k + 1

    def test_memo_stops_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(identities_module, "_default_max_k", lambda *args: 25)
        with pytest.raises(ConvergenceError):
            self.memo_after(4, 5, Fraction(1, 3), 1e-9)
        assert len(probnum_module._LAW[5][1]) == 26


class TestDifferenceTable:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(0, 12),
        N=st.integers(1, 7),
        x=st.one_of(
            st.integers(1, 4).flatmap(
                lambda b: st.builds(Fraction, st.integers(-3 * b, 3 * b), st.just(b))
            ),
            st.just(Fraction(10**6)),
        ),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
        data=st.data(),
    )
    def test_equals_the_per_order_sum(self, n, N, x, tol, data):
        # Byte for byte: the report, its json_dict and the expectation value,
        # under the library's budget or a small one (the ConvergenceError).
        small = data.draw(st.one_of(st.none(), st.integers(N, 30)))
        default = _default_max_k

        def budget(*args):
            return default(*args) if small is None else small

        series = f"series for E_{n}(x) with N={N}"
        identity = f"expectation identity for n={n}, N={N}"
        with mock.patch.object(identities_module, "_default_max_k", budget):
            got = outcome(reconstruct_euler, n, N, x, tol)
            expectation = outcome(expectation_form_check, n, N, tol)
        want = outcome(
            per_order_sum, series, n, N, x, N**n, tol, budget(n, N, tol, x)
        )
        assert got == want
        if isinstance(got, ReconstructionResult):
            assert got.json_dict() == want.json_dict()
        want = outcome(
            per_order_sum, identity, n, N, Fraction(1, 2), 1, tol, budget(n, N, tol)
        )
        if isinstance(want, ReconstructionResult):
            want = abs(want.partial_value - want.target)
        assert expectation == want

    def test_walk_moment_seeds_equal_the_euler_layer(self):
        # The table seeded at the negative orders and stepped to k = N, held
        # exactly against (2q)^n E_n^{(k)}(k/2 + N(x - 1/2)) read from the
        # Euler rows at k = N..N + 2(n//2) and differenced.  The term budget
        # refuses some of these (n, N, x); the seeds do not depend on it.
        for n in range(33):
            order = n // 2
            for N in (1, 2, 3, 8, 128):
                for x in (Fraction(0), Fraction(1, 2), Fraction(1, 3),
                          Fraction(-7, 4), Fraction(10**6)):
                    u, q = x.numerator, x.denominator
                    w = N * (x - Fraction(1, 2))
                    table = [
                        eval_poly(gen_euler_recursive(n, k), Fraction(k, 2) + w)
                        * (2 * q) ** n
                        for k in range(N, N + 2 * order + 1, 2)
                    ]
                    for i in range(1, order + 1):
                        for j in range(order, i - 1, -1):
                            table[j] -= table[j - 1]
                    got = identities_module._seed_table(n, N, q, N * (2 * u - q))
                    assert got == table, (n, N, x)

    def test_degree_in_the_order_is_at_most_n_over_2(self):
        # E_n^{(k)}(k/2 + w) has the egf sech(t/2)^k e^{wt} and log sech(t/2)
        # = O(t^2), so in k it is a polynomial of degree at most n//2: its
        # step-2 difference of order n//2 + 1 vanishes.
        for n in range(33):
            steps = n // 2 + 1
            for N in (1, 2, 5, 128):
                for x in (Fraction(0), Fraction(1, 2), Fraction(-7, 4), Fraction(10**6)):
                    w = N * (x - Fraction(1, 2))
                    values = [
                        eval_poly(gen_euler_recursive(n, k), Fraction(k, 2) + w)
                        for k in range(N, N + 2 * steps + 1, 2)
                    ]
                    difference = sum(
                        (-1) ** (steps - j) * math.comb(steps, j) * value
                        for j, value in enumerate(values)
                    )
                    assert difference == 0, (n, N, x)


class TestExpectationForm:
    def test_constant(self):
        # Both sides equal 1; the truncated sum stops once the remaining
        # tail mass is inside the tolerance.
        assert expectation_form_check(0, 3) <= Fraction(1, 10**12)

    def test_quadratic_n2(self):
        difference = expectation_form_check(2, 2)
        assert difference <= Fraction(1, 10**12)

    def test_linear_n3_both_sides_zero(self):
        assert expectation_form_check(1, 3) == 0

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(identities_module, "_default_max_k", lambda *args: 20)
        with pytest.raises(ConvergenceError):
            expectation_form_check(6, 5, tol=1e-12)

    def test_nonpositive_tol_rejected(self):
        for tol in (-1.0, 0.0):
            with pytest.raises(ValueError, match="tol must be positive"):
                expectation_form_check(3, 3, tol)

    def test_nonfinite_tol_rejected(self):
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                expectation_form_check(3, 3, tol)
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                reconstruct_euler(2, 3, Fraction(1, 3), tol)


class TestAsymptoticRatio:
    def test_hand_value(self):
        # 1/T_2(2) = 1/7 against (0.5 / (1 + sqrt(0.75)))^2.
        geometric = (0.5 / (1.0 + math.sqrt(0.75))) ** 2
        assert asymptotic_ratio(2, 0.5) == pytest.approx((1 / 7) / geometric, rel=1e-12)
        assert asymptotic_ratio(2, 0.5) == pytest.approx(1.98974, abs=5e-6)

    def test_matches_coefficient_evaluation(self):
        for N in range(1, 11):
            for z in (0.3, 0.5, 0.7):
                a = (1.0 + math.sqrt(1.0 - z * z)) / z
                direct = a**N / float(eval_poly(chebyshev_T(N), 1.0 / z))
                assert asymptotic_ratio(N, z) == pytest.approx(direct, rel=1e-10)

    def test_limit_is_two(self):
        # Non-decreasing rather than strictly increasing: the ratio saturates
        # at 2.0 exactly once the correction drops below machine epsilon.
        for z in (0.3, 0.5, 0.7):
            values = [asymptotic_ratio(N, z) for N in range(1, 61)]
            assert all(a <= b for a, b in zip(values, values[1:]))
            assert values[0] < values[-1]
            assert abs(values[-1] - 2.0) < 1e-3

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                asymptotic_ratio(3, bad)

    def test_stable_at_large_n(self):
        value = asymptotic_ratio(500, 0.5)
        assert math.isfinite(value) and 0 < value <= 2.0


class TestQSequence:
    # q_ell = 2^{ell-1} p_ell, as catalan_prefix_check reports it.
    def test_leading_value_is_one(self):
        for N in range(1, 9):
            assert catalan_prefix_check(N).q_prefix[0] == 1

    def test_n2_values(self):
        # q_ell = 2^{ell-1} 2^{-ell/2} on the even support.
        report = catalan_prefix_check(2)
        assert [*report.q_prefix, report.q_at_mismatch] == [1, 2, 4]


class TestCatalanPrefix:
    def test_n2(self):
        report = catalan_prefix_check(2)
        assert report.q_prefix == (1, 2)
        assert report.convolution_prefix == (1, 2)
        assert report.mismatch_ell == 6
        assert report.q_at_mismatch == 4
        assert report.convolution_at_mismatch == 5
        assert report.ok

    def test_n1_degenerate(self):
        report = catalan_prefix_check(1)
        assert report.q_prefix == (1,)
        assert report.mismatch_ell == 3
        assert report.q_at_mismatch == 0
        assert report.convolution_at_mismatch == 1
        assert report.ok

    def test_through_n8(self):
        for N in range(1, 9):
            report = catalan_prefix_check(N)
            assert report.prefix_equal, N
            assert report.leading_difference != 0, N

    def test_has_the_cap_of_a_law_table(self):
        # The law is built through 3N, so N * 3N <= MAX_LAW_WORK: N <= 2364.
        # Without the cap N = 3000 ran for over a minute.
        assert 2364 * 3 * 2364 <= MAX_LAW_WORK < 2365 * 3 * 2365
        with pytest.raises(DomainError, match="^catalan_prefix_check requires N "):
            catalan_prefix_check(2365)

