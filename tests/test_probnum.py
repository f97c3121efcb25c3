"""The three routes to the probability numbers and their agreement.

Exact oracles: the closed N=2 law 2^(-ell/2), the closed N=3 law
3^k / 2^(2k+2), hand evaluations of single ballot sums, and the float
closed form for N=4 built from the quadratic surds 2(2 +/- sqrt 2).
"""

import functools
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebprob import probnum
from chebprob.chebyshev import reversed_T
from chebprob.exactnum import DomainError, ballot_number, dyadic
from chebprob.probnum import (
    CrossValidationError,
    catalan_table,
    cross_validate,
    geometric_tail_bound,
    probnum_catalan,
    probnum_series,
    probnum_trig,
    root_angles,
    tail_mass,
    trig_value,
)
from chebprob.series import TruncatedSeries


def closed_form_n4(ell: int) -> float:
    """Float closed form for the even-index N=4 values, ell >= 2 indexing
    p_{2 ell}: sqrt(2)/2^{2 ell + 1} ((2 + sqrt 2)^{ell-1} - (2 - sqrt 2)^{ell-1})."""
    s = math.sqrt(2.0)
    return s / 2 ** (2 * ell + 1) * ((2 + s) ** (ell - 1) - (2 - s) ** (ell - 1))


class TestSeries:
    def test_n2_law(self):
        table = probnum_series(2, 40)
        assert table.method == "series"
        for ell in range(41):
            if ell >= 2 and ell % 2 == 0:
                assert table.values[ell] == Fraction(1, 2 ** (ell // 2))
            else:
                assert table.values[ell] == 0

    def test_n3_law(self):
        table = probnum_series(3, 33)
        for k in range(16):
            assert table.values[2 * k + 3] == Fraction(3**k, 2 ** (2 * k + 2))

    def test_n4_values(self):
        table = probnum_series(4, 10)
        assert table.values[4] == Fraction(1, 8)
        assert table.values[6] == Fraction(1, 8)
        assert table.values[8] == Fraction(7, 64)
        for half in range(2, 6):
            assert float(table.values[2 * half]) == pytest.approx(
                closed_form_n4(half), abs=1e-12
            )

    def test_n1_degenerate(self):
        table = probnum_series(1, 9)
        assert table.values[1] == 1
        assert sum(table.values) == 1

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            probnum_series(4, 3)
        with pytest.raises(ValueError):
            probnum_series(0, 5)

    def test_caps_refused_before_any_work(self):
        # Past a cap, a table is refused before T_N or the memo is touched.
        N = math.isqrt(probnum.MAX_LAW_WORK) + 1
        work = f"N \\* max_ell <= {probnum.MAX_LAW_WORK}, got N={N}"
        with pytest.raises(DomainError, match=work):
            probnum_series(N, N)
        assert N not in probnum._LAW
        for route, longest in ((probnum_series, probnum.MAX_ELL),
                               (probnum_trig, probnum.MAX_ELL),
                               (tail_mass, probnum.MAX_ELL),
                               (catalan_table, probnum.MAX_BALLOT_ELL)):
            L = longest + 1
            message = f"max_ell <= {longest}, got max_ell={L}"
            with pytest.raises(DomainError, match=message):
                route(2, L)
        with pytest.raises(DomainError, match=f"max_ell <= {probnum.MAX_BALLOT_ELL},"):
            cross_validate(2, probnum.MAX_BALLOT_ELL + 1, 1e-10)

    def test_invariants_to_n12(self):
        for N in range(1, 13):
            table = probnum_series(N, 3 * N + 24)
            # Zero below N and off parity, nonnegative on the support, and a
            # partial sum of at most 1, all exactly.
            for ell, v in enumerate(table.values):
                on_support = ell >= N and (ell - N) % 2 == 0
                assert v >= 0 if on_support else v == 0, (N, ell, v)
            assert sum(table.values) <= 1, N
            for ell, v in table.support():
                # Denominator always divides 2^ell.
                assert 2**ell % v.denominator == 0, (N, ell, v)

    def test_partial_sums_increase_toward_one(self):
        table = probnum_series(3, 61)
        running = Fraction(0)
        previous = Fraction(0)
        for v in table.values:
            running += v
            assert previous <= running <= 1
            previous = running


MEMO_MAX_ELL = 600


@functools.lru_cache(maxsize=None)
def catalan_prefix(N: int) -> tuple:
    # The ballot kernel runs up from ell = N and no entry depends on L, so
    # catalan_table(N, L) is this prefix through L; one table per N keeps the
    # property test fast.
    return catalan_table(N, MEMO_MAX_ELL).values


requests = st.lists(
    st.integers(1, 20).flatmap(
        lambda N: st.tuples(st.just(N), st.integers(N, MEMO_MAX_ELL))
    ),
    min_size=1,
    max_size=5,
)


class TestSeriesMemo:
    @settings(max_examples=25, deadline=None)
    @given(requests)
    def test_any_request_order_gives_the_unmemoized_values(self, order):
        # Start from an empty memo, so that it grows in the drawn order.
        with probnum._LAW_LOCK:
            probnum._LAW.clear()
        for N, L in order:
            values = probnum_series(N, L).values
            division = TruncatedSeries.of(reversed_T(N).coefficients, L - N).reciprocal()
            assert values == (Fraction(0),) * N + division.coefficients, (N, L)
            assert values == catalan_prefix(N)[: L + 1], (N, L)
            assert all(type(v) is Fraction for v in values), (N, L)

    def test_concurrent_requests_agree(self):
        oracle = {
            N: (Fraction(0),) * N
            + TruncatedSeries.of(reversed_T(N).coefficients, 600 - N).reciprocal().coefficients
            for N in (3, 5, 7, 9)
        }
        with probnum._LAW_LOCK:
            probnum._LAW.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(probnum_series, N, L)
                           for L in range(600, 20, -10) for N in (3, 5, 7, 9)]
                tables = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for table in tables:
            assert table.values == oracle[table.N][: table.max_ell + 1]


def reversed_T_taps(N: int) -> tuple:
    """The law's taps the long way: (i, 2^i c_i / c_0) over the nonzero
    coefficients c_i, i >= 1, of the reversed T_N, each division checked
    exact."""
    c = reversed_T(N).coefficients
    taps = []
    for i, ci in enumerate(c):
        if i and ci:
            t, remainder = divmod(ci << i, c[0])
            assert remainder == 0, (N, i)
            taps.append((i, t))
    return tuple(taps)


def memo_taps(N: int) -> tuple:
    probnum._law(N, N)
    return probnum._LAW[N][0]


class TestTaps:
    def test_closed_form_equals_the_reversed_chebyshev_polynomial(self):
        # The memo builds t_2k = (-1)^k (C(N-k, k) + C(N-k-1, k-1)); T_N's
        # three-term recurrence is its oracle.
        for N in range(1, 257):
            assert memo_taps(N) == reversed_T_taps(N), N


class TestRootTerms:
    def test_only_the_last_N_is_held(self):
        # The terms of N = 10^6 took 184 MB, and were held until exit.
        trig_value(10**5, 5)
        trig_value(3, 5)
        assert probnum._root_terms.cache_info().currsize == 1


@pytest.mark.slow
class TestDepth:
    def test_taps_at_the_cap_of_N(self):
        # N max_ell <= 2^24 with max_ell >= N admits N up to 2^12.
        for N in (1000, 4095, 4096):
            assert memo_taps(N) == reversed_T_taps(N), N
            with probnum._LAW_LOCK:
                del probnum._LAW[N]

    def test_ballot_sum_against_the_memo_at_the_series_cap(self):
        # The law through ell = 2^15 (about 3 s) against one folded ballot
        # sum per index (about 1 s each) at the last two support indices.
        N, L = 128, probnum.MAX_ELL
        law = probnum._law(N, L)
        try:
            for ell in (L - 2, L):
                assert probnum_catalan(N, ell) == dyadic(law[ell], ell), ell
        finally:
            with probnum._LAW_LOCK:
                del probnum._LAW[N]


class TestTrig:
    def test_hand_value_n2(self):
        # (1/2)(sin(pi/4) cos(pi/4) - sin(3 pi/4) cos(3 pi/4)) = 1/2.
        angles = root_angles(2)
        by_hand = 0.5 * (
            math.sin(angles[0]) * math.cos(angles[0])
            - math.sin(angles[1]) * math.cos(angles[1])
        )
        assert by_hand == pytest.approx(0.5, abs=1e-15)
        assert trig_value(2, 2) == pytest.approx(0.5, abs=1e-14)

    def test_parity_cancellation(self):
        assert abs(trig_value(2, 3)) < 1e-14

    def test_against_series_n3(self):
        assert trig_value(3, 3) == pytest.approx(0.25, abs=1e-13)

    def test_table(self):
        table = probnum_trig(3, 15)
        assert table.method == "trig"
        # The exact invariants up to the formula's rounding residue.
        for ell, v in enumerate(table.values):
            on_support = ell >= 3 and (ell - 3) % 2 == 0
            assert v >= -1e-12 if on_support else abs(v) <= 1e-12, (ell, v)
        assert sum(table.values) <= 1 + 1e-12 * len(table.values)
        exact = probnum_series(3, 15)
        for ell in range(16):
            assert table.values[ell] == pytest.approx(
                float(exact.values[ell]), abs=1e-12
            )

    def test_tolerance_across_range(self):
        for N in range(1, 11):
            exact = probnum_series(N, 60)
            for ell in range(61):
                assert abs(trig_value(N, ell) - float(exact.values[ell])) <= 1e-10


class TestRootAngles:
    def test_strictly_increasing_in_open_interval(self):
        for N in (1, 2, 5, 12):
            angles = root_angles(N)
            assert all(0.0 < a < math.pi for a in angles)
            assert all(angles[i] < angles[i + 1] for i in range(N - 1))


class TestCatalanRoute:
    def test_hand_sum_n2_ell2(self):
        # (1/4)(-A(1, 2) + A(1, 0)) = (1/4)(1 + 1) = 1/2.
        assert probnum_catalan(2, 2) == Fraction(1, 2)

    def test_odd_multiple_branch_smallest(self):
        # ell = N: empty s-sum, boundary term 2^{1-ell} alone.
        assert probnum_catalan(3, 3) == Fraction(1, 4)

    def test_odd_multiple_branch_n2_ell6(self):
        assert probnum_catalan(2, 6) == Fraction(1, 8)

    def test_parity_mismatch_rejected(self):
        with pytest.raises(ValueError):
            probnum_catalan(2, 3)

    def test_below_support_evaluates_to_zero(self):
        assert probnum_catalan(3, 1) == 0
        assert probnum_catalan(5, 3) == 0

    @settings(max_examples=60)
    @given(st.integers(1, 8), st.integers(0, 20))
    def test_matches_series(self, N, step):
        ell = N + 2 * step
        exact = probnum_series(N, ell)
        assert probnum_catalan(N, ell) == exact.values[ell]

    def test_table(self):
        table = catalan_table(4, 20)
        assert table.method == "catalan"
        assert table.values == probnum_series(4, 20).values


def sign(t: int) -> int:
    return -1 if t % 2 else 1


def two_branch_ballot_sum(N: int, ell: int) -> Fraction:
    """p_ell by the ballot sum before its folding: one branch for ell an odd
    multiple of N, one for the rest, one ballot_number per term."""
    if ell % N == 0 and (ell // N) % 2 == 1:
        k = (ell // N - 1) // 2
        acc = sum(
            sign(k - s) * ballot_number(ell - 1, s * N) for s in range(1, ell // N)
        )
        return Fraction(acc + 2 * sign(k), 2**ell)
    t_lo = (2 - ell - N) // (2 * N)
    t_hi = (ell - N) // (2 * N)
    acc = sum(
        sign(t) * ballot_number(ell - 1, (ell - (2 * t + 1) * N) // 2)
        for t in range(t_lo, t_hi + 1)
    )
    return Fraction(acc, 2**ell)


tables = st.integers(1, 40).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(N, 1000))
)


class TestBallotKernel:
    def test_folded_sum_equals_the_two_branch_sum(self):
        for N in range(1, 13):
            for ell in range(N, 160, 2):
                expected = two_branch_ballot_sum(N, ell)
                assert probnum_catalan(N, ell) == expected, (N, ell)

    @settings(max_examples=30, deadline=None)
    @given(tables, st.data())
    def test_table_equals_the_series_law(self, case, data):
        N, L = case
        table = catalan_table(N, L)
        series = probnum_series(N, L)
        assert table.values == series.values
        assert table.tail_bound == series.tail_bound
        ell = data.draw(st.integers(0, (L - N) // 2).map(lambda j: N + 2 * j))
        assert probnum_catalan(N, ell) == table.values[ell]

    def test_cross_validate_catches_one_perturbed_value(self, monkeypatch):
        # cross_validate compares integers from one kernel table; a wrong
        # entry in it must still be named.
        kernel = probnum._ballot_numerators

        def perturbed(N, max_ell):
            values = kernel(N, max_ell)
            values[N + 10] += 2
            return values

        monkeypatch.setattr(probnum, "_ballot_numerators", perturbed)
        with pytest.raises(CrossValidationError, match="series/catalan") as info:
            cross_validate(5, 40, 1e-10)
        assert (info.value.N, info.value.ell) == (5, 15)


def exit_path_counts(N: int, L: int) -> list[int]:
    """counts[ell] for ell <= L: the +-1 paths from 0 that first reach -N or
    N at step ell, by stepping the path counts at positions -(N-1)..N-1."""
    paths = [0] * (N - 1) + [1] + [0] * (N - 1)  # index i: position i - N + 1
    counts = [0] * (L + 1)
    for ell in range(1, L + 1):
        counts[ell] = paths[0] + paths[-1]  # the end positions step out
        paths = [left + right for left, right in zip([0] + paths[:-1], paths[1:] + [0])]
    return counts


class TestWalkReading:
    def test_law_is_the_exit_time_of_simple_random_walk(self):
        # a_ell = 2^ell p_ell counts the paths of simple random walk from 0
        # that first leave (-N, N) at step ell (Feller, Vol. 1, Ch. XIV).
        for N in range(1, 16):
            assert probnum._law(N, 300)[:301] == exit_path_counts(N, 300), N


class TestCrossValidation:
    def test_n2(self):
        report = cross_validate(2, 40, 1e-10)
        assert report.max_trig_deviation < 1e-12

    def test_n7(self):
        report = cross_validate(7, 60, 1e-10)
        assert report.max_trig_deviation <= 1e-10

    def test_trig_bound_is_the_library_constant(self):
        # The command line passes no tolerance.  The worst trig deviation
        # measured over N <= 2048 and max_ell <= 8192, 9.1e-17, is N = 7's,
        # reached before ell = 60; it sits far inside the bound.
        report = cross_validate(7, 60)
        assert report.tol == probnum.TRIG_TOL == 1e-10
        assert report.max_trig_deviation < 1e-16

    def test_parameter_error(self):
        with pytest.raises(ValueError):
            cross_validate(4, 3, 1e-10)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
    def test_tol_must_be_positive_and_finite(self, tol):
        # A NaN tolerance would make the series/trig comparison vacuous.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            cross_validate(3, 20, tol)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 40).flatmap(
        lambda N: st.tuples(st.just(N), st.integers(N, 1000))))
    def test_all_three_routes_agree(self, case):
        # series == catalan exactly and trig within 1e-10 at every index.
        N, L = case
        report = cross_validate(N, L, 1e-10)
        assert report.indices_checked == L + 1
        assert report.max_trig_deviation <= 1e-10

    def test_law_at_the_ballot_cap(self):
        # The memo against the ballot kernel at depth, exactly, and the
        # trig route within its bound, through the last admitted index.
        report = cross_validate(64, probnum.MAX_BALLOT_ELL)
        assert report.indices_checked == 8193
        assert report.max_trig_deviation <= probnum.TRIG_TOL

    def test_mismatch_is_named(self):
        with pytest.raises(CrossValidationError) as info:
            cross_validate(5, 30, 1e-30)
        assert info.value.N == 5
        assert "series/trig" in str(info.value)


class TestTailMass:
    def test_exact_values_n2(self):
        assert tail_mass(2, 20) == 0.0009765625
        assert tail_mass(2, 2) == 0.5

    def test_monotone_decreasing(self):
        # N=3 halves the tail every other index ((3/4) per support step), so
        # dipping under 1e-6 takes max_ell past 100.
        values = [tail_mass(3, m) for m in range(3, 124, 8)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    def test_is_upper_bound(self):
        # The rounded-up float must dominate the exact gap.
        for N in (2, 3, 5):
            for max_ell in (N, N + 10, N + 25):
                exact_gap = 1 - sum(probnum_series(N, max_ell).values)
                assert Fraction(tail_mass(N, max_ell)) >= exact_gap

    def test_geometric_bound_dominates_true_tail(self):
        for N in (2, 3, 4, 6):
            for max_ell in (N, N + 9, N + 30):
                true_tail = 1 - sum(probnum_series(N, max_ell).values)
                assert Fraction(geometric_tail_bound(N, max_ell)) >= true_tail

    def test_geometric_bound_refuses_a_negative_max_ell(self):
        # A tail past a negative index is no tail of the law; the bound
        # returned c^max_ell / (1 - c) > 1 for it.
        assert geometric_tail_bound(2, 0) == 1 / (1 - math.cos(math.pi / 4))
        with pytest.raises(DomainError, match=r"^geometric_tail_bound requires "
                           r"0 <= max_ell <= 9007199254740992, got max_ell=-1$"):
            geometric_tail_bound(2, -1)

    def test_geometric_bound_is_infinite_once_the_root_rounds_to_one(self):
        # cos(pi/(2N)) rounds to 1.0 from N = 149078414 on; 1 / (1 - c)
        # raised ZeroDivisionError there.
        assert math.cos(math.pi / (2 * 149078413)) < 1.0
        assert geometric_tail_bound(149078413, 10) < math.inf
        for N, max_ell in ((149078414, 0), (149078414, 10**6), (2**53, 2**53)):
            assert geometric_tail_bound(N, max_ell) == math.inf


class TestSerialization:
    def test_csv_rows(self):
        rows = probnum_series(2, 6).csv_rows()
        assert rows[0] == ["ell", "exact", "float"]
        assert rows[1] == ["2", "1/2", "0.5"]

    def test_json_dict(self):
        doc = probnum_series(2, 6).json_dict()
        assert doc["method"] == "series"
        assert doc["values"][0] == {"ell": 2, "exact": "1/2", "float": 0.5}
        assert "tail_bound" in doc

    def test_trig_rows_have_no_exact_column(self):
        rows = probnum_trig(2, 6).rows()
        assert rows[0][1] is None
