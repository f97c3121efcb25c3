"""Sampling and Monte Carlo checks.

All sample sizes and seeds are fixed, so every assertion here is
deterministic.  Statistical assertions use a 4-standard-error band; with
these seeds all of them hold with margin.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from chebprob.eulerpoly import euler_numbers
from chebprob.probnum import probnum_series
from chebprob.stochastic import (
    MomentEntry,
    RandomStream,
    mc_euler_poly,
    mc_gen_euler,
    mc_klebanov,
    moment_integral_check,
    sample_mu,
    sample_sech,
    sech_cdf,
    sech_density,
)


class TestRandomStream:
    def test_bitwise_reproducible(self):
        a = sample_sech(RandomStream(123, 5), 4096)
        b = sample_sech(RandomStream(123, 5), 4096)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = sample_sech(RandomStream(123, 0), 1024)
        b = sample_sech(RandomStream(123, 1), 1024)
        c = sample_sech(RandomStream(124, 0), 1024)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_prefix_consistency(self):
        long = sample_sech(RandomStream(9), 1000)
        short = sample_sech(RandomStream(9), 100)
        assert np.array_equal(long[:100], short)

    def test_split_children_are_distinct(self):
        stream = RandomStream(7)
        children = stream.split(4)
        assert len({c.stream_id for c in children}) == 4
        draws = [sample_sech(c, 256) for c in children]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.array_equal(draws[i], draws[j])

    def test_split_validates(self):
        with pytest.raises(ValueError):
            RandomStream(1).split(0)


class TestSechSampling:
    def test_inverse_cdf_is_consistent_with_density(self):
        # d/dx of the CDF must reproduce sech(pi x): finite differences.
        for x in (-2.0, -0.5, 0.0, 0.7, 1.9):
            h = 1e-6
            derivative = (sech_cdf(x + h) - sech_cdf(x - h)) / (2 * h)
            assert derivative == pytest.approx(sech_density(x), rel=1e-8)

    def test_first_two_moments(self):
        draws = sample_sech(RandomStream(2024), 10**6)
        se_mean = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean()) < 4 * se_mean
        squares = draws * draws
        se_sq = squares.std(ddof=1) / math.sqrt(len(draws))
        assert abs(squares.mean() - 0.25) < 4 * se_sq

    def test_kolmogorov_smirnov(self):
        draws = sample_sech(RandomStream(31), 10**5)
        result = stats.kstest(draws, sech_cdf)
        assert result.pvalue > 0.01

    def test_ks_statistic_shrinks_like_root_n(self):
        for count in (10**3, 10**4, 10**5):
            statistic = stats.kstest(
                sample_sech(RandomStream(5150), count), sech_cdf
            ).statistic
            assert statistic * math.sqrt(count) < 2.5

    def test_count_validated(self):
        with pytest.raises(ValueError):
            sample_sech(RandomStream(1), 0)


class TestMuSampling:
    def test_n2_frequency_of_smallest_value(self):
        draws = sample_mu(RandomStream(7), 2, 10**6)
        frequency = (draws == 2).mean()
        se = math.sqrt(0.5 * 0.5 / len(draws))
        assert abs(frequency - 0.5) < 4 * se

    def test_support_constraints(self):
        draws = sample_mu(RandomStream(3), 3, 10**5)
        assert draws.min() >= 3
        assert not ((draws - 3) % 2).any()

    def test_mean_against_exact_table(self):
        table = probnum_series(4, 400)
        exact_mean = float(sum(Fraction(ell) * v for ell, v in table.support()))
        draws = sample_mu(RandomStream(11), 4, 10**6)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - exact_mean) < 4 * se

    def test_reproducible(self):
        a = sample_mu(RandomStream(88), 3, 4096)
        b = sample_mu(RandomStream(88), 3, 4096)
        assert np.array_equal(a, b)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            sample_mu(RandomStream(1), 1, 10)

    def test_tables_equal_the_fraction_doubling_loop(self):
        # The sampling tables fix every pinned-seed draw, so they must match,
        # byte for byte, those of the loop that re-sums the Fraction table at
        # every doubling until the untabled mass is below 1e-15.
        import chebprob.stochastic as stochastic_module

        with stochastic_module._MU_LOCK:
            stochastic_module._MU_TABLES.clear()
        for N in range(2, 11):
            max_ell = max(4 * N * N, 64)
            while True:
                table = probnum_series(N, max_ell)
                if 1 - sum(table.values) < Fraction(1, 10**15):
                    break
                max_ell *= 2
            support = np.arange(N, max_ell + 1, 2, dtype=np.int64)
            cumulative = np.cumsum([float(table.values[v]) for v in support])
            got_support, got_cumulative = stochastic_module._mu_table(N)
            assert got_support.dtype == support.dtype, N
            assert got_support.tobytes() == support.tobytes(), N
            assert got_cumulative.dtype == cumulative.dtype, N
            assert got_cumulative.tobytes() == cumulative.tobytes(), N

    def test_untabled_mass_is_reported(self, monkeypatch):
        # Force a truncated table: draws beyond it must land on the first
        # untabled support point and be announced, never silently clamped.
        import chebprob.stochastic as stochastic_module

        support = np.array([2, 4], dtype=np.int64)
        cumulative = np.array([0.5, 0.75])
        monkeypatch.setitem(stochastic_module._MU_TABLES, 2, (support, cumulative))
        with pytest.warns(RuntimeWarning, match="untabled support point 6"):
            draws = sample_mu(RandomStream(13), 2, 10**4)
        beyond = (draws == 6).mean()
        assert 0.2 < beyond < 0.3  # the quarter of mass past the fake table
        assert set(np.unique(draws)) <= {2, 4, 6}


class TestMomentReports:
    def test_euler_poly_linear(self):
        report = mc_euler_poly(RandomStream(7), 1, 0, 10**5)
        real = report.entries[0]
        assert real.reference == -0.5
        assert abs(real.estimate + 0.5) < 1e-12  # real part is constant here
        assert report.ok()

    def test_euler_poly_quadratic(self):
        report = mc_euler_poly(RandomStream(8), 2, 0, 10**5)
        assert report.entries[0].reference == 0.0
        assert report.ok()

    def test_euler_poly_imaginary_part_symmetric(self):
        report = mc_euler_poly(RandomStream(9), 3, Fraction(1, 2), 10**5)
        imag = report.entries[1]
        assert imag.reference == 0.0
        assert imag.standardized < 4

    def test_gen_euler_linear(self):
        report = mc_gen_euler(RandomStream(10), 1, 4, 0, 10**5)
        assert report.entries[0].reference == -2.0
        assert report.ok()

    def test_gen_euler_constant_is_exact(self):
        report = mc_gen_euler(RandomStream(11), 0, 3, Fraction(2, 3), 10**4)
        real = report.entries[0]
        assert real.estimate == 1.0
        assert real.std_error == 0.0
        assert real.standardized == 0.0

    def test_gen_euler_quadratic(self):
        report = mc_gen_euler(RandomStream(12), 2, 2, 0, 10**5)
        assert report.entries[0].reference == 0.5
        assert report.ok()

    def test_klebanov_small(self):
        report = mc_klebanov(RandomStream(42), 2, 10**5)
        labels = [entry.label for entry in report.entries]
        assert labels == ["mean", "moment2", "moment4", "moment6"]
        assert report.entries[1].reference == 0.25
        assert report.ok()
        assert report.extras["ks_pvalue"] > 0.01

    def test_klebanov_references_computed_from_euler_numbers(self):
        report = mc_klebanov(RandomStream(1), 3, 10**5)
        numbers = euler_numbers(6).euler_numbers
        for entry, k in zip(report.entries[1:], (2, 4, 6)):
            assert entry.reference == float(Fraction(abs(numbers[k]), 2**k))

    def test_constant_real_part_inside_band(self):
        # The real part is the constant x - p/2; its mean and its reference
        # differ by rounding only, which a rounding-size SE must not inflate.
        rep = mc_euler_poly(RandomStream(7), 1, Fraction(1, 3), 10**5)
        assert rep.ok()
        for p in (1, 3, 5):
            assert mc_gen_euler(RandomStream(7), 1, p, Fraction(1, 3), 10**5).ok()

    def test_constant_entry_off_by_more_than_rounding_fails(self):
        exact = mc_euler_poly(RandomStream(7), 1, Fraction(1, 3), 10**5).entries[0]
        wrong = MomentEntry("real", exact.estimate + 1e-9, exact.std_error, exact.reference)
        assert wrong.standardized > 4
        assert MomentEntry("real", -1 / 6 + 1e-9, 0.0, -1 / 6).standardized > 4

    def test_report_json(self):
        report = mc_gen_euler(RandomStream(5), 1, 2, 0, 10**4)
        doc = report.json_dict()
        assert doc["sample_size"] == 10**4
        assert {"label", "estimate", "std_error", "reference", "standardized"} <= set(
            doc["entries"][0]
        )


class TestMomentIntegral:
    @pytest.mark.parametrize("k", [0, 2, 4, 6, 8, 10, 12])
    def test_even_orders(self, k):
        assert moment_integral_check(k) <= 1e-10

    @pytest.mark.parametrize("k", [1, 3, 5, 11])
    def test_odd_orders_vanish(self, k):
        assert moment_integral_check(k) <= 1e-12

    def test_normalization(self):
        assert moment_integral_check(0) <= 1e-10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            moment_integral_check(-2)
