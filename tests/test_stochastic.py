"""Sampling and Monte Carlo checks.

All sample sizes and seeds are fixed, so every assertion here is
deterministic.  Statistical assertions use a 4-standard-error band; with
these seeds all of them hold with margin.
"""

import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

import chebprob.stochastic as stochastic_module
from chebprob import probnum
from chebprob.eulerpoly import euler_numbers, euler_poly, eval_poly, gen_euler_recursive
from chebprob.exactnum import DomainError
from chebprob.probnum import MAX_ELL, probnum_series
from chebprob.stochastic import (
    _CHUNK,
    _QUAD_STEP,
    MAX_GEN_ORDER,
    MAX_MOMENT_ORDER,
    MAX_REP_ORDER,
    MAX_SAMPLES,
    MomentEntry,
    MomentReport,
    RandomStream,
    mc_euler_poly,
    mc_gen_euler,
    mc_klebanov,
    moment_integral_check,
    sample_mu,
    sample_sech,
    sech_cdf,
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

    def test_split_ids(self):
        assert RandomStream(9).split(3) == tuple(RandomStream(9, i) for i in (1, 2, 3))
        children = RandomStream(9, 2).split(2**16)
        assert children[0] == RandomStream(9, 2 * 2**16 + 1)
        assert children[-1] == RandomStream(9, 3 * 2**16)
        # The next stream's first child takes the first id past the cap.
        assert RandomStream(9, 3).split(1)[0] == RandomStream(9, 3 * 2**16 + 1)

    def test_split_validates(self):
        for count in (0, -1, 2**16 + 1):
            with pytest.raises(ValueError, match="split requires 1 <= count <= 65536"):
                RandomStream(1).split(count)

    @pytest.mark.parametrize(
        "seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)],
        ids=["seed-negative", "seed-2^64", "id-negative", "id-2^64"],
    )
    def test_key_words_outside_64_bits_refused(self, seed, stream_id):
        # The key took them mod 2^64: seed -1 drew what seed 2^64 - 1 draws.
        with pytest.raises(DomainError, match="RandomStream requires 0 <= "):
            RandomStream(seed, stream_id)

    def test_numpy_integer_key_words_are_stored_as_ints(self):
        # An np.int32 stream id overflowed in split: 40000 * 2^16 wrapped.
        stream = RandomStream(np.uint64(9), np.int32(40000))
        assert stream == RandomStream(9, 40000)
        assert type(stream.seed) is int and type(stream.stream_id) is int
        assert stream.split(1)[0].stream_id == 40000 * 2**16 + 1

    def test_key_words_at_the_top_of_64_bits(self):
        top = RandomStream(2**64 - 1, 2**64 - 1)
        assert np.array_equal(sample_sech(top, 16), sample_sech(top, 16))
        assert not np.array_equal(sample_sech(top, 16), sample_sech(RandomStream(0), 16))

    def test_split_stops_below_2_64(self):
        # RandomStream(0, 2^48).split(1)[0] had id 2^64 + 1 and drew exactly
        # what RandomStream(0, 1) draws.
        assert RandomStream(0, 2**48 - 1).split(2**16 - 1)[-1].stream_id == 2**64 - 1
        for stream_id, count in ((2**48 - 1, 2**16), (2**48, 1)):
            with pytest.raises(ValueError, match="split requires child ids below 2\\^64"):
                RandomStream(0, stream_id).split(count)


class TestSechSampling:
    def test_inverse_cdf_is_consistent_with_density(self):
        # d/dx of the CDF must reproduce sech(pi x): finite differences.
        for x in (-2.0, -0.5, 0.0, 0.7, 1.9):
            h = 1e-6
            derivative = (sech_cdf(x + h) - sech_cdf(x - h)) / (2 * h)
            assert derivative == pytest.approx(1 / math.cosh(math.pi * x), rel=1e-8)

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
        for count in (0, -1):
            with pytest.raises(DomainError, match="sample_sech requires 1 <= count <= 10000000"):
                sample_sech(RandomStream(1), count)

    def test_count_above_the_cap_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="sample_sech requires 1 <= count <= 10000000"):
                sample_sech(RandomStream(1), MAX_SAMPLES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


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

    @pytest.mark.parametrize("N", range(2, 11))
    def test_moments_against_the_exact_law(self, N):
        # E[mu_N] = N^2 and Var = 2 N^2 (N^2 - 1) / 3, each in a 4-SE band of
        # exact SEs: the variance's from the exact fourth central moment.
        m = law_moments(N, 4)
        L = 64 * N * N  # the law's mass past L is below 1e-30
        a = probnum._law(N, L)
        for k in range(5):
            memo = Fraction(sum(a[ell] * ell**k << (L - ell) for ell in range(L + 1)), 1 << L)
            assert abs(memo - m[k]) <= m[k] / 10**20, (N, k)
        mean, var = m[1], m[2] - m[1] ** 2
        assert (mean, var) == (N * N, Fraction(2 * N * N * (N * N - 1), 3))
        central4 = m[4] - 4 * m[3] * mean + 6 * m[2] * mean**2 - 3 * mean**4
        count = 10**5
        draws = sample_mu(RandomStream(2024, N), N, count).astype(float)
        assert abs(draws.mean() - float(mean)) < 4 * math.sqrt(float(var) / count)
        var_se = math.sqrt((central4 - var**2 * Fraction(count - 3, count - 1)) / count)
        assert abs(draws.var(ddof=1) - float(var)) < 4 * var_se

    def test_reproducible(self):
        a = sample_mu(RandomStream(88), 3, 4096)
        b = sample_mu(RandomStream(88), 3, 4096)
        assert np.array_equal(a, b)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            sample_mu(RandomStream(1), 1, 10)

    def test_count_validated(self):
        for count in (0, -1):
            with pytest.raises(DomainError, match="sample_mu requires 1 <= count <= 10000000"):
                sample_mu(RandomStream(1), 3, count)

    def test_count_above_the_cap_refused_before_allocation(self):
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="sample_mu requires 1 <= count <= 10000000"):
                sample_mu(RandomStream(1), 3, MAX_SAMPLES + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("N", (2, 3, 4, 5, 7, 10, 13, 16, 20))
    def test_geometric_sum_law_is_the_exact_law(self, N):
        # mu_N = N + 2 (G_1 + ... + G_K), G_k geometric with
        # P(G_k = j) = exp(j r_k) - exp((j + 1) r_k): the float convolution of
        # these laws is the exact law p_ell = a_ell / 2^ell to rounding.
        L = min(40 * N * N, MAX_ELL)
        support = range(N, L + 1, 2)
        j = np.arange(len(support))
        law = np.zeros(len(support))
        law[0] = 1.0
        for r in stochastic_module._mu_table(N):
            law = np.convolve(law, np.exp(j * r) - np.exp((j + 1) * r))[:len(support)]
        a = probnum._law(N, L)
        exact = np.array([a[ell] / 2**ell for ell in support])
        assert np.abs(law - exact).max() <= 2**-52

    @pytest.mark.parametrize("N", range(2, stochastic_module.MAX_KLEBANOV_N + 1))
    def test_success_probabilities_multiply_to_T_N_at_one(self, N):
        # T_N(1) = 1 = 2^(N-1) prod_k s_k, s_k = 1 - exp(r_k).
        rates = stochastic_module._mu_table(N)
        assert len(rates) == N // 2
        assert abs(np.prod(-np.expm1(rates)) * 2.0 ** (N - 1) - 1) <= 1e-14

    @pytest.mark.parametrize("N", (2, 3, 4, 5, 7, 30))
    def test_draws_equal_the_whole_array_expression(self, N, monkeypatch):
        # Short runs of several chunks each, and a count that no run length
        # divides, at the cap's N too.
        monkeypatch.setattr(stochastic_module, "_MIN_RUN", 2**10)
        monkeypatch.setattr(stochastic_module, "_WORKERS", 3)
        stream = RandomStream(21, N)
        draws = sample_mu(stream, N, 10**5 + 3)
        assert draws.dtype == np.int64
        assert draws.tobytes() == reference_mu(stream, N, 10**5 + 3).tobytes()

    @pytest.mark.parametrize("N", (2, 3, 5, 7, 10, 30))
    def test_chi_square_against_the_exact_law(self, N):
        # Direct goodness of fit at alpha = 1e-6, on one pinned stream per N.
        draws = sample_mu(RandomStream(31, N), N, 10**6)
        assert chi_square_pvalue(draws, N) >= MU_ALPHA

    @pytest.mark.parametrize("defect", ("tail cut at N + 40", "5% shifted by 2"))
    def test_chi_square_rejects_planted_defects(self, defect):
        # mc_klebanov at 10^5 samples misses both, since its random sums
        # average mu away; the direct test must see both on every stream,
        # and pass the same draws before the defect is planted.
        N = 3
        for r in range(10):
            draws = sample_mu(RandomStream(600 + r, N), N, 10**5)
            assert chi_square_pvalue(draws, N) >= MU_ALPHA, r
            if defect == "tail cut at N + 40":
                np.minimum(draws, N + 40, out=draws)
            else:
                draws[::20] += 2
            assert chi_square_pvalue(draws, N) < MU_ALPHA, r


MU_ALPHA = 1e-6


def chi_square_pvalue(draws, N):
    """Pearson's chi-square p-value of the draws of mu_N against the exact
    law: consecutive support points pooled into bins of expected count at
    least 20, the head into the first bin and the tail, mass beyond L
    included, into the last; scipy is the oracle of the p-value."""
    L = 16 * N * N
    a = probnum._law(N, L)
    support = range(N, L + 1, 2)
    expected = np.array([a[ell] / 2**ell for ell in support]) * len(draws)
    starts, mass = [0], 0.0
    for i, e in enumerate(expected):
        if mass >= 20:
            starts.append(i)
            mass = 0.0
        mass += e
    if mass < 20:
        starts.pop()
    beyond = Fraction(2**L - sum(a[ell] << (L - ell) for ell in support), 2**L)
    bins = np.add.reduceat(expected, starts)
    bins[-1] += float(beyond) * len(draws)
    index = np.searchsorted(starts, (draws - N) // 2, side="right") - 1
    observed = np.bincount(index, minlength=len(starts))
    statistic = float(((observed - bins) ** 2 / bins).sum())
    return float(stats.chi2.sf(statistic, len(bins) - 1))


def law_moments(N, order):
    """E[mu_N^j] for j <= order, exactly, from the Taylor coefficients of T_N
    at 1 (Rivlin): T_N(1 + h) = sum_j c_j h^j, c_j = 2^j / (2j)!
    prod_{i<j} (N^2 - i^2).  The pgf 1/T_N(1/z) at z = 1/(1 + h) is
    E[(1 + h)^-mu_N], so [h^j] 1/T_N(1 + h) is (-1)^j / j! times the rising
    factorial moment E[mu_N (mu_N + 1) ... (mu_N + j - 1)]."""
    c = [
        Fraction(2**j * math.prod(N * N - i * i for i in range(j)), math.factorial(2 * j))
        for j in range(order + 1)
    ]
    reciprocal = [Fraction(1)]
    for j in range(1, order + 1):
        reciprocal.append(-sum(c[i] * reciprocal[j - i] for i in range(1, j + 1)))
    moments = [Fraction(1)]
    for j in range(1, order + 1):
        rising = [1]  # x (x + 1) ... (x + j - 1), lowest degree first
        for i in range(j):
            rising = [i * a + b for a, b in zip(rising + [0], [0] + rising)]
        moments.append((-1) ** j * math.factorial(j) * reciprocal[j]
                       - sum(a * m for a, m in zip(rising, moments)))
    return moments


def reference_mu(stream, N, count):
    """sample_mu as one whole-array expression: row i of the uniforms gives
    the geometric variables of draw i."""
    rates = stochastic_module._mu_table(N)
    u = stream.generator().random((count, len(rates)))
    return N + 2 * np.floor(np.log(1 - u) / rates).sum(axis=1).astype(np.int64)


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
        numbers = euler_numbers(6)
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

    @pytest.mark.parametrize("band", [float("nan"), float("inf"), 0.0, -4.0])
    def test_ok_rejects_a_band_not_finite_and_positive(self, band):
        # A NaN band compares false with every deviation, so it passed all.
        report = mc_euler_poly(RandomStream(7), 1, 0, 10**4)
        with pytest.raises(ValueError, match="band"):
            report.ok(band=band)

    @pytest.mark.parametrize("bad_first", [False, True], ids=["nan-second", "nan-first"])
    def test_nan_entry_fails_wherever_it_sits(self, bad_first):
        # A NaN deviation compares false with the band, and Python's max kept
        # or dropped it by position: both orders passed.
        good = MomentEntry("good", 0.0, 1.0, 0.0)
        bad = MomentEntry("bad", math.nan, math.nan, 0.0)
        report = MomentReport(10, (bad, good) if bad_first else (good, bad))
        assert not report.ok()
        assert math.isnan(report.max_standardized_deviation)

    @pytest.mark.parametrize("estimate, std_error, p_value", [
        (3e263, math.inf, None),
        (math.inf, 1.0, None),
        (0.0, 1.0, math.nan),
    ], ids=["se-inf", "estimate-inf", "ks-nan"])
    def test_non_finite_figures_fail(self, estimate, std_error, p_value):
        # An infinite SE made the deviation 0, and a NaN p-value passed the KS
        # test, so both reports passed.
        entries = (MomentEntry("good", 0.0, 1.0, 0.0),
                   MomentEntry("bad", estimate, std_error, 0.0))
        extras = {} if p_value is None else {"ks_pvalue": p_value}
        assert not MomentReport(10, entries, extras).ok()
        assert MomentReport(10, entries[:1], {"ks_pvalue": 0.5}).ok()

    @pytest.mark.parametrize("x", [10**310, Fraction(-(10**400), 3), float("inf")])
    def test_x_beyond_the_float_range_rejected(self, x):
        # The samples are shifted by float(x), which would overflow.
        with pytest.raises(ValueError, match="mc_euler_poly requires x within"):
            mc_euler_poly(RandomStream(7), 1, x, 10**4)
        with pytest.raises(ValueError, match="mc_gen_euler requires x within"):
            mc_gen_euler(RandomStream(7), 1, 2, x, 10**4)

    def test_report_json(self):
        report = mc_gen_euler(RandomStream(5), 1, 2, 0, 10**4)
        doc = report.json_dict()
        assert doc["sample_size"] == 10**4
        assert {"label", "estimate", "std_error", "reference", "standardized"} <= set(
            doc["entries"][0]
        )


def reference_sech(stream, count):
    """sample_sech as the whole-array expression, with temporaries."""
    u = stream.generator().random(count)
    return -np.log(np.tan(0.5 * np.pi * (1.0 - u))) / np.pi


def reference_sums(stream, mu):
    """mc_klebanov's random sums drawn as one array and reduced at once."""
    increments = reference_sech(stream, int(mu.sum()))
    return np.add.reduceat(increments, np.concatenate(([0], np.cumsum(mu)[:-1])))


def numpy_entry(label, data, reference):
    """A MomentEntry of numpy's own mean and standard error of the whole
    array, the figures the blocked reductions must reproduce.  Its warnings
    (overflow, and no degrees of freedom at one value) are silenced."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore", RuntimeWarning)
        std_error = float(np.std(data, ddof=1) / math.sqrt(len(data)))
        return MomentEntry(label, float(np.mean(data)), std_error, reference)


def reference_klebanov(stream, N, count):
    """mc_klebanov from whole-array expressions: the moments as the products
    squared, squared * squared and squared * squared * squared, reduced by
    numpy, and the KS statistic as scipy's one-sample statistic against
    sech_cdf, with Massart's bound as its p-value."""
    mu_stream, sech_stream = stream.split(2)
    sums = reference_sums(sech_stream, reference_mu(mu_stream, N, count)) / N
    numbers = euler_numbers(6)
    squared = sums * sums
    moments = {2: squared, 4: squared * squared, 6: squared * squared * squared}
    entries = [numpy_entry("mean", sums, 0.0)]
    for k in (2, 4, 6):
        reference = float(Fraction(abs(numbers[k]), 2**k))
        entries.append(numpy_entry(f"moment{k}", moments[k], reference))
    statistic = float(stats.kstest(sums, sech_cdf, method="asymp").statistic)
    return MomentReport(
        sample_size=count,
        entries=tuple(entries),
        extras={
            "ks_statistic": statistic,
            "ks_pvalue": min(1.0, 2.0 * math.exp(-2.0 * count * statistic * statistic)),
        },
    )


def reference_report(draws, real_part, n, reference):
    """A rep/gen report from the expressions with complex temporaries."""
    base = real_part + 1j * draws
    powers = np.ones_like(base)
    for _ in range(n):
        powers = powers * base
    return MomentReport(
        sample_size=len(draws),
        entries=(
            numpy_entry("real", powers.real, reference),
            numpy_entry("imag", powers.imag, 0.0),
        ),
    )


def same_json(a, b):
    return json.dumps(a.json_dict()) == json.dumps(b.json_dict())


class PlantedZeroStream:
    """A stream whose uniforms are those of ``stream`` except exact zeros at
    the given positions of the sequence, whatever offset a generator starts
    at."""

    def __init__(self, stream, positions):
        self.stream, self.positions = stream, positions

    def generator(self, offset=0):
        return PlantedZeroGenerator(self.stream.generator(offset), self.positions, offset)


class PlantedZeroGenerator:
    def __init__(self, rng, positions, drawn):
        self.rng, self.positions, self.drawn = rng, positions, drawn

    def random(self, size=None, out=None):
        values = self.rng.random(size, out=out)
        count = np.size(values)
        hits = [p - self.drawn for p in self.positions if self.drawn <= p < self.drawn + count]
        if hits:
            values[hits] = 0.0
        self.drawn += count
        return values


WORKER_COUNTS = (1, 2, 3, 5)


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(stochastic_module.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60,
    )


# Segment lengths: short runs, single segments near and past _CHUNK, and
# pairs whose sum is exactly _CHUNK, so that chunks end on every kind of
# boundary.
segment_blocks = st.one_of(
    st.lists(st.integers(1, 40), min_size=1, max_size=300),
    st.integers(-2, 3000).map(lambda d: [_CHUNK + d]),
    st.integers(1, _CHUNK - 1).map(lambda a: [a, _CHUNK - a]),
)


@pytest.fixture(scope="module")
def zero_free_sums():
    return reference_sums(RandomStream(17), np.full(10**5, 49, dtype=np.int64))


class TestRandomSums:
    @settings(max_examples=25, deadline=None)
    @given(
        blocks=st.lists(segment_blocks, min_size=1, max_size=5),
        seed=st.integers(0, 2**32),
    )
    @example(blocks=[[1] * 100_001, [40_000], [1] * 99_998], seed=5)
    def test_chunk_loop_equals_the_whole_array(self, blocks, seed):
        # For every worker count, with runs of at least 16 draws, so that
        # small blocks are cut into runs too.  In the example two workers
        # make runs of 100000 segments; the long segment, the second of run
        # 1, outgrows run 0's buffer, so a chunk of run 0 that read on past
        # its run's end summed only part of it, over run 1's correct sum.
        mu = np.array([m for block in blocks for m in block], dtype=np.int64)
        stream = RandomStream(seed, 3)
        expected = reference_sums(stream, mu).tobytes()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(stochastic_module, "_MIN_RUN", 16)
            for workers in WORKER_COUNTS:
                patch.setattr(stochastic_module, "_WORKERS", workers)
                got = stochastic_module._random_sums(stream, mu)
                assert got.tobytes() == expected, workers

    # 2_450_000 starts the second run at two workers, and 4_899_999 is its
    # last draw.
    @pytest.mark.parametrize("position", [0, 5, 150_000, 199_999, 2_450_000, 4_899_999])
    def test_planted_zero_is_redrawn_in_its_chunk(self, monkeypatch, position, zero_free_sums):
        # A zero uniform is mapped like any other, inside its chunk, to a
        # finite draw in its own cell [0, 2^-53) of the law, never to
        # ln(tan(0)) = -inf, and no whole-array draw of sum(mu) variates
        # (37 MiB here) is made.  Every other sum is untouched and no worker
        # count changes anything.
        stream = PlantedZeroStream(RandomStream(17), [position])
        with np.errstate(divide="raise", invalid="raise"):
            draw = stochastic_module._sech_fill(stream.generator(position), np.empty(1))[0]
        assert np.isfinite(draw) and draw < 0
        assert sech_cdf(draw) < 2**-53
        calls = []

        def spy(stream, count):
            calls.append(count)
            return sample_sech(stream, count)

        monkeypatch.setattr(stochastic_module, "sample_sech", spy)
        mu = np.full(10**5, 49, dtype=np.int64)
        results = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(stochastic_module, "_WORKERS", workers)
            tracemalloc.start()
            try:
                with np.errstate(divide="raise", invalid="raise"):
                    got = stochastic_module._random_sums(stream, mu)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 8 * 2**20, workers
            results.append(got.tobytes())
        assert calls == []
        assert len(set(results)) == 1
        assert np.isfinite(got).all()
        hit = position // 49
        others = np.arange(len(mu)) != hit
        assert got[others].tobytes() == zero_free_sums[others].tobytes()
        assert got[hit] != zero_free_sums[hit]
        assert got.tobytes() == reference_sums(stream, mu).tobytes()

    def test_klebanov_memory_is_bounded(self):
        # Whole-array sampling held about samples * N^2 draws, 118 MiB here.
        tracemalloc.start()
        try:
            mc_klebanov(RandomStream(5), 7, 10**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def test_klebanov_peak_at_a_million_samples(self):
        # Separate random sums and reference draws, their pooled copy and
        # three moment arrays made the peak about 48 MiB, and the pooled
        # array of a two-sample KS test beside the moment pass about 32 MiB.
        # A whole-array moment pass (the sums, their squares, the running
        # power and np.std's temporary) made it about 31 MiB.  With the
        # moments reduced in place in one reused array and the KS gaps taken
        # block by block, the peak is the random sums beside mu: 18 MiB.
        tracemalloc.start()
        try:
            mc_klebanov(RandomStream(42), 2, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize("seed, N, count", [(42, 2, 10**6), (1, 7, 10**5)])
    def test_klebanov_equals_the_expressions(self, seed, N, count):
        assert same_json(
            mc_klebanov(RandomStream(seed), N, count),
            reference_klebanov(RandomStream(seed), N, count),
        )

    def test_sample_sech_equals_the_expression(self, monkeypatch):
        for count in (1, 7, 1000, 65537, 10**6):
            stream = RandomStream(5, count)
            expected = reference_sech(stream, count).tobytes()
            for workers in WORKER_COUNTS:
                monkeypatch.setattr(stochastic_module, "_WORKERS", workers)
                assert sample_sech(stream, count).tobytes() == expected, (count, workers)

    @pytest.mark.parametrize("n", range(9))
    def test_euler_poly_equals_the_expressions(self, n):
        for x in (Fraction(0), Fraction(1, 3), Fraction(-2, 7)):
            stream = RandomStream(70 + n)
            expected = reference_report(
                reference_sech(stream, 10**4), float(x) - 0.5, n,
                float(eval_poly(euler_poly(n), x)),
            )
            assert same_json(mc_euler_poly(stream, n, x, 10**4), expected)

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 10])
    def test_gen_euler_equals_the_expressions(self, p):
        x = Fraction(1, 3)
        for n in range(7):
            stream = RandomStream(90, n)
            total = np.zeros(10**4)
            for child in stream.split(p):
                total += reference_sech(child, 10**4)
            expected = reference_report(
                total, float(x) - 0.5 * p, n,
                float(eval_poly(gen_euler_recursive(n, p), x)),
            )
            assert same_json(mc_gen_euler(stream, n, p, x, 10**4), expected)


def whole_array_report(imag, real, n, reference):
    """The rep/gen report as the whole-array path computed it: one complex
    base of ``real`` and ``imag``, powers *= base, then numpy's mean and
    standard deviation of the strided real and imaginary parts."""
    base = np.empty(len(imag), dtype=complex)
    base.real = real
    base.imag = imag
    powers = np.ones_like(base)
    for _ in range(n):
        powers *= base
    return MomentReport(
        sample_size=len(imag),
        entries=(
            numpy_entry("real", powers.real, reference),
            numpy_entry("imag", powers.imag, 0.0),
        ),
    )


def whole_array_rep(stream, n, x, count):
    reference = float(eval_poly(euler_poly(n), x))
    return whole_array_report(sample_sech(stream, count), float(x) - 0.5, n, reference)


def whole_array_gen(stream, n, p, x, count):
    total = np.zeros(count)
    for child in stream.split(p):
        total += sample_sech(child, count)
    reference = float(eval_poly(gen_euler_recursive(n, p), x))
    return whole_array_report(total, float(x) - 0.5 * p, n, reference)


class TestPowerKernel:
    """The chunked rep and gen kernel against the whole-array path it
    replaced, byte for byte, for every worker count; runs of at least 2^10
    draws cut even the smallest calls, and the counts are no multiples of
    the chunk."""

    @pytest.mark.parametrize("count", [10**4 + 3, 10**5 + 1])
    def test_rep_equals_the_whole_array_path(self, monkeypatch, count):
        monkeypatch.setattr(stochastic_module, "_MIN_RUN", 2**10)
        # At x = 1/2 the real part is 0.0, where a product's signed zeros show.
        x = Fraction(1, 2)
        for n in range(MAX_REP_ORDER + 1):
            stream = RandomStream(31, n)
            expected = json.dumps(whole_array_rep(stream, n, x, count).json_dict())
            for workers in WORKER_COUNTS:
                monkeypatch.setattr(stochastic_module, "_WORKERS", workers)
                got = json.dumps(mc_euler_poly(stream, n, x, count).json_dict())
                assert got == expected, (n, workers)

    @pytest.mark.parametrize("count", [10**4 + 3, 10**5 + 1])
    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    def test_gen_equals_the_whole_array_path(self, monkeypatch, p, count):
        monkeypatch.setattr(stochastic_module, "_MIN_RUN", 2**10)
        x = Fraction(1, 3)
        for n in range(MAX_GEN_ORDER + 1):
            stream = RandomStream(37, n)
            expected = json.dumps(whole_array_gen(stream, n, p, x, count).json_dict())
            for workers in WORKER_COUNTS:
                monkeypatch.setattr(stochastic_module, "_WORKERS", workers)
                got = json.dumps(mc_gen_euler(stream, n, p, x, count).json_dict())
                assert got == expected, (n, workers)

    def test_no_full_size_temporaries(self, monkeypatch):
        # The whole-array path held the draws, a complex base and a complex
        # power, 48 bytes a sample at its peak, and np.std's temporary made
        # the kernel's 24.  The kernel holds the two real arrays the report
        # reduces, 16 bytes a sample, beside 48 bytes a sample of chunk
        # buffers per run; 256 KiB cover its small objects (measured 25 KB).
        monkeypatch.setattr(stochastic_module, "_WORKERS", 2)
        count = 10**6
        buffers = 2 * 48 * stochastic_module._POWER_CHUNK + 2**18
        calls = {
            "gen": lambda: mc_gen_euler(RandomStream(4), 6, 10, Fraction(1, 3), count),
            "rep": lambda: mc_euler_poly(RandomStream(4), 8, Fraction(1, 3), count),
        }
        for name, call in calls.items():
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * count + buffers, (name, peak)


SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.7e308, -1.7e308, 5e-324]


@st.composite
def reduction_arrays(draw):
    """An array at the edges of numpy's pairwise summation: lengths below 8
    (summed without the unrolled loop), at 128 +- 1 (numpy's block) and no
    multiples of 8; values of any scale with signed zeros, infinities, NaNs
    and huge values planted in them, or only signed zeros."""
    n = draw(st.one_of(
        st.integers(1, 7),
        st.sampled_from([127, 128, 129]),
        st.integers(8, 3 * 10**4).filter(lambda m: m % 8),
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        data = rng.standard_normal(n) * draw(st.sampled_from([1.0, 1e-300, 1e150, 1e300]))
        for i, value in draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIAL_VALUES)), max_size=4,
        )):
            data[i] = value
    else:
        data = np.where(rng.random(n) < 0.5, 0.0, -0.0)
    return data


def figures(entry):
    return np.array([entry.estimate, entry.std_error]).tobytes()


class TestEntry:
    """A report's mean and standard error, taken with the deviations squared
    in place, are np.mean and np.std(ddof=1) / sqrt(n) of the array bit for
    bit."""

    @settings(max_examples=60, deadline=None)
    @given(reduction_arrays())
    def test_equal_to_numpy_byte_for_byte(self, data):
        expected = figures(numpy_entry("a", data, 0.0))
        assert figures(stochastic_module._entry("a", data.copy(), 0.0)) == expected

    def test_overflowed_reports_warn_nowhere(self, monkeypatch, recwarn):
        # numpy's error state is per thread: every run of the power kernel
        # sets its own, and so does the reduction on the calling thread.
        monkeypatch.setattr(stochastic_module, "_WORKERS", 3)
        report = mc_euler_poly(RandomStream(2), 8, 2 * 10**38, 10**5)
        assert report.entries[0].estimate == math.inf
        assert not report.ok()
        assert len(recwarn) == 0


class TestRuns:
    """Monte Carlo calls cut into runs, one per worker thread: the output
    must not depend on the worker count."""

    def test_generator_starts_at_any_offset(self):
        stream = RandomStream(23, 4)
        whole = stream.generator().random(64)
        for offset in (0, 1, 2, 3, 4, 5, 11, 40):
            got = stream.generator(offset).random(8)
            assert got.tobytes() == whole[offset:offset + 8].tobytes(), offset
        far = stream.generator(10**9 + 3).random(2)
        assert stream.generator(10**9).random(5)[3:].tobytes() == far.tobytes()

    def test_sample_mu_for_every_worker_count(self, monkeypatch):
        # 10^6 draws: up to five runs, each longer than one _CHUNK.
        stream = RandomStream(12, 5)
        expected = reference_mu(stream, 5, 10**6).tobytes()
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(stochastic_module, "_WORKERS", workers)
            assert sample_mu(stream, 5, 10**6).tobytes() == expected, workers

    def test_klebanov_report_for_one_and_two_workers(self, monkeypatch):
        reports = []
        for workers in (1, 2):
            monkeypatch.setattr(stochastic_module, "_WORKERS", workers)
            reports.append(json.dumps(mc_klebanov(RandomStream(42), 2, 10**6).json_dict()))
        assert reports[0] == reports[1]

    def test_power_runs_hold_a_quarter_of_MIN_RUN_samples(self, monkeypatch):
        # Two runs of 5000 samples at p = 10 took longer than one; calls of
        # 10^5 samples keep their two runs.
        runs = []
        real = stochastic_module._in_runs

        def counting(job, total, draws=1):
            calls = []

            def counted(lo, hi):
                calls.append(lo)
                job(lo, hi)

            real(counted, total, draws)
            runs.append(len(calls))

        monkeypatch.setattr(stochastic_module, "_WORKERS", 2)
        monkeypatch.setattr(stochastic_module, "_in_runs", counting)
        x = Fraction(1, 3)
        for count in (10**4, 2 * 10**4, 10**5):
            mc_gen_euler(RandomStream(5), 6, 10, x, count)
        mc_euler_poly(RandomStream(5), 1, x, 10**5)
        assert runs == [1, 2, 2, 2]

    def test_no_thread_outlives_import_or_call(self):
        # The benchmark forks after the import, and callers may fork too.
        proc = run_fresh(
            "import threading\n"
            "before = threading.active_count()\n"
            "import chebprob.stochastic as s\n"
            "assert threading.active_count() == before\n"
            "s._WORKERS = 2\n"
            "s.mc_klebanov(s.RandomStream(3), 3, 10**5)\n"
            "assert threading.active_count() == before, threading.enumerate()\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_a_failing_run_raises_on_the_calling_thread(self, monkeypatch):
        real = stochastic_module._sech_fill
        caller = threading.get_ident()
        failed = []

        def fails_off_the_calling_thread(rng, out):
            if threading.get_ident() != caller:
                failed.append(threading.get_ident())
                raise RuntimeError("a worker's run failed")
            return real(rng, out)

        monkeypatch.setattr(stochastic_module, "_WORKERS", 2)
        monkeypatch.setattr(stochastic_module, "_sech_fill", fails_off_the_calling_thread)
        before = threading.enumerate()
        monkeypatch.setattr(stochastic_module, "_MIN_RUN", 2**10)
        with pytest.raises(RuntimeError, match="a worker's run failed"):
            sample_sech(RandomStream(1), 10**4)
        assert threading.enumerate() == before
        with pytest.raises(RuntimeError, match="a worker's run failed"):
            mu = np.full(10**3, 9, dtype=np.int64)
            stochastic_module._random_sums(RandomStream(1), mu)
        assert threading.enumerate() == before
        assert len(failed) == 2

    def test_public_entry_points_stay_on_the_calling_thread(self, monkeypatch):
        # The benchmark's tracer wraps these names and keeps one span stack:
        # a worker that called one would corrupt it, and would change what the
        # traced draw count means.  Every public function of the module and
        # _mu_table are watched, through the calls the module makes and
        # those made here, while the kernels run on workers.
        public = [
            name for name in stochastic_module.__all__
            if inspect.isfunction(getattr(stochastic_module, name))
        ]
        threads = []
        for name in public + ["_mu_table"]:
            real = getattr(stochastic_module, name)

            def spy(*args, real=real, name=name):
                threads.append((name, threading.get_ident()))
                return real(*args)

            monkeypatch.setattr(stochastic_module, name, spy)
        real_fill = stochastic_module._sech_fill
        fills = set()

        def fill_spy(rng, out):
            fills.add(threading.get_ident())
            return real_fill(rng, out)

        monkeypatch.setattr(stochastic_module, "_sech_fill", fill_spy)
        monkeypatch.setattr(stochastic_module, "_WORKERS", 3)
        stochastic_module.mc_klebanov(RandomStream(8), 4, 10**5)
        stochastic_module.mc_gen_euler(RandomStream(8), 2, 3, 0, 10**5)
        stochastic_module.mc_euler_poly(RandomStream(8), 2, 0, 10**5)
        stochastic_module.sample_sech(RandomStream(8), 10**5)
        assert {name for name, _ in threads} >= {
            "mc_klebanov", "mc_gen_euler", "mc_euler_poly", "sample_sech",
            "sample_mu", "_mu_table",
        }
        assert {ident for _, ident in threads} == {threading.get_ident()}
        assert len(fills) > 1


class TestMomentIntegral:
    @pytest.mark.parametrize("k", range(0, MAX_MOMENT_ORDER + 1, 2))
    def test_even_orders(self, k):
        assert moment_integral_check(k) <= 1e-10

    @pytest.mark.parametrize("k", range(1, MAX_MOMENT_ORDER + 1, 2))
    def test_odd_orders_vanish(self, k):
        assert moment_integral_check(k) <= 1e-12

    @pytest.mark.parametrize("k", range(MAX_MOMENT_ORDER + 1))
    def test_halving_the_step_agrees(self, k):
        # The rule has converged: half the step moves it by less than the
        # contract, so the deviation measures rounding, not discretization.
        coarse = stochastic_module._trapezoid_moment(k, _QUAD_STEP)
        fine = stochastic_module._trapezoid_moment(k, _QUAD_STEP / 2)
        assert abs(coarse - fine) <= (1e-12 if k % 2 else 1e-10)

    def test_order_above_the_cap_rejected(self):
        with pytest.raises(ValueError, match=f"k <= {MAX_MOMENT_ORDER}"):
            moment_integral_check(MAX_MOMENT_ORDER + 1)

    def test_normalization(self):
        assert moment_integral_check(0) <= 1e-10

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            moment_integral_check(-2)


def ks_statistic(values):
    """mc_klebanov's KS statistic of a copy of ``values``."""
    return stochastic_module._ks_statistic(np.array(values, dtype=float))


def reference_ks_gap(values):
    """The one-sample KS statistic against sech_cdf, with the empirical
    distribution function counted at each point, and just below it, by two
    binary searches (ties counted with side="right" and side="left")."""
    ordered = np.sort(values)
    cdf = sech_cdf(ordered)
    at_or_below = np.searchsorted(ordered, ordered, side="right") / len(ordered)
    below = np.searchsorted(ordered, ordered, side="left") / len(ordered)
    return float(max((at_or_below - cdf).max(), (cdf - below).max()))


@st.composite
def tied_samples(draw):
    """A sample of 1-60 values rounded to 0-2 decimals (or not at all), so
    that ties are common."""
    n = draw(st.integers(1, 60))
    decimals = draw(st.sampled_from([0, 1, 2, None]))
    values = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    sample = np.array(draw(st.lists(values, min_size=n, max_size=n)))
    return sample if decimals is None else np.round(sample, decimals)


class TestKolmogorovSmirnov:
    @settings(max_examples=200, deadline=None)
    @given(tied_samples())
    def test_statistic_equals_the_binary_search_count(self, values):
        statistic = ks_statistic(values)
        assert statistic == reference_ks_gap(values)
        expected = stats.kstest(values, sech_cdf).statistic
        assert abs(statistic - expected) <= 4 * math.ulp(expected)

    def test_single_points(self):
        # One point x: the empirical distribution function steps from 0 to 1
        # at x, so D = max(F(x), 1 - F(x)).
        for x in (0.0, 0.5, -2.0, 11.0):
            cdf = float(sech_cdf(x))
            assert ks_statistic([x]) == max(cdf, 1.0 - cdf)
        assert ks_statistic([0.0]) == 0.5

    def test_constant_sample(self):
        constant = np.full(1000, 0.25)
        cdf = float(sech_cdf(0.25))
        assert ks_statistic(constant) == max(cdf, 1.0 - cdf)
        assert ks_statistic(constant) == stats.kstest(constant, sech_cdf).statistic

    def test_values_are_left_sorted(self):
        values = sample_sech(RandomStream(8), 1000)
        expected = np.sort(values).tobytes()
        stochastic_module._ks_statistic(values)
        assert values.tobytes() == expected

    def test_memory_is_bounded(self):
        # A two-sample test held a pooled copy of both samples, its int64
        # merge order and timsort's buffer, 32 MiB here, and whole arrays of
        # F and one ramp 15.3 MiB.  Block by block it holds F, a ramp and the
        # gaps of one block beside the values: 1.5 MiB.
        values = sample_sech(RandomStream(9), 10**6)
        tracemalloc.start()
        try:
            stochastic_module._ks_statistic(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20

    def test_pvalue_bounds_the_exact_law(self):
        # scipy's kstwo is the exact law of the one-sample statistic.  The
        # bound is never below it, and at large n, where a verdict is made,
        # it is close: the KS verdict at alpha fails a correct sampler with
        # probability at most alpha, and not much less.
        for n in (10**2, 10**3, 10**4, 10**5, 10**6, 10**7):
            for p in (1e-8, 0.01, 0.05, 0.2, 0.9):
                statistic = stats.kstwo.isf(p, n)
                exact = stats.kstwo.sf(statistic, n)
                bound = stochastic_module._massart_pvalue(n, statistic)
                assert exact <= bound <= 1.0, (n, p)
                if n >= 10**5 and exact <= 0.05:
                    assert bound - exact <= 2e-4, (n, p)
        assert stochastic_module._massart_pvalue(10**5, 0.0) == 1.0
        # A NaN statistic stays NaN, which MomentReport.ok fails (the ks-nan
        # case of test_non_finite_figures_fail); 1.0 would be a perfect fit.
        assert math.isnan(stochastic_module._massart_pvalue(10**5, math.nan))

    def test_klebanov_sees_a_scaled_sech_map(self, monkeypatch):
        # Sums drawn through a sech map 1% too wide are 1% too wide too.  A
        # test against reference draws made by the same map cannot see that
        # (p = 0.09 to 0.84 on these streams); one against the law can.
        real_fill = stochastic_module._sech_fill

        def scaled_fill(rng, out):
            real_fill(rng, out)
            out *= 1.01
            return out

        monkeypatch.setattr(stochastic_module, "_sech_fill", scaled_fill)
        for r in range(5):
            report = mc_klebanov(RandomStream(900 + r), 2, 10**6)
            assert report.extras["ks_pvalue"] < 0.01, r
            assert not report.ok()
