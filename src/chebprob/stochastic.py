"""Seeded sampling and Monte Carlo verification.

The continuous ingredient is the hyperbolic secant law with density
sech(pi x) on the real line (normalization constant 1 in this convention;
checked numerically by :func:`moment_integral_check`).  Its distribution
function is F(x) = (2/pi) arctan(e^{pi x}), so exact inverse-CDF sampling
uses x = ln(tan(pi u / 2)) / pi, evaluated as -ln(tan(pi (1 - u) / 2)) / pi
(see :func:`_sech_fill`); differentiating F recovers sech(pi x), so the
sampler is unbiased.

The discrete ingredient is the random index mu_N, drawn as N plus twice a
sum of floor(N/2) independent geometric variables, one uniform each (see
:func:`sample_mu`); no table is built.

numpy is the only dependency beyond the standard library: the two-sample
Kolmogorov-Smirnov p-value is the exact law of the statistic for equal
sample sizes, and the moment integrals use the trapezoid rule, which
converges geometrically on these integrands.

Streams are immutable values: a :class:`RandomStream` names a reproducible
sequence (counter-based generator keyed by seed and stream id), any position
of which can be read directly, and independence between consumers is
obtained by splitting.  Identical (seed, stream id, draw count) therefore
reproduce identical arrays on any platform.

A large call is cut into contiguous runs, one per CPU this process may use,
each filled on its own thread (see :func:`_in_runs`).  A call is cut by the
draws it makes (p per sample for mc_gen_euler, floor(N/2) for sample_mu),
into runs of at least 2^15 draws.  Every draw is read at its own stream
position, so the output does not depend on the number of runs.

mc_euler_poly and mc_gen_euler share one kernel (:func:`_power_report`):
each run draws, sums and raises its samples chunk by chunk in reused
buffers and keeps only the real and imaginary parts of the powers, so a
call holds 16 bytes a sample, 24 at the peak of the report's reductions.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .eulerpoly import (
    euler_numbers, euler_poly, eval_poly, gen_euler_recursive,
)
from .exactnum import DensePolynomial, DomainError, Rational, require
# Kept for the benchmark's tracer, which rebinds this name.
from .probnum import probnum_series

__all__ = [
    "RandomStream",
    "MomentEntry",
    "MomentReport",
    "DEFAULT_BAND",
    "INTEGRAL_TOL",
    "sech_cdf",
    "sample_sech",
    "sample_mu",
    "mc_euler_poly",
    "mc_gen_euler",
    "mc_klebanov",
    "moment_integral_check",
    "MAX_MOMENT_ORDER",
    "MAX_REP_ORDER",
    "MAX_GEN_ORDER",
    "MAX_GEN_P",
    "MIN_SAMPLES",
    "MIN_KLEBANOV_SAMPLES",
    "MAX_SAMPLES",
    "MAX_KLEBANOV_N",
]

# Uniforms per chunk of sample_mu and of the random sums: 0.5 MiB, small enough
# to stay in cache, large enough that the per-chunk Python overhead is small.
_CHUNK = 2**16
# Samples per chunk of the rep and gen kernel (_power_report): its buffers
# hold 48 bytes a sample, 1.5 MiB a run, inside a 2 MiB L2 cache.  At 10^6
# samples, chunks of 2^13 made gen (n = 6, p = 10) about 25% slower.
_POWER_CHUNK = 2**15

# Band, in standard errors, of the Monte Carlo checks (MomentReport.ok).
DEFAULT_BAND = 4.0
# Bounds of moment_integral_check's deviation, by k % 2: an absolute 1e-10
# for even k, and 1e-12 for odd k, whose moments vanish identically.
INTEGRAL_TOL = (1e-10, 1e-12)
# The moment |E_k| / 2^k grows fast (1.2e4 at k = 14), so the rounding of the
# sum alone exceeds the 1e-10 bound past this order (k = 14 gives 7e-12,
# k = 16 2e-10).
MAX_MOMENT_ORDER = 14
# Input limits of the Monte Carlo checks.  Above these orders the integrands'
# variance grows too fast for the standard-error bands to mean anything at
# desk-scale sample sizes; below these sizes the bands and the KS test have
# too little data.
MAX_REP_ORDER = 8
MAX_GEN_ORDER = 6
MAX_GEN_P = 10
MIN_SAMPLES = 10**4
MIN_KLEBANOV_SAMPLES = 10**5
# Largest count of the Monte Carlo checks, refused before any allocation.
# Memory grows linearly with it: at 10^7 a montecarlo command peaks at about
# 265 MiB for rep (n = 8) and gen (n = 6, p = 10), 24 bytes a sample, and
# at about 400 MiB for klebanov at any N (Python 3.11).
MAX_SAMPLES = 10**7
# Largest N of sample_mu and mc_klebanov.  The cap bounds time: E[mu_N] is
# N^2, so mc_klebanov makes about count N^2 sech draws, 9 10^9 at MAX_SAMPLES
# and N = 30.
MAX_KLEBANOV_N = 30
# MomentReport.ok fails a report whose KS p-value is below this level.
_KS_ALPHA = 0.01
# Trapezoid step of the moment integrals.  Their integrands are analytic in
# the strip |Im t| < 1/2, so the rule's error is about 4 exp(-pi / h) 2^-k,
# 6e-22 at h = 1/16, far below rounding; a power of two keeps every node
# exact.
_QUAD_STEP = 1 / 16

# Threads of one Monte Carlo call: the CPUs this process may run on, read
# once.  A call is cut by the draws it makes, not by its sample count: a run
# has at least _MIN_RUN draws (about 0.25 ms of sech draws), so a call of
# fewer than 2 _MIN_RUN draws stays on the calling thread.  On a 2-vCPU VM,
# sample_sech(10^5) took a median 0.82, 0.69, 0.89 and 0.86 ms at runs of
# 2^14, 2^15, 2^16 and 2^17 draws, and mc_euler_poly(n = 1, 10^5) 1.42, 1.30,
# 1.50 and 1.49 ms.  A draw of mu_N counts as its floor(N/2) uniforms.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
_MIN_RUN = 2**15
# Draws per Philox counter value: a run that starts on a multiple of it
# shares no counter block with the run before it.
_BLOCK = 4


@dataclass(frozen=True)
class RandomStream:
    """Name of a deterministic random sequence.

    Drawing does not mutate the stream: two calls that consume the same
    stream see the same numbers, and any position can be read directly
    (:meth:`generator`).  Use :meth:`split` to hand independent sub-streams
    to independent consumers.  The seed and the stream id are the two 64-bit
    words of the generator's key, so each is refused outside [0, 2^64),
    where it would wrap onto another stream.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            if not 0 <= value < 2**64:
                raise DomainError(
                    f"RandomStream requires 0 <= {name} < 2^64, got {name}={value}"
                )

    def generator(self, offset: int = 0) -> np.random.Generator:
        """A generator whose next draw is draw ``offset`` of the stream.

        Philox is counter-based: counter value c yields draws 4c to 4c + 3,
        so the generator starts at counter offset // 4 and skips offset % 4
        draws.
        """
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        block, skip = divmod(offset, _BLOCK)
        bits = np.random.Philox(key=key, counter=block)
        bits.random_raw(skip)
        return np.random.Generator(bits)

    def split(self, count: int) -> tuple["RandomStream", ...]:
        """``count`` child streams, with ids ``stream_id * 2^16 + 1`` to
        ``stream_id * 2^16 + count``: ``RandomStream(s).split(3)[0] ==
        RandomStream(s, 1)``.  A count above 2^16 is refused, since its last
        ids would be those of the next stream's children, and so is a count
        whose last id would reach 2^64."""
        require("split", "count", count, 1, 2**16)
        base = self.stream_id * 2**16
        if base + count >= 2**64:
            raise DomainError(
                f"split requires child ids below 2^64, got stream_id={self.stream_id}"
                f" and count={count}"
            )
        return tuple(
            RandomStream(self.seed, base + i + 1) for i in range(count)
        )


def sech_cdf(x):
    """Distribution function (2/pi) arctan(e^{pi x})."""
    with np.errstate(over="ignore"):
        return (2.0 / np.pi) * np.arctan(np.exp(np.pi * np.asarray(x, dtype=float)))


def _run_count(draws: int) -> int:
    """How many runs a call of ``draws`` draws (or values sorted) is cut
    into: one per worker, each of at least ``_MIN_RUN`` draws."""
    return max(1, min(_WORKERS, draws // _MIN_RUN))


def _cuts(total: int, draws: int = 1) -> list[int]:
    """Bounds of the ``_run_count(total * draws)`` near-equal runs of
    ``total`` items of ``draws`` draws each, cut on multiples of
    ``_BLOCK``."""
    runs = _run_count(total * draws)
    return [total * r // runs // _BLOCK * _BLOCK for r in range(runs)] + [total]


def _in_runs(job, bounds) -> None:
    """``job(lo, hi)`` for each pair of consecutive ``bounds``: the first run
    on the calling thread, each other on a thread started for this call.

    Every thread is joined before this returns, also when a run raises, and
    the first exception of the other runs is re-raised here.  Runs call only
    private kernels, so the calling thread keeps every public call.
    """
    errors = []

    def guarded(lo, hi):
        try:
            job(lo, hi)
        except Exception as exc:  # re-raised on the calling thread
            errors.append(exc)

    started = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            thread = threading.Thread(target=guarded, args=(lo, hi))
            thread.start()
            started.append(thread)
        job(bounds[0], bounds[1])
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def sample_sech(stream: RandomStream, count: int) -> np.ndarray:
    """i.i.d. draws from the sech(pi x) law by exact CDF inversion at the
    uniforms of ``stream`` (see :func:`_sech_fill`)."""
    require("sample_sech", "count", count, 1, MAX_SAMPLES)
    return _sech_draws(stream, np.empty(count))


def _sech_draws(stream: RandomStream, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` in place with the first sech draws of ``stream``, in runs."""

    def run(lo, hi):
        _sech_fill(stream.generator(lo), out[lo:hi])

    _in_runs(run, _cuts(len(out)))
    return out


def _sech_fill(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` in place with sech draws read from ``rng`` and return it.

    A uniform u maps to -ln(tan(pi v / 2)) / pi at v = 1 - u, which is exact
    and in (0, 1] for every u the generator returns; by the law's symmetry
    this is F^-1(u).  At u = 0, tan(fl(pi/2)) is finite, so the draw is
    -11.88, inside that uniform's own cell [0, 2^-53)."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    np.multiply(out, 0.5 * np.pi, out=out)
    np.tan(out, out=out)
    np.log(out, out=out)
    np.divide(out, -np.pi, out=out)
    return out


def _mu_table(N: int) -> np.ndarray:
    """The rates r_k = log1p(-s_k), s_k = sin^2 t_k, t_k = (2k - 1) pi / 2N,
    of the floor(N/2) geometric variables of mu_N (:func:`sample_mu`); log1p
    keeps each to a few ulps where s_k is small."""
    t = np.arange(1, 2 * (N // 2), 2) * (np.pi / (2 * N))
    return np.log1p(-np.sin(t) ** 2)


def sample_mu(stream: RandomStream, N: int, count: int) -> np.ndarray:
    """Draws of mu_N = N + 2 (G_1 + ... + G_K), K = floor(N/2).

    The roots of T_N pair as +-cos t_k, so 1/T_N(1/z) = z^N prod_k
    s_k / (1 - (1 - s_k) z^2): the G_k are independent geometric variables on
    {0, 1, ...} with success probabilities s_k (Keilson's passage-time
    theorem; Fill, J. Theor. Probab. 22, 2009).  Draw i maps uniforms iK to
    iK + K - 1 of ``stream`` to G_k = floor(log(1 - u) / r_k)
    (:func:`_mu_table`); 1 - u is exact and in (0, 1], so its log is finite.
    A run adds the K columns of each chunk of about ``_CHUNK`` uniforms in
    place, in a reused buffer; the terms are integer-valued floats, so the
    sums are exact.
    """
    require("sample_mu", "N", N, 2, MAX_KLEBANOV_N)
    require("sample_mu", "count", count, 1, MAX_SAMPLES)
    rates = _mu_table(N)
    K = len(rates)
    out = np.empty(count, dtype=np.int64)

    def run(lo, hi):
        rng = stream.generator(lo * K)
        buffer = np.empty((min(_CHUNK // K, hi - lo), K))
        for a in range(lo, hi, _CHUNK // K):
            g = buffer[: hi - a]
            rng.random(out=g)
            np.subtract(1.0, g, out=g)
            np.log(g, out=g)
            np.divide(g, rates, out=g)
            np.floor(g, out=g)
            total = g[:, 0]
            for k in range(1, K):
                total += g[:, k]
            total *= 2
            total += N
            out[a:a + len(g)] = total

    _in_runs(run, _cuts(count, K))
    return out


@dataclass(frozen=True)
class MomentEntry:
    label: str
    estimate: float
    std_error: float
    reference: float

    @property
    def standardized(self) -> float:
        # A constant sample (the real part for n = 1) has a rounding-size or
        # zero SE, so the gap is judged against a rounding floor when that is
        # larger.  A pairwise-summed mean is off by about log2(count) ulps, the
        # values and the reference by a few more: 64 ulps cover count < 2^48.
        gap = abs(self.estimate - self.reference)
        floor = 64 * math.ulp(max(abs(self.estimate), abs(self.reference)))
        return gap / max(self.std_error, floor)

    def json_dict(self) -> dict:
        return {**asdict(self), "standardized": self.standardized}


@dataclass(frozen=True)
class MomentReport:
    """Empirical-versus-reference summary of one Monte Carlo run."""

    sample_size: int
    entries: tuple[MomentEntry, ...]
    extras: dict = field(default_factory=dict)

    @property
    def max_standardized_deviation(self) -> float:
        # np.max, unlike Python's max, keeps a NaN wherever it sits.
        return float(np.max([entry.standardized for entry in self.entries]))

    def ok(self, band: float = DEFAULT_BAND) -> bool:
        # A NaN compares false with everything, so every test is written to
        # pass only on finite figures inside their bounds.
        if not (math.isfinite(band) and band > 0):
            raise DomainError(f"band must be finite and positive, got {band}")
        for entry in self.entries:
            if not (math.isfinite(entry.estimate) and math.isfinite(entry.std_error)
                    and entry.standardized <= band):
                return False
        p_value = self.extras.get("ks_pvalue")
        return p_value is None or p_value >= _KS_ALPHA

    def json_dict(self) -> dict:
        return {
            "sample_size": self.sample_size,
            "entries": [entry.json_dict() for entry in self.entries],
            "extras": dict(self.extras),
            "max_standardized_deviation": self.max_standardized_deviation,
        }


def _entry(label: str, data: np.ndarray, reference: float) -> MomentEntry:
    std_err = float(np.std(data, ddof=1) / math.sqrt(len(data)))
    return MomentEntry(label, float(np.mean(data)), std_err, reference)


def _point(caller: str, poly: DensePolynomial, x: Rational) -> tuple[float, float]:
    """x as the float the samples are shifted by, and the float of the
    reference value poly(x); a DomainError, before any sampling, when either
    would not be finite."""
    try:
        x = Fraction(x)
        return float(x), float(eval_poly(poly, x))
    except OverflowError:
        raise DomainError(
            f"{caller} requires x within the float range, and its reference value too"
        ) from None


def _power_report(
    streams: tuple[RandomStream, ...], real: float, n: int, reference: float,
    count: int,
) -> MomentReport:
    """The mean over ``count`` samples of (real + i imag)^n against
    reference + 0 i, by repeated multiplication: exact for small integer
    powers, no branch cuts.  A sample's imag is the sum of the sech draws of
    every stream at its position, added in stream order.

    The samples are cut into runs by their draws, len(streams) each
    (:func:`_in_runs`); the n complex products of a sample are not counted,
    since each costs about 1/15 of a draw.  A run draws, sums and raises
    chunk by chunk through its own reused buffers of ``_POWER_CHUNK``
    samples and writes only the real and imaginary parts of the powers, the
    two arrays the report reduces, so memory beyond them is
    O(runs _POWER_CHUNK).
    """
    real_parts = np.empty(count)
    imag_parts = np.empty(count)

    def run(lo, hi):
        first, *rest = [stream.generator(lo) for stream in streams]
        total = np.empty(_POWER_CHUNK)
        draws = np.empty(_POWER_CHUNK)
        base = np.empty(_POWER_CHUNK, dtype=complex)
        base.real = real
        powers = np.empty_like(base)
        # numpy's error state is per thread; a report of overflowed powers
        # says so itself.
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(lo, hi, _POWER_CHUNK):
                m = min(_POWER_CHUNK, hi - a)
                _sech_fill(first, total[:m])
                for rng in rest:
                    total[:m] += _sech_fill(rng, draws[:m])
                base.imag[:m] = total[:m]
                # In place, as powers * base: numpy's complex product of
                # (a, b) and (b, a) can differ in the last bit, so the
                # operand order is kept.
                chunk = powers[:m]
                chunk.fill(1.0)
                for _ in range(n):
                    chunk *= base[:m]
                real_parts[a:a + m] = chunk.real
                imag_parts[a:a + m] = chunk.imag

    _in_runs(run, _cuts(count, len(streams)))
    with np.errstate(over="ignore", invalid="ignore"):
        entries = (
            _entry("real", real_parts, reference),
            _entry("imag", imag_parts, 0.0),
        )
    return MomentReport(sample_size=count, entries=entries)


def mc_euler_poly(
    stream: RandomStream, n: int, x: Rational, count: int
) -> MomentReport:
    """Monte Carlo estimate of E_n(x) as the mean of (x - 1/2 + i L)^n over
    sech-distributed L; the imaginary part estimates zero.

    Orders above 8 are refused: the integrand's variance grows too fast for
    the standard-error bands to mean anything at desk-scale sample sizes
    (``MAX_REP_ORDER``).
    """
    require("mc_euler_poly", "n", n, 0, MAX_REP_ORDER)
    require("mc_euler_poly", "count", count, MIN_SAMPLES, MAX_SAMPLES)
    shift, reference = _point("mc_euler_poly", euler_poly(n), x)
    return _power_report((stream,), shift - 0.5, n, reference, count)


def mc_gen_euler(
    stream: RandomStream, n: int, p: int, x: Rational, count: int
) -> MomentReport:
    """Monte Carlo estimate of E_n^{(p)}(x) as the mean of
    (x - p/2 + i (L_1 + ... + L_p))^n over independent sech draws, L_j
    drawn from child j of ``stream.split(p)``."""
    require("mc_gen_euler", "n", n, 0, MAX_GEN_ORDER)
    require("mc_gen_euler", "p", p, 1, MAX_GEN_P)
    require("mc_gen_euler", "count", count, MIN_SAMPLES, MAX_SAMPLES)
    shift, reference = _point("mc_gen_euler", gen_euler_recursive(n, p), x)
    return _power_report(stream.split(p), shift - 0.5 * p, n, reference, count)


def _random_sums(stream: RandomStream, mu: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` in place with the sums of consecutive sech draws of
    ``stream``, mu[i] of them for sum i, and return it.

    Byte for byte they are ``np.add.reduceat(sample_sech(stream, mu.sum()),
    offsets[:-1])``, segment i running from offsets[i] to offsets[i + 1]:
    each sum adds the draws at its own stream positions, in order, within one
    reduceat.

    The segments are cut into runs that end on segment boundaries, one per
    worker, with near-equal numbers of draws (:func:`_in_runs`).  A run reads
    the stream from its first position through its own reused buffer, in
    chunks of about ``_CHUNK`` that end on segment boundaries, so memory
    beyond ``out`` is one offsets array of len(mu) + 1 integers and
    O(runs (_CHUNK + max(mu))).
    """
    offsets = np.zeros(len(mu) + 1, dtype=np.int64)
    np.cumsum(mu, out=offsets[1:])

    def run(lo, hi):
        buffer = np.empty(_CHUNK + int(mu[lo:hi].max()))
        rng = stream.generator(int(offsets[lo]))
        k = lo
        while k < hi:
            start = int(offsets[k])
            # The first segment ending at or past start + _CHUNK closes the chunk.
            j = min(int(np.searchsorted(offsets[1:], start + _CHUNK)) + 1, hi)
            draws = _sech_fill(rng, buffer[: int(offsets[j]) - start])
            np.add.reduceat(draws, offsets[k:j] - start, out=out[k:j])
            k = j

    # Run r starts at the first segment starting at or past its share of the
    # draws; a segment longer than a share leaves a run empty, and it goes.
    cuts = np.searchsorted(offsets[:-1], _cuts(int(offsets[-1]))).tolist()
    _in_runs(run, sorted(set(cuts)))
    return out


def _ks_two_sample(pooled: np.ndarray) -> tuple[float, float]:
    """Two-sample Kolmogorov-Smirnov statistic D and its p-value
    P(D_{n,n} >= D) under the null, for the halves of ``pooled``, two
    samples of one size n; ``pooled`` is left sorted.

    D is the largest gap between the two empirical distribution functions,
    taken at the data points.  The halves are sorted in place (on two
    threads when 2n can be cut, :func:`_run_count`); a stable argsort merges
    the two sorted runs in one O(n) pass, and the gaps are the running sum
    of +1 for a point of the first half, -1 for one of the second.  They are
    read at the last point of each run of equal values, which a second
    stable sort of ``pooled`` in place finds (a gather ``pooled[order]``
    would hold 2n more doubles), so a tie counts every point at or below it,
    in both samples.  D is k/n for an integer k, and the p-value is exact
    (:func:`_ks_pvalue`); an odd length is refused.
    """
    n, odd = divmod(len(pooled), 2)
    if n == 0 or odd:
        raise ValueError(
            f"the exact KS test needs two samples of one size, got {len(pooled)} values"
        )
    halves = pooled.reshape(2, n)
    _in_runs(
        lambda lo, hi: halves[lo:hi].sort(axis=1),
        [0, 1, 2] if _run_count(2 * n) > 1 else [0, 2],
    )
    order = np.argsort(pooled, kind="stable")
    steps = np.less(order, n).view(np.int8)
    del order
    steps *= 2
    steps -= 1
    gaps = np.cumsum(steps, dtype=np.int32 if 2 * n < 2**31 else np.int64)
    del steps
    pooled.sort(kind="stable")
    # gaps[-1] is 0 (the samples have one size) and ends the last run.
    np.multiply(gaps[:-1], pooled[1:] != pooled[:-1], out=gaps[:-1])
    k = max(int(gaps.max()), -int(gaps.min()))
    return k / n, _ks_pvalue(n, k)


def _ks_pvalue(n: int, k: int) -> float:
    """P(D_{n,n} >= k/n) for two independent samples of size n from one
    continuous law, by the Gnedenko-Korolyuk formula
    2 sum_{j>=1} (-1)^(j+1) C(2n, n - jk) / C(2n, n).

    Each ratio is n!^2 / ((n - jk)! (n + jk)!), taken through lgamma.  The
    terms decay like exp(-(jk)^2 / n), so the sum stops at the first one that
    underflows: O(sqrt(n) / k) terms.
    """
    if k == 0:
        return 1.0
    log_central = 2.0 * math.lgamma(n + 1)
    total = 0.0
    for j in range(1, n // k + 1):
        m = j * k
        term = math.exp(log_central - math.lgamma(n - m + 1) - math.lgamma(n + m + 1))
        if term == 0.0:
            break
        total += term if j % 2 else -term
    # For small k the alternating sum sits near 1/2, and rounding can carry
    # twice it past 1, which no probability reaches.
    return min(1.0, 2.0 * total)


def mc_klebanov(stream: RandomStream, N: int, count: int) -> MomentReport:
    """Random-sum stability check: S = (L_1 + ... + L_{mu_N}) / N should be
    sech-distributed again.

    Compares the empirical moments of orders 1, 2, 4, 6 against the sech
    moments |E_k| / 2^k (computed, never hard-coded) and runs a two-sample
    KS test, with its exact p-value, against as many direct sech draws.
    """
    require("mc_klebanov", "N", N, 2, MAX_KLEBANOV_N)
    require("mc_klebanov", "count", count, MIN_KLEBANOV_SAMPLES, MAX_SAMPLES)
    mu_stream, sech_stream, reference_stream = stream.split(3)
    pooled = np.empty(2 * count)
    sums = _random_sums(sech_stream, sample_mu(mu_stream, N, count), pooled[:count])
    sums /= N

    numbers = euler_numbers(6)
    entries = [_entry("mean", sums, 0.0)]
    # The reference half of pooled is free until the KS draws fill it.
    squared = np.multiply(sums, sums, out=pooled[count:])
    power = np.ones(count)  # then squared, squared^2, squared^2 * squared
    for k in (2, 4, 6):
        np.multiply(power, squared, out=power)
        reference = float(Fraction(abs(numbers[k]), 2**k))
        entries.append(_entry(f"moment{k}", power, reference))

    del power  # free its memory for the KS test's merge
    _sech_draws(reference_stream, pooled[count:])
    statistic, p_value = _ks_two_sample(pooled)
    return MomentReport(
        sample_size=count,
        entries=tuple(entries),
        extras={"ks_statistic": statistic, "ks_pvalue": p_value},
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
    require("moment_integral_check", "k", k, 0, MAX_MOMENT_ORDER)
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
    has 2c/h + 1 nodes.
    """
    cutoff = 14.0 + 2.0 * k
    nodes = np.arange(-round(cutoff / h), round(cutoff / h) + 1) * h
    values = nodes**k / np.cosh(np.pi * nodes)
    values[[0, -1]] *= 0.5
    return h * math.fsum(values)
