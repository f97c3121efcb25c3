"""Seeded sampling and Monte Carlo verification.

The continuous ingredient is the hyperbolic secant law with density
sech(pi x) on the real line (normalization constant 1 in this convention;
checked numerically by :func:`identities.moment_integral_check`).  Its
distribution function is F(x) = (2/pi) arctan(e^{pi x}), so exact
inverse-CDF sampling uses x = ln(tan(pi u / 2)) / pi, evaluated as
-ln(tan(pi (1 - u) / 2)) / pi (see :func:`_sech_fill`); differentiating F
recovers sech(pi x), so the sampler is unbiased.

The discrete ingredient is the random index mu_N, drawn as N plus twice a
sum of floor(N/2) independent geometric variables, one uniform each (see
:func:`sample_mu`); no table is built.

numpy is the only dependency beyond the standard library: the
Kolmogorov-Smirnov test of the Klebanov check compares its random sums with
F itself and bounds the p-value by Massart's form of the
Dvoretzky-Kiefer-Wolfowitz inequality (see :func:`mc_klebanov`).

Streams and reports are immutable NamedTuples, a report's ``extras`` a
read-only mapping.  A :class:`RandomStream` names a reproducible sequence
(counter-based generator keyed by seed and stream id), any position of which
can be read directly, and independence between consumers is obtained by
splitting.  Identical (seed, stream id, draw count) therefore reproduce
identical arrays on any platform.

A large call is cut into contiguous runs, one per CPU this process may use,
each filled on its own thread (see :func:`_in_runs`).  A call is cut by the
draws it makes (p per sample, at most 4, for mc_gen_euler; floor(N/2) for
sample_mu), into runs of at least 2^15 draws.  A run starts reading the
stream at its own first draw, wherever that falls (``RandomStream.generator``
takes any offset), so the output does not depend on the number of runs or
on where they are cut.

mc_euler_poly and mc_gen_euler share one kernel (:func:`_power_report`):
each run draws, sums and raises its samples chunk by chunk in reused
buffers and keeps only the real and imaginary parts of the powers, so a
call holds 16 bytes a sample.  mc_klebanov holds its random sums beside mu
while it draws them, then beside one array of moment values: 16 bytes a
sample as well.

A report's means and standard errors are the whole-array np.add.reduce
calls of np.mean and np.std, with the deviations squared in place in the
array being reduced (:func:`_entry`), so they are byte for byte those of
np.mean and np.std and make no temporary of all the samples; the KS
statistic is taken block by block (:func:`_ks_statistic`).
"""

from __future__ import annotations

import math
import os
import threading
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .eulerpoly import (
    euler_numbers, euler_poly, eval_poly, gen_euler_recursive,
)
from .exactnum import (
    DensePolynomial, DomainError, Rational, require, require_positive, require_rational,
)
# Kept for the benchmark, which calls and wraps this name; the check is
# stdlib floats and lives in identities.
from .identities import moment_integral_check
# Kept for the benchmark's tracer, which rebinds this name.
from .probnum import probnum_series

__all__ = [
    "RandomStream",
    "MomentEntry",
    "MomentReport",
    "DEFAULT_BAND",
    "sech_cdf",
    "sample_sech",
    "sample_mu",
    "mc_euler_poly",
    "mc_gen_euler",
    "mc_klebanov",
    "MAX_REP_ORDER",
    "MAX_GEN_ORDER",
    "MAX_GEN_P",
    "MIN_SAMPLES",
    "MIN_KLEBANOV_SAMPLES",
    "MAX_SAMPLES",
    "MAX_KLEBANOV_N",
]

# Items per chunk of every chunked kernel; no output depends on where a chunk
# ends.  _power_report's 48 bytes a sample make 1.5 MiB a run, inside a 2 MiB
# L2; chunks of 2^13 made gen (n = 6, p = 10, 10^6 samples) 25% slower.
_CHUNK = 2**15

# Band, in standard errors, of the Monte Carlo checks (MomentReport.ok).
DEFAULT_BAND = 4.0
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
# Memory grows linearly with it, 16 bytes a sample: at 10^7 a montecarlo
# command peaks at about 190 MiB for rep (n = 8), gen (n = 6, p = 10) and
# klebanov at any N (Python 3.11).
MAX_SAMPLES = 10**7
# Largest N of sample_mu and mc_klebanov.  The cap bounds time: E[mu_N] is
# N^2, so mc_klebanov makes about count N^2 sech draws, 9 10^9 at MAX_SAMPLES
# and N = 30.
MAX_KLEBANOV_N = 30
# MomentReport.ok fails a report whose KS p-value is below this level.
_KS_ALPHA = 0.01

# Threads of one Monte Carlo call: the CPUs this process may run on, read
# once.  A call is cut by the draws it makes: a run has at least _MIN_RUN
# draws (about 0.25 ms of sech draws), so a call of fewer than 2 _MIN_RUN
# draws stays on the calling thread; a run of the power kernel also holds at
# least _MIN_RUN / 4 samples (:func:`_power_report`).  On a 2-vCPU VM,
# sample_sech(10^5) took a median 0.82, 0.69, 0.89 and 0.86 ms at runs of
# 2^14, 2^15, 2^16 and 2^17 draws, and mc_euler_poly(n = 1, 10^5) 1.42, 1.30,
# 1.50 and 1.49 ms.  A draw of mu_N counts as its floor(N/2) uniforms.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
    else os.cpu_count() or 1
)
_MIN_RUN = 2**15
# Draws per Philox counter value: RandomStream.generator(offset) starts at
# counter offset // _BLOCK and skips the rest.
_BLOCK = 4


# A NamedTuple body cannot define __new__, so the two records whose fields
# are checked or copied on construction subclass a plain one.
class _StreamKey(NamedTuple):
    seed: int
    stream_id: int


class RandomStream(_StreamKey):
    """Name of a deterministic random sequence.

    Drawing does not mutate the stream: two calls that consume the same
    stream see the same numbers, and any position can be read directly
    (:meth:`generator`).  Use :meth:`split` to hand independent sub-streams
    to independent consumers.  The seed and the stream id are the two 64-bit
    words of the generator's key, held as ints: each is refused if it is no
    integer (numpy truncated 1.5 and True to 1) or lies outside [0, 2^64),
    where it would wrap onto another stream.
    """

    __slots__ = ()

    def __new__(cls, seed: int, stream_id: int = 0) -> "RandomStream":
        return super().__new__(
            cls,
            require("RandomStream", "seed", seed, 0, 2**64 - 1),
            require("RandomStream", "stream_id", stream_id, 0, 2**64 - 1),
        )

    @classmethod
    def _make(cls, iterable) -> "RandomStream":
        # _replace builds through _make, so its fields are checked too.
        return cls(*iterable)

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
        count = require("split", "count", count, 1, 2**16)
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


def _in_runs(job, total: int, draws: int = 1) -> None:
    """``job(lo, hi)`` over near-equal runs [lo, hi) of ``total`` items of
    ``draws`` draws each: one run per worker, but none shorter than one item
    or ``_MIN_RUN`` draws unless it is the only one.  The first run goes on
    the calling thread, each other on a thread started for this call.

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

    runs = max(1, min(_WORKERS, total, total * draws // _MIN_RUN))
    bounds = [total * r // runs for r in range(runs + 1)]
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
    uniforms of ``stream`` (see :func:`_sech_fill`), filled in runs."""
    count = require("sample_sech", "count", count, 1, MAX_SAMPLES)
    out = np.empty(count)

    def run(lo, hi):
        _sech_fill(stream.generator(lo), out[lo:hi])

    _in_runs(run, count)
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
    N = require("sample_mu", "N", N, 2, MAX_KLEBANOV_N)
    count = require("sample_mu", "count", count, 1, MAX_SAMPLES)
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

    _in_runs(run, count, K)
    return out


class MomentEntry(NamedTuple):
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
        return {**self._asdict(), "standardized": self.standardized}


class _ReportFields(NamedTuple):
    sample_size: int
    entries: tuple[MomentEntry, ...]
    extras: Mapping[str, float]


class MomentReport(_ReportFields):
    """Empirical-versus-reference summary of one Monte Carlo run.

    ``extras`` is held as a read-only copy of the mapping it is given, so no
    one can change a verdict (:meth:`ok`) after the report is made.
    """

    __slots__ = ()

    def __new__(cls, sample_size: int, entries: tuple[MomentEntry, ...],
                extras: Mapping[str, float] = MappingProxyType({})) -> "MomentReport":
        return super().__new__(cls, sample_size, entries, MappingProxyType(dict(extras)))

    @classmethod
    def _make(cls, iterable) -> "MomentReport":
        # _replace builds through _make, so its extras are copied too.
        return cls(*iterable)

    def __getnewargs__(self):
        # A mappingproxy cannot be pickled or copied; its dict can.
        return self.sample_size, self.entries, dict(self.extras)

    def __repr__(self) -> str:
        # extras prints as the dict it holds, not as mappingproxy({...}).
        return (f"MomentReport(sample_size={self.sample_size!r}, "
                f"entries={self.entries!r}, extras={dict(self.extras)!r})")

    @property
    def max_standardized_deviation(self) -> float:
        # np.max, unlike Python's max, keeps a NaN wherever it sits.
        return float(np.max([entry.standardized for entry in self.entries]))

    def ok(self, band: float = DEFAULT_BAND) -> bool:
        # A NaN compares false with everything, so every test is written to
        # pass only on finite figures inside their bounds.
        require_positive("MomentReport.ok", "band", band)
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


def _entry(label: str, values: np.ndarray, reference: float) -> MomentEntry:
    """The mean and standard error of ``values``, which it overwrites.

    They are byte for byte ``np.mean(values)`` and ``np.std(values, ddof=1)
    / sqrt(len(values))``: the same whole-array np.add.reduce calls and the
    same arithmetic, but the deviations are squared in ``values`` itself
    rather than in a temporary of the same length.  A report of overflowed
    values says so itself, so the call warns of nothing.
    """
    n = len(values)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean = np.add.reduce(values) / n
        values -= mean
        values *= values
        std_err = float(np.sqrt(np.add.reduce(values) / (n - 1)) / math.sqrt(n))
    return MomentEntry(label, float(mean), std_err, reference)


def _point(caller: str, poly: DensePolynomial, x: Rational) -> tuple[float, float]:
    """x as the float the samples are shifted by, and the float of the
    reference value poly(x); a DomainError, before any sampling, when x is
    no rational (a NaN, None) or either float would not be finite (an
    infinite x included)."""
    if not (isinstance(x, float) and math.isinf(x)):
        x = require_rational(caller, "x", x)
        try:
            return float(x), float(eval_poly(poly, x))
        except OverflowError:
            pass
    raise DomainError(
        f"{caller} requires x within the float range, and its reference value too"
    )


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
    since each costs about 1/15 of a draw, and a sample counts as at most 4
    draws, so a run also holds at least _MIN_RUN / 4 samples: at n = 6 and
    p = 10 on a 2-vCPU VM, two runs took a median 1.10 times as long as one
    at 10^4 samples, 0.95 times at 1.5 10^4 and 0.83 times at 2 10^4.

    A run draws, sums and raises chunk by chunk through its own reused
    buffers of ``_CHUNK`` samples and writes only the real and imaginary
    parts of the powers, the two arrays the report reduces, so memory beyond
    them is O(runs _CHUNK).
    """
    real_parts = np.empty(count)
    imag_parts = np.empty(count)

    def run(lo, hi):
        first, *rest = [stream.generator(lo) for stream in streams]
        total = np.empty(_CHUNK)
        draws = np.empty(_CHUNK)
        base = np.empty(_CHUNK, dtype=complex)
        base.real = real
        powers = np.empty_like(base)
        # numpy's error state is per thread; a report of overflowed powers
        # says so itself.
        with np.errstate(over="ignore", invalid="ignore"):
            for a in range(lo, hi, _CHUNK):
                m = min(_CHUNK, hi - a)
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

    _in_runs(run, count, min(len(streams), 4))
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
    n = require("mc_euler_poly", "n", n, 0, MAX_REP_ORDER)
    count = require("mc_euler_poly", "count", count, MIN_SAMPLES, MAX_SAMPLES)
    shift, reference = _point("mc_euler_poly", euler_poly(n), x)
    return _power_report((stream,), shift - 0.5, n, reference, count)


def mc_gen_euler(
    stream: RandomStream, n: int, p: int, x: Rational, count: int
) -> MomentReport:
    """Monte Carlo estimate of E_n^{(p)}(x) as the mean of
    (x - p/2 + i (L_1 + ... + L_p))^n over independent sech draws, L_j
    drawn from child j of ``stream.split(p)``."""
    n = require("mc_gen_euler", "n", n, 0, MAX_GEN_ORDER)
    p = require("mc_gen_euler", "p", p, 1, MAX_GEN_P)
    count = require("mc_gen_euler", "count", count, MIN_SAMPLES, MAX_SAMPLES)
    shift, reference = _point("mc_gen_euler", gen_euler_recursive(n, p), x)
    return _power_report(stream.split(p), shift - 0.5 * p, n, reference, count)


def _random_sums(stream: RandomStream, mu: np.ndarray) -> np.ndarray:
    """The sums of consecutive sech draws of ``stream``, mu[i] of them for
    sum i.

    Byte for byte they are ``np.add.reduceat(sample_sech(stream, mu.sum()),
    starts)``, segment i starting at starts[i] = sum(mu[:i]): each sum adds
    the draws at its own stream positions, in order, within one reduceat.

    The segments are cut into runs of near-equal counts, one per worker
    (:func:`_in_runs`).  A run starts reading the stream at sum(mu[:lo]) and
    reads it through its own reused buffer, in chunks of about ``_CHUNK``
    draws that end on segment boundaries.  A chunk's segments are found by a
    cumulative sum of the lengths of the next few segments, twice as many as
    hold ``_CHUNK`` draws on the run's average, so memory beyond the sums is
    O(runs (_CHUNK + max(mu))).
    """
    out = np.empty(len(mu))

    def run(lo, hi):
        buffer = np.empty(_CHUNK + int(mu[lo:hi].max()))
        span = min(hi - lo, 2 * _CHUNK * (hi - lo) // int(mu[lo:hi].sum()) + 1)
        offsets = np.zeros(span + 1, dtype=np.int64)  # from the chunk's start
        rng = stream.generator(int(mu[:lo].sum()))
        k = lo
        while k < hi:
            lengths = mu[k:min(k + span, hi)]  # none past the run's end
            ends = np.cumsum(lengths, out=offsets[1:len(lengths) + 1])
            # The first segment ending at or past _CHUNK closes the chunk.
            j = min(int(np.searchsorted(ends, _CHUNK)) + 1, len(lengths))
            draws = _sech_fill(rng, buffer[:int(offsets[j])])
            np.add.reduceat(draws, offsets[:j], out=out[k:k + j])
            k += j

    _in_runs(run, len(mu), int(mu.sum()) // len(mu))
    return out


def _ks_statistic(values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov statistic of ``values`` against the
    sech law, D = max_i max(i/n - F_i, F_i - (i-1)/n) with F_i = sech_cdf of
    the i-th smallest value; ``values`` is sorted in place.

    F is continuous, so the largest gap between it and the empirical
    distribution function lies at a data point, just at or just below it;
    at a run of equal values the first term of its last point and the second
    of its first are the two gaps there, so ties count exactly.  After the
    sort, F and the two ramps are made block by block, ``_CHUNK`` values at a
    time, so beside ``values`` the call holds three arrays of one block; the
    maxima of the blocks are those of the whole arrays.
    """
    values.sort()
    n = len(values)
    upper, lower = [], []  # each block's largest i/n - F_i and F_i - (i-1)/n
    for lo in range(0, n, _CHUNK):
        F = sech_cdf(values[lo:lo + _CHUNK])
        ramp = np.arange(lo + 1.0, lo + len(F) + 1.0)  # i
        gaps = ramp / n
        gaps -= F
        upper.append(gaps.max())
        ramp -= 1.0
        np.divide(ramp, n, out=gaps)
        np.subtract(F, gaps, out=gaps)
        lower.append(gaps.max())
        del F, ramp, gaps  # before the next block's F is made
    return float(max(np.max(upper), np.max(lower)))


def _massart_pvalue(n: int, statistic: float) -> float:
    """Massart's form of the Dvoretzky-Kiefer-Wolfowitz inequality,
    P(D_n >= d) <= 2 exp(-2 n d^2), proven for every n (Ann. Probab. 18,
    1990): an upper bound on the p-value of a one-sample KS statistic, at
    most 1.5e-4 above the exact one where n >= 10^5 and that is <= 0.05.
    A NaN statistic gives a NaN p-value, which ``MomentReport.ok`` fails."""
    # min returns its first argument unless the second is smaller, and
    # nothing compares smaller than NaN.
    return min(2.0 * math.exp(-2.0 * n * statistic * statistic), 1.0)


def mc_klebanov(stream: RandomStream, N: int, count: int) -> MomentReport:
    """Random-sum stability check: S = (L_1 + ... + L_{mu_N}) / N should be
    sech-distributed again.

    Compares the empirical moments of orders 1, 2, 4, 6 against the sech
    moments |E_k| / 2^k (computed, never hard-coded), and the sums against
    the sech law itself by a one-sample KS test (:func:`_ks_statistic`).
    Its p-value is an upper bound (:func:`_massart_pvalue`), so
    ``MomentReport.ok`` fails a report of a correct sampler on the KS entry
    with probability at most ``_KS_ALPHA``.
    """
    N = require("mc_klebanov", "N", N, 2, MAX_KLEBANOV_N)
    count = require("mc_klebanov", "count", count, MIN_KLEBANOV_SAMPLES, MAX_SAMPLES)
    mu_stream, sech_stream = stream.split(2)
    sums = _random_sums(sech_stream, sample_mu(mu_stream, N, count))
    sums /= N

    numbers = euler_numbers(6)
    series = np.empty(count)  # each series in turn, reduced in place
    series[:] = sums
    entries = [_entry("mean", series, 0.0)]
    squares = np.empty(_CHUNK)
    for k in (2, 4, 6):
        # The power k of the sums as squared times squared times ..., with
        # squared = sums * sums made again chunk by chunk.
        for lo in range(0, count, _CHUNK):
            chunk = sums[lo:lo + _CHUNK]
            squared = np.multiply(chunk, chunk, out=squares[:len(chunk)])
            power = series[lo:lo + len(chunk)]
            power[:] = squared
            for _ in range(k // 2 - 1):
                power *= squared
        reference = float(Fraction(abs(numbers[k]), 2**k))
        entries.append(_entry(f"moment{k}", series, reference))
    del series, squares

    statistic = _ks_statistic(sums)
    p_value = _massart_pvalue(count, statistic)
    return MomentReport(
        sample_size=count,
        entries=tuple(entries),
        extras={"ks_statistic": statistic, "ks_pvalue": p_value},
    )
