"""Request lists and output checks for the library workloads.

A workload is a fixed list of requests built from the seed.  Each request
calls one public function of chebprob through its module attribute, looked
up at call time, so the tracer's wrappers see every call.  Its check looks
only at the returned value and at values returned earlier in the same pass;
checks never call back into chebprob, so they add no spans or counts.

This module imports chebprob lazily, inside the functions that make the
lists, because the pass runner times the import of the package before it
makes the requests.
"""

from __future__ import annotations

import functools
import math
import random
import time
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

LAW_MAX_ELL = 250
LAW_TOL = 1e-10
IDENTITY_TOL = 1e-9
EXPECTATION_TOL = 1e-12
MC_X = Fraction(1, 3)
MU_DRAWS = 5 * 10**4
KLEBANOV_DRAWS = 10**5  # the least mc_klebanov accepts, smoke runs included
REP_DRAWS = 10**5
BAND = 4.0


@dataclass(frozen=True)
class Check:
    """One output check.  A statistical check (a standard-error band or a
    KS test) fails at a known rate on correct output; it is counted in the
    check failure fraction but does not mark the request as failed."""

    label: str
    ok: bool
    statistical: bool = False


@dataclass
class Request:
    op: str
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class PassResult:
    latencies_s: list = field(default_factory=list)
    requests_failed: int = 0
    checks: int = 0
    checks_failed: int = 0
    failures: list = field(default_factory=list)
    out_of_table_draws: int = 0


def build(workload: str, seed: int, pass_no: int, smoke: bool) -> list:
    """The request list of pass ``pass_no`` of a run.  Only montecarlo's
    random streams depend on the pass; every pass of law and identity
    repeats the same requests."""
    if workload == "montecarlo":
        return montecarlo(seed, pass_no, smoke)
    lists = {"law": law, "identity": identity}
    return lists[workload](seed, smoke)


def run_pass(requests: list, tracer=None) -> PassResult:
    """Run the requests back to back; time each call, then check it outside
    the timed region.  A request fails when it raises or when one of its
    non-statistical checks fails."""
    out = PassResult()
    for req in requests:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            if tracer is not None:
                tracer.begin_request(req.op)
            start = time.perf_counter()
            try:
                result = req.call()
                error = None
            except Exception as exc:  # a raising request is a measured failure
                result, error = None, exc
            out.latencies_s.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.end_request()
        out.out_of_table_draws += _out_of_table(caught)
        if error is not None:
            checks = [Check(f"{req.op} raised {error!r}", False)]
        else:
            try:
                checks = req.check(result)
            except Exception as exc:
                checks = [Check(f"{req.op} check raised {exc!r}", False)]
        out.checks += len(checks)
        bad = [c for c in checks if not c.ok]
        out.checks_failed += len(bad)
        out.failures.extend(c.label for c in bad)
        if any(not c.statistical for c in bad):
            out.requests_failed += 1
    return out


def _out_of_table(caught) -> int:
    # sample_mu reports draws beyond its table only through this warning:
    # "sample_mu(N=..): K of COUNT draws fell beyond the tabled mass; ..."
    total = 0
    for w in caught:
        text = str(w.message)
        if text.startswith("sample_mu(") and " of " in text:
            total += int(text.split(": ", 1)[1].split(" of ", 1)[0])
    return total


# --- law --------------------------------------------------------------------


def law(seed: int, smoke: bool) -> list:
    """N = 2..20 at one table length; the seed is unused."""
    del seed
    max_ell = 40 if smoke else LAW_MAX_ELL
    Ns = range(2, 5) if smoke else range(2, 21)
    requests = []
    for N in Ns:
        requests += _law_group(N, max_ell)
    return requests


def _law_group(N: int, L: int) -> list:
    from chebprob import probnum

    got = {}

    def keep(name, checks):
        def check(table):
            got[name] = table
            return checks(table)
        return check

    def series_checks(t):
        return _exact_table_checks("series", t, N, L)

    def trig_checks(t):
        exact = got["series"].values
        worst = max(abs(float(a) - b) for a, b in zip(exact, t.values))
        return [
            Check("trig shape", t.N == N and len(t.values) == L + 1),
            Check(f"trig within {LAW_TOL} of series N={N}", worst <= LAW_TOL),
        ]

    def catalan_checks(t):
        return _exact_table_checks("catalan", t, N, L) + [
            Check(f"catalan == series N={N}", t.values == got["series"].values)
        ]

    def crossval_checks(report):
        return [
            Check(
                f"cross_validate N={N}",
                report.indices_checked == L + 1
                and report.max_trig_deviation <= LAW_TOL,
            )
        ]

    def tail_checks(tail):
        gap = 1 - sum(got["series"].values)
        below = math.nextafter(tail, -math.inf)
        return [
            Check(
                f"tail_mass is the exact gap rounded up N={N}",
                Fraction(tail) >= gap and Fraction(below) < gap,
            )
        ]

    return [
        Request("probnum.probnum_series",
                lambda: probnum.probnum_series(N, L), keep("series", series_checks)),
        Request("probnum.probnum_trig",
                lambda: probnum.probnum_trig(N, L), trig_checks),
        Request("probnum.catalan_table",
                lambda: probnum.catalan_table(N, L), catalan_checks),
        Request("probnum.cross_validate",
                lambda: probnum.cross_validate(N, L, LAW_TOL), crossval_checks),
        Request("probnum.tail_mass",
                lambda: probnum.tail_mass(N, L), tail_checks),
    ]


def _exact_table_checks(name: str, t, N: int, L: int) -> list:
    values = t.values
    on = [ell >= N and (ell - N) % 2 == 0 for ell in range(len(values))]
    return [
        Check(f"{name} shape N={N}", t.N == N and len(values) == L + 1),
        Check(f"{name} zero off support N={N}",
              all(v == 0 for v, s in zip(values, on) if not s)),
        Check(f"{name} nonnegative N={N}", all(v >= 0 for v in values)),
        Check(f"{name} partial sum <= 1 N={N}", sum(values) <= 1),
        Check(
            f"{name} denominators divide 2^ell N={N}",
            all(_divides_power_of_two(v.denominator, ell)
                for ell, v in enumerate(values)),
        ),
    ]


def _divides_power_of_two(den: int, ell: int) -> bool:
    return den & (den - 1) == 0 and den.bit_length() - 1 <= ell


# --- identity ---------------------------------------------------------------


def identity_points(seed: int) -> list:
    """0, 1/2 and 1, plus two distinct small-height rationals in [-1, 1]
    drawn from the seed."""
    rng = random.Random(seed)
    points = [Fraction(0), Fraction(1, 2), Fraction(1)]
    while len(points) < 5:
        q = rng.randint(3, 9)
        x = Fraction(rng.randint(-q, q), q)
        if x not in points and x != -1 and x != Fraction(-1, 2):
            points.append(x)
    return points


def identity(seed: int, smoke: bool) -> list:
    from chebprob import eulerpoly, identities

    points = identity_points(seed)
    Ns = (2, 3) if smoke else (2, 3, 4)
    orders = range(3) if smoke else range(7)
    requests = []
    for N in Ns:
        for n in orders:
            for x in points:
                requests.append(_reconstruct_request(identities, n, N, x))
    for N in Ns:
        for n in orders:
            requests.append(_expectation_request(identities, n, N))
    dual_n = range(4) if smoke else range(13)
    dual_p = range(1, 4) if smoke else range(1, 21)
    for n in dual_n:
        for p in dual_p:
            requests += _dual_euler_requests(eulerpoly, n, p)
    for N in range(1, 4 if smoke else 9):
        requests.append(
            Request("identities.catalan_prefix_check",
                    lambda N=N: identities.catalan_prefix_check(N),
                    lambda r, N=N: [Check(f"catalan prefix N={N}",
                                          r.ok and r.mismatch_ell == 3 * N)])
        )
    return requests


def _reconstruct_request(identities, n: int, N: int, x: Fraction) -> Request:
    def check(r):
        return [
            Check(f"reconstruct n={n} N={N} x={x} within tol",
                  abs(r.partial_value - r.target) <= Fraction(IDENTITY_TOL)),
            Check(f"reconstruct n={n} x={x} target is E_n(x)",
                  r.target == _horner(euler_coefficients(n), x)),
        ]

    return Request("identities.reconstruct_euler",
                   lambda: identities.reconstruct_euler(n, N, x, IDENTITY_TOL),
                   check)


def _expectation_request(identities, n: int, N: int) -> Request:
    return Request(
        "identities.expectation_form_check",
        lambda: identities.expectation_form_check(n, N, EXPECTATION_TOL),
        lambda d: [Check(f"expectation form n={n} N={N}",
                         0 <= d <= Fraction(EXPECTATION_TOL))],
    )


def _dual_euler_requests(eulerpoly, n: int, p: int) -> list:
    got = {}

    def keep(poly):
        got["recursive"] = poly
        return [Check(f"E_{n}^({p}) recursive is monic of degree n",
                      poly.degree == n and poly.coefficients[-1] == 1)]

    def compare(poly):
        return [Check(f"E_{n}^({p}) series == recursive",
                      poly.coefficients == got["recursive"].coefficients)]

    return [
        Request("eulerpoly.gen_euler_recursive",
                lambda: eulerpoly.gen_euler_recursive(n, p), keep),
        Request("eulerpoly.gen_euler_series",
                lambda: eulerpoly.gen_euler_series(n, p), compare),
    ]


@functools.cache
def euler_coefficients(n: int) -> tuple:
    """E_n(x) by an oracle independent of chebprob: E_n' = n E_{n-1}, with
    the constant fixed by E_n(0) + E_n(1) = 0 for n >= 1."""
    if n == 0:
        return (Fraction(1),)
    integral = tuple(n * c / (j + 1) for j, c in enumerate(euler_coefficients(n - 1)))
    return (-sum(integral) / 2,) + integral


def _horner(coefficients, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coefficients):
        acc = acc * x + c
    return acc


# --- montecarlo -------------------------------------------------------------


def montecarlo(seed: int, pass_no: int, smoke: bool) -> list:
    """Every request draws from its own stream split from the seed and the
    pass number, so the statistical checks of a run's passes see fresh
    numbers and their failure rate averages over the passes, while the
    work of every pass is the same.  The evaluation point is fixed; the seed
    moves only the random numbers."""
    from chebprob import stochastic

    Ns = range(2, 4) if smoke else range(2, 8)
    rep_n = range(3) if smoke else range(9)
    gen_n = range(3) if smoke else range(7)
    gen_p = (1, 3) if smoke else (1, 3, 5)
    moments = range(3) if smoke else range(13)
    draws = 10**4 if smoke else REP_DRAWS
    count = 2 * len(Ns) + len(rep_n) + len(gen_n) * len(gen_p)
    streams = iter(stochastic.RandomStream(seed, pass_no).split(count))

    requests = []
    for N in Ns:
        mu_stream, kl_stream = next(streams), next(streams)
        requests.append(Request(
            "stochastic.sample_mu",
            lambda s=mu_stream, N=N: stochastic.sample_mu(s, N, MU_DRAWS),
            lambda a, N=N: [Check(
                f"sample_mu N={N} support and parity",
                len(a) == MU_DRAWS and int(a.min()) >= N
                and not ((a - N) % 2).any())],
        ))
        requests.append(Request(
            "stochastic.mc_klebanov",
            lambda s=kl_stream, N=N: stochastic.mc_klebanov(s, N, KLEBANOV_DRAWS),
            lambda r, N=N: _band_checks(f"klebanov N={N}", r, KLEBANOV_DRAWS),
        ))
    for n in rep_n:
        s = next(streams)
        requests.append(Request(
            "stochastic.mc_euler_poly",
            lambda s=s, n=n: stochastic.mc_euler_poly(s, n, MC_X, draws),
            lambda r, n=n: _band_checks(f"mc_euler_poly n={n} x={MC_X}", r, draws),
        ))
    for n in gen_n:
        for p in gen_p:
            s = next(streams)
            requests.append(Request(
                "stochastic.mc_gen_euler",
                lambda s=s, n=n, p=p: stochastic.mc_gen_euler(s, n, p, MC_X, draws),
                lambda r, n=n, p=p: _band_checks(
                    f"mc_gen_euler n={n} p={p} x={MC_X}", r, draws),
            ))
    for k in moments:
        tol = 1e-12 if k % 2 else 1e-10
        requests.append(Request(
            "stochastic.moment_integral_check",
            lambda k=k: stochastic.moment_integral_check(k),
            lambda d, k=k, tol=tol: [Check(f"quadrature k={k} <= {tol}", d <= tol)],
        ))
    return requests


def _band_checks(label: str, report, draws: int) -> list:
    return [
        Check(f"{label} report shape",
              report.sample_size == draws
              and all(math.isfinite(e.estimate) for e in report.entries)),
        Check(f"{label} within {BAND} SE", report.ok(band=BAND), statistical=True),
    ]
