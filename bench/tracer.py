"""Spans and counts at chebprob's layer boundaries, installed from outside.

The tracer replaces module attributes through which the layers call each
other (``identities.probnum_series``, ``stochastic.probnum_series``,
``probnum.ballot_number``, ``TruncatedSeries.reciprocal`` ...) with wrappers.
Every binding of a wrapped function in every loaded chebprob module is
replaced, so a call is seen whichever module makes it.  Nothing under
``src/`` is edited.

Spans (name, start, end, parent) are kept in memory and written out when the
pass ends.  Hot primitives (``binomial``, ``ballot_number``) are count-only.
A layer's self time is its spans' duration minus the part covered by their
child spans.

``PER_LAYER`` lists every per-layer metric with its unit and the end-to-end
metric it is predicted to move, on which workload; ``BENCHMARK.json`` lists
the same names.  law, identity and montecarlo are the parts of the
``library`` workload: a prediction for one of them is a prediction for that
part's figures in the library summary, and for ``library`` as a whole.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# name, unit, better, prediction
PER_LAYER = [
    ("import.chebprob_s", "s", "lower",
     "self import time of chebprob modules -> setup_s on law and identity, req_p50_ms on cli"),
    ("import.numpy_scipy_s", "s", "lower",
     "numpy/scipy import time under chebprob -> setup_s on law and identity, req_p50_ms on cli"),
    ("exactnum.ballot_calls", "count", "lower", "-> wall_s on law"),
    ("exactnum.binomial_calls", "count", "lower", "-> wall_s on identity"),
    ("series.reciprocal_calls", "count", "lower",
     "-> wall_s on identity and montecarlo, little effect on law"),
    ("series.reciprocal_s", "s", "lower",
     "-> wall_s on identity and montecarlo, little effect on law"),
    ("series.reciprocal_coeffs", "count", "lower",
     "-> wall_s on identity and montecarlo, little effect on law"),
    ("chebyshev.reversed_T_s", "s", "lower", "predicted negligible everywhere"),
    ("probnum.series_calls", "count", "lower",
     "-> wall_s and req_tail_ms on identity, wall_s on montecarlo"),
    ("probnum.series_s", "s", "lower",
     "-> wall_s and req_tail_ms on identity, wall_s on montecarlo"),
    ("probnum.series_coeffs", "count", "lower",
     "sum of max_ell+1 -> wall_s and req_tail_ms on identity, wall_s on montecarlo"),
    ("probnum.series_useful_ratio", "ratio", "higher",
     "distinct (N, ell) coefficients / series_coeffs -> wall_s on identity"),
    ("probnum.catalan_values", "count", "lower", "-> wall_s and req_tail_ms on law"),
    ("probnum.catalan_s", "s", "lower", "-> wall_s and req_tail_ms on law"),
    ("probnum.trig_s", "s", "lower", "-> wall_s and req_tail_ms on law"),
    ("probnum.crossval_self_s", "s", "lower", "-> wall_s and req_tail_ms on law"),
    ("probnum.max_den_bits", "bits", "lower",
     "largest denominator in the exact tables; explains catalan_s and series_s"),
    ("eulerpoly.zero_row_calls", "count", "lower", "-> wall_s and req_tail_ms on identity"),
    ("eulerpoly.zero_row_s", "s", "lower", "-> wall_s and req_tail_ms on identity"),
    ("eulerpoly.max_order", "count", "lower", "-> wall_s and req_tail_ms on identity"),
    ("eulerpoly.poly_s", "s", "lower", "-> wall_s and req_tail_ms on identity"),
    ("identities.reconstruct_calls", "count", "lower", "-> wall_s on identity"),
    ("identities.reconstruct_self_s", "s", "lower",
     "span minus probnum and eulerpoly children -> wall_s on identity"),
    ("identities.terms_total", "count", "lower", "sum of terms_used -> wall_s on identity"),
    ("identities.expectation_self_s", "s", "lower", "-> wall_s on identity"),
    ("stochastic.mu_table_s", "s", "lower", "-> wall_s and req_tail_ms on montecarlo"),
    ("stochastic.mu_table_max_ell", "count", "lower",
     "probnum_series calls through stochastic -> wall_s and req_tail_ms on montecarlo"),
    ("stochastic.sample_sech_s", "s", "lower", "-> wall_s and peak_rss_mb on montecarlo"),
    ("stochastic.draws", "count", "lower", "-> wall_s and peak_rss_mb on montecarlo"),
    ("stochastic.mc_self_s", "s", "lower", "-> wall_s and peak_rss_mb on montecarlo"),
    ("stochastic.quad_s", "s", "lower", "predicted small"),
    ("stochastic.out_of_table_draws", "count", "lower",
     "RuntimeWarning counts from sample_mu, captured from outside"),
    ("cli.process_s", "s", "lower", "-> req_p50_ms on cli"),
    ("cli.import_s", "s", "lower", "-> req_p50_ms on cli"),
    ("cli.handler_s", "s", "lower", "argparse, dispatch and handlers, self -> req_p50_ms on cli"),
    ("cli.format_s", "s", "lower", "-> req_p50_ms on cli"),
    ("cli.output_bytes", "bytes", "lower", "-> req_p50_ms on cli"),
    ("trace.overhead_frac", "ratio", "lower", "traced / untraced wall_s - 1"),
    ("host.calib_s", "s", "lower",
     "fixed pure-Python loop beside each pass; flags host drift, never rescales"),
]

_POLY = ("eulerpoly.euler_poly", "eulerpoly.gen_euler_recursive",
         "eulerpoly.gen_euler_series", "eulerpoly.eval_poly")
_MC = ("stochastic.mc_euler_poly", "stochastic.mc_gen_euler", "stochastic.mc_klebanov")
_FORMAT = ("cli._write", "cli._json_text", "cli._csv_text", "probnum.ProbTable.rows",
           "probnum.ProbTable.json_dict", "probnum.ProbTable.csv_rows",
           "stochastic.MomentReport.json_dict",
           "identities.ReconstructionResult.json_dict")
_HANDLER = ("cli.main", "cli.cmd_probnums", "cli.cmd_identity", "cli.cmd_montecarlo")

# Raw figures that merge by maximum rather than by sum.
_MAXIMA = ("probnum.max_den_bits", "eulerpoly.max_order", "stochastic.mu_table_max_ell")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []  # [name index, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self.series_max_ell: dict[int, int] = {}
        self._tables: list = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        span = len(self.spans)
        self.spans.append([index, time.perf_counter(), 0.0, parent])
        self._stack.append(span)
        return span

    def _close(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter()
        self._stack.pop()

    def begin_request(self, op: str) -> None:
        self._open("request:" + op)

    def end_request(self) -> None:
        self._close(self._stack[-1])

    def span_wrapper(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary of the loaded chebprob modules."""
        from chebprob import (chebyshev, eulerpoly, exactnum, identities,
                              probnum, series, stochastic)

        def series_after(table, *args):
            N, max_ell = table.N, table.max_ell
            self.counts["probnum.series_coeffs"] += max_ell + 1
            self.series_max_ell[N] = max(self.series_max_ell.get(N, 0), max_ell)
            self._tables.append(table)

        def sum_arg(key, position):
            def after(result, *args):
                self.counts[key] += args[position]
            return after

        def terms_after(result, *args, **kwargs):
            self.counts["identities.terms_total"] += result.terms_used

        def order_after(result, *args):
            self.maxima["eulerpoly.max_order"] = max(
                self.maxima["eulerpoly.max_order"], args[0])

        def coeffs_after(result, *args):
            self.counts["series.reciprocal_coeffs"] += len(result.coefficients)

        for fn, name in ((exactnum.binomial, "exactnum.binomial_calls"),
                         (exactnum.ballot_number, "exactnum.ballot_calls")):
            self._replace_everywhere(fn, self.count_wrapper(name, fn))

        series_fn = probnum.probnum_series
        self._replace_everywhere(series_fn, self.span_wrapper(
            "probnum.probnum_series", series_fn, series_after))
        # The binding stochastic uses also records how far its tables grow.
        traced_series = stochastic.probnum_series

        def mu_series(*args):
            table = traced_series(*args)
            key = "stochastic.mu_table_max_ell"
            self.maxima[key] = max(self.maxima[key], table.max_ell)
            return table

        stochastic.probnum_series = mu_series

        spans = [
            (chebyshev.reversed_T, "chebyshev.reversed_T", None),
            (probnum.probnum_catalan, "probnum.probnum_catalan", None),
            (probnum.trig_value, "probnum.trig_value", None),
            (probnum.cross_validate, "probnum.cross_validate", None),
            (eulerpoly.gen_euler_zero, "eulerpoly.gen_euler_zero", order_after),
            (eulerpoly.euler_poly, "eulerpoly.euler_poly", None),
            (eulerpoly.gen_euler_recursive, "eulerpoly.gen_euler_recursive", None),
            (eulerpoly.gen_euler_series, "eulerpoly.gen_euler_series", None),
            (eulerpoly.eval_poly, "eulerpoly.eval_poly", None),
            (identities.reconstruct_euler, "identities.reconstruct_euler", terms_after),
            (identities.expectation_form_check, "identities.expectation_form_check", None),
            (stochastic._mu_table, "stochastic._mu_table", None),
            (stochastic.sample_sech, "stochastic.sample_sech",
             sum_arg("stochastic.draws", 1)),
            (stochastic.sample_mu, "stochastic.sample_mu",
             sum_arg("stochastic.draws", 2)),
            (stochastic.mc_euler_poly, "stochastic.mc_euler_poly", None),
            (stochastic.mc_gen_euler, "stochastic.mc_gen_euler", None),
            (stochastic.mc_klebanov, "stochastic.mc_klebanov", None),
            (stochastic.moment_integral_check, "stochastic.moment_integral_check", None),
        ]
        for fn, name, after in spans:
            self._replace_everywhere(fn, self.span_wrapper(name, fn, after))

        methods = [
            (series.TruncatedSeries, "reciprocal", "series.TruncatedSeries.reciprocal",
             coeffs_after),
            (probnum.ProbTable, "rows", "probnum.ProbTable.rows", None),
            (probnum.ProbTable, "json_dict", "probnum.ProbTable.json_dict", None),
            (probnum.ProbTable, "csv_rows", "probnum.ProbTable.csv_rows", None),
            (stochastic.MomentReport, "json_dict", "stochastic.MomentReport.json_dict", None),
            (identities.ReconstructionResult, "json_dict",
             "identities.ReconstructionResult.json_dict", None),
        ]
        for owner, attr, name, after in methods:
            setattr(owner, attr, self.span_wrapper(name, getattr(owner, attr), after))

        cli = sys.modules.get("chebprob.cli")
        if cli is not None:
            for attr in ("main", "cmd_probnums", "cmd_identity", "cmd_montecarlo",
                         "_write", "_json_text", "_csv_text"):
                setattr(cli, attr, self.span_wrapper(f"cli.{attr}", getattr(cli, attr)))

    @staticmethod
    def _replace_everywhere(fn, wrapper) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "chebprob"
                                      or module_name.startswith("chebprob.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    # -- reduction ----------------------------------------------------------

    def raw(self, out_of_table_draws: int = 0) -> dict:
        """Per-layer figures of this process, before the cross-process merge."""
        names = self.names
        total = Counter()
        own = Counter()
        calls = Counter()
        child_time = [0.0] * len(self.spans)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        outer_format = 0.0
        for i, (index, start, end, parent) in enumerate(self.spans):
            name = names[index]
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
            if name in _FORMAT and (parent < 0 or names[self.spans[parent][0]] not in _FORMAT):
                outer_format += end - start

        max_den = 0
        for table in self._tables:
            for v in table.values:
                max_den = max(max_den, v.denominator)

        return {
            "exactnum.ballot_calls": self.counts["exactnum.ballot_calls"],
            "exactnum.binomial_calls": self.counts["exactnum.binomial_calls"],
            "series.reciprocal_calls": calls["series.TruncatedSeries.reciprocal"],
            "series.reciprocal_s": total["series.TruncatedSeries.reciprocal"],
            "series.reciprocal_coeffs": self.counts["series.reciprocal_coeffs"],
            "chebyshev.reversed_T_s": total["chebyshev.reversed_T"],
            "probnum.series_calls": calls["probnum.probnum_series"],
            "probnum.series_s": total["probnum.probnum_series"],
            "probnum.series_coeffs": self.counts["probnum.series_coeffs"],
            "probnum.series_distinct": sum(m + 1 for m in self.series_max_ell.values()),
            "probnum.catalan_values": calls["probnum.probnum_catalan"],
            "probnum.catalan_s": total["probnum.probnum_catalan"],
            "probnum.trig_s": total["probnum.trig_value"],
            "probnum.crossval_self_s": own["probnum.cross_validate"],
            "probnum.max_den_bits": max_den.bit_length(),
            "eulerpoly.zero_row_calls": calls["eulerpoly.gen_euler_zero"],
            "eulerpoly.zero_row_s": total["eulerpoly.gen_euler_zero"],
            "eulerpoly.max_order": self.maxima["eulerpoly.max_order"],
            "eulerpoly.poly_s": sum(own[n] for n in _POLY),
            "identities.reconstruct_calls": calls["identities.reconstruct_euler"],
            "identities.reconstruct_self_s": own["identities.reconstruct_euler"],
            "identities.terms_total": self.counts["identities.terms_total"],
            "identities.expectation_self_s": own["identities.expectation_form_check"],
            "stochastic.mu_table_s": total["stochastic._mu_table"],
            "stochastic.mu_table_max_ell": self.maxima["stochastic.mu_table_max_ell"],
            "stochastic.sample_sech_s": total["stochastic.sample_sech"],
            "stochastic.draws": self.counts["stochastic.draws"],
            "stochastic.mc_self_s": sum(own[n] for n in _MC),
            "stochastic.quad_s": total["stochastic.moment_integral_check"],
            "stochastic.out_of_table_draws": out_of_table_draws,
            "cli.handler_s": sum(own[n] for n in _HANDLER),
            "cli.format_s": outer_format,
        }

    def span_dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent"],
                "names": self.names, "spans": self.spans}


def merge(raws: list) -> dict:
    """Combine the raw figures of several processes (the commands of a cli
    pass): maxima by maximum, everything else by sum."""
    out: dict = {}
    for raw in raws:
        for key, value in raw.items():
            if key in _MAXIMA:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out


def finalize(raw: dict) -> dict:
    """Raw figures -> the per-layer metrics (without the unit)."""
    out = {k: v for k, v in raw.items() if k != "probnum.series_distinct"}
    coeffs = raw.get("probnum.series_coeffs", 0)
    out["probnum.series_useful_ratio"] = (
        raw.get("probnum.series_distinct", 0) / coeffs if coeffs else 0.0)
    return out


def parse_importtime(stderr: str) -> dict:
    """Import figures from ``python -X importtime`` output: chebprob's own
    module self time, numpy/scipy cumulative time (outermost entries only),
    and the cumulative time of the top-level chebprob imports."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, name_field = line[len("import time:"):].split("|", 2)
        if not self_us.strip().isdigit():
            continue  # the header line
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        entries.append((depth, name, int(self_us), int(cumulative_us)))

    def is_heavy(name):
        return name.split(".", 1)[0] in ("numpy", "scipy")

    def is_own(name):
        return name.split(".", 1)[0] == "chebprob"

    own_self = heavy = top_own = 0
    stack: list = []  # ancestors while walking parents before children
    for depth, name, self_us, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if is_own(name):
            own_self += self_us
            if depth == 0:
                top_own += cumulative_us
        if is_heavy(name) and not any(is_heavy(n) for _, n in stack):
            heavy += cumulative_us
        stack.append((depth, name))
    return {"import.chebprob_s": own_self / 1e6,
            "import.numpy_scipy_s": heavy / 1e6,
            "cli.import_s": top_own / 1e6}
