"""Command-line front end.

Three subcommands wrap the library:

* ``probnums``   -- tables of the probability numbers, optionally
  cross-validated across all three computation methods.
* ``identity``   -- reconstruction of an Euler polynomial value from the
  weighted generalized-polynomial series.
* ``montecarlo`` -- seeded statistical checks (rep | gen | klebanov |
  integral).

Exit codes are a stable contract: 0 success, 1 check failure (a failed
cross-validation, an identity sum out of budget, a Monte Carlo report that
fails), 2 usage error (a DomainError), 3 internal fault (any other
exception; its traceback goes to stderr).  A handler only computes its
result, writes it through ``_emit`` and returns whether its check passed;
``main`` is the one place that maps outcomes to exit codes.  Flags are
checked for syntax only (``int``, ``float`` or a string): their ranges are
the library's, and so is every pass/fail bound, which no flag moves.
Every JSON document carries a ``schema_version`` field and is emitted with
sorted keys, so identical flags and seed produce byte-identical output; a
non-finite float is written as the string "Infinity", "-Infinity" or "NaN".
Rational inputs are written "a/b" or as integer literals; decimal literals
are rejected rather than silently rounded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import identities, probnum
from .exactnum import DomainError, float_or_inf, format_rational

SCHEMA_VERSION = 1
DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(DomainError):
    """A flag the command line cannot parse or is missing: exit code 2."""


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" or an integer literal; reject anything else (notably
    decimals, which would lose exactness)."""
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            return Fraction(int(parts[0]), int(parts[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid rational {text!r}: {exc}") from exc
    raise UsageError(f"invalid rational {text!r}: expected 'a' or 'a/b'")


def _csv_text(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer)  # RFC-4180 line endings
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(document: dict) -> str:
    document = {"schema_version": SCHEMA_VERSION, **_finite_json(document)}
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _finite_json(value):
    """``value`` with every non-finite float written as the string
    "Infinity", "-Infinity" or "NaN", which RFC 8259 JSON can hold."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else "Infinity" if value > 0 else "-Infinity"
    if isinstance(value, dict):
        return {key: _finite_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(item) for item in value]
    return value


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    # A path that cannot be opened is a bad flag; a failing write stays a fault.
    try:
        handle = open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"--out {out!r} cannot be opened: {exc.strerror}") from exc
    with handle:
        handle.write(text)


def _emit(args: argparse.Namespace, document, lines, rows=None) -> None:
    """Write a result in the one format asked for.  ``document``, ``lines``
    and ``rows`` build the JSON document, the pretty lines and the CSV rows
    on call, so the formats not asked for are never built."""
    if args.format == "csv":
        text = _csv_text(rows())
    elif args.format == "json":
        text = _json_text(document())
    else:
        text = "\n".join(lines()) + "\n"
    _write(text, args.out)


def cmd_probnums(args: argparse.Namespace) -> bool:
    report = None
    if args.method == "all":
        report = probnum.cross_validate(args.N, args.max_ell)
    build = {"trig": probnum.probnum_trig, "catalan": probnum.catalan_table}
    table = build.get(args.method, probnum.probnum_series)(args.N, args.max_ell)

    def document():
        document = table.json_dict()
        if report is not None:
            document["cross_validation"] = report.json_dict()
        return document

    def lines():
        yield f"probability numbers  N={table.N}  method={table.method}"
        for ell, exact, value in table.rows():
            exact_text = exact if exact is not None else "-"
            yield f"  ell={ell:<4d} exact={exact_text:<24s} float={value:.12g}"
        yield f"  tail bound beyond ell={table.max_ell}: {table.tail_bound:.6e}"
        if report is not None:
            yield f"  max trig deviation: {report.max_trig_deviation:.6e}"

    _emit(args, document, lines, table.csv_rows)
    if args.format == "csv" and report is not None:
        print(f"max trig deviation: {report.max_trig_deviation:.6e}", file=sys.stderr)
    return True


def cmd_identity(args: argparse.Namespace) -> bool:
    x = parse_rational(args.x)
    result = identities.reconstruct_euler(args.n, args.N, x, args.tol)

    def lines():
        return [
            f"reconstruction of E_{result.n}(x) at x={format_rational(result.x)} "
            f"with N={result.N}",
            f"  terms used        : {result.terms_used}",
            f"  partial value     : {format_rational(result.partial_value)}"
            f" ({float_or_inf(result.partial_value):.12g})",
            f"  target            : {format_rational(result.target)}"
            f" ({float_or_inf(result.target):.12g})",
            f"  abs error         : {result.abs_error:.6e} (tol {args.tol:.1e})",
            f"  tail estimate     : {result.tail_estimate:.6e}",
            f"  first small term  : {result.first_small_term_k}",
        ]

    _emit(
        args, lambda: {**result.json_dict(), "tol": args.tol, "converged": True}, lines
    )
    return True


def cmd_montecarlo(args: argparse.Namespace) -> bool:
    # numpy loads here, so the exact subcommands never pay for it.
    from . import stochastic

    if args.kind == "integral":
        deviation = stochastic.moment_integral_check(args.k)
        tolerance = stochastic.INTEGRAL_TOL[args.k % 2]
        passed = deviation <= tolerance

        def fields():
            return {"k": args.k, "deviation": deviation, "tolerance": tolerance}

        def lines():
            yield (f"moment integral k={args.k}: deviation {deviation:.3e} "
                   f"(tolerance {tolerance:.1e}) -> {'ok' if passed else 'FAIL'}")
    else:
        if args.kind != "klebanov" and args.x is None:
            raise UsageError(f"--x is required for kind {args.kind!r}")
        stream = stochastic.RandomStream(args.seed)
        if args.kind == "rep":
            x = parse_rational(args.x)
            report = stochastic.mc_euler_poly(stream, args.n, x, args.samples)
            params = {"n": args.n, "x": format_rational(x)}
        elif args.kind == "gen":
            x = parse_rational(args.x)
            report = stochastic.mc_gen_euler(stream, args.n, args.p, x, args.samples)
            params = {"n": args.n, "p": args.p, "x": format_rational(x)}
        else:
            report = stochastic.mc_klebanov(stream, args.N, args.samples)
            params = {"N": args.N}
        band = stochastic.DEFAULT_BAND
        passed = report.ok()

        def fields():
            return {"params": params, "seed": args.seed, "band": band,
                    **report.json_dict()}

        def lines():
            yield (f"monte carlo {args.kind}  params={params}"
                   f"  samples={report.sample_size}  seed={args.seed}")
            for entry in report.entries:
                yield (f"  {entry.label:<8s} estimate={entry.estimate: .8f}"
                       f"  reference={entry.reference: .8f}  SE={entry.std_error:.3e}"
                       f"  deviation={entry.standardized:.2f} SE")
            for key, value in report.extras.items():
                yield f"  {key}: {value:.6g}"
            yield f"  band: {band} SE -> {'ok' if passed else 'FAIL'}"

    _emit(args, lambda: {"kind": args.kind, "passed": passed, **fields()}, lines)
    return passed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chebprob",
        description=(
            "Probability numbers of reciprocal Chebyshev series, Euler "
            "polynomial identities, and seeded Monte Carlo checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tab = sub.add_parser("probnums", help="emit a probability-number table")
    p_tab.add_argument("--N", type=int, required=True)
    p_tab.add_argument("--max-ell", dest="max_ell", type=int, required=True)
    p_tab.add_argument(
        "--method",
        choices=["series", "trig", "catalan", "all"],
        default="series",
        help="computation method; 'all' cross-validates the three",
    )
    p_tab.add_argument("--format", choices=["csv", "json", "pretty"], default="pretty")
    p_tab.add_argument("--out", default=None, help="write output to a file")
    p_tab.set_defaults(handler=cmd_probnums)

    p_id = sub.add_parser("identity", help="reconstruct E_n(x) from the weighted series")
    p_id.add_argument("--n", type=int, required=True)
    p_id.add_argument("--N", type=int, required=True)
    p_id.add_argument("--x", required=True, help="rational, e.g. 1/4 or -2/3 or 5")
    p_id.add_argument("--tol", type=float, default=1e-9)
    p_id.add_argument("--format", choices=["json", "pretty"], default="pretty")
    p_id.add_argument("--out", default=None)
    p_id.set_defaults(handler=cmd_identity)

    p_mc = sub.add_parser("montecarlo", help="seeded statistical checks")
    p_mc.add_argument("kind", choices=["rep", "gen", "klebanov", "integral"])
    p_mc.add_argument("--n", type=int, default=1)
    p_mc.add_argument("--p", type=int, default=1)
    p_mc.add_argument("--N", type=int, default=2)
    p_mc.add_argument("--x", default=None, help="rational evaluation point")
    p_mc.add_argument("--k", type=int, default=0,
                      help="moment order for 'integral'; orders beyond the "
                           "reach of its 1e-10 bound are refused")
    p_mc.add_argument("--samples", type=int, default=10**5)
    p_mc.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_mc.add_argument("--format", choices=["json", "pretty"], default="pretty")
    p_mc.add_argument("--out", default=None)
    p_mc.set_defaults(handler=cmd_montecarlo)

    return parser


def _merge_rational_flags(argv: list[str]) -> list[str]:
    # Rational values may start with '-'; join them to their flag so that
    # argparse does not mistake "-2/3" for an option.
    merged = []
    i = 0
    while i < len(argv):
        if argv[i] == "--x" and i + 1 < len(argv):
            merged.append(f"--x={argv[i + 1]}")
            i += 2
        else:
            merged.append(argv[i])
            i += 1
    return merged


def main(argv: list[str] | None = None) -> int:
    # Exact values print in full, past the 4300-digit int-to-str limit (3.10.7+).
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_rational_flags(list(argv)))
    # The one map from outcomes to exit codes.  Exit 1 means only a failed
    # check and exit 2 only a DomainError: any other exception is a fault of
    # the program and must pass for neither.
    try:
        return EXIT_OK if args.handler(args) else EXIT_CHECK_FAILED
    except (probnum.CrossValidationError, identities.ConvergenceError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # imported on a fault only: every command pays its import

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
