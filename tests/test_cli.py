"""CLI contract: flags, formats, exit codes, and output determinism."""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import chebprob

from chebprob import identities, probnum, stochastic
from chebprob.cli import _json_text, build_parser, main, parse_rational, UsageError
from chebprob.exactnum import DomainError, format_rational

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(autouse=True)
def restore_int_str_limit():
    """main lifts the interpreter's int-to-str digit limit for its process;
    put it back so that every test starts from the interpreter's default."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


class TestParseRational:
    def test_accepts_fraction_and_integer(self):
        from fractions import Fraction

        assert parse_rational("1/4") == Fraction(1, 4)
        assert parse_rational("-2/3") == Fraction(-2, 3)
        assert parse_rational("5") == 5

    def test_rejects_decimals(self):
        with pytest.raises(UsageError):
            parse_rational("0.5")

    def test_rejects_garbage(self):
        with pytest.raises(UsageError):
            parse_rational("a/b")
        with pytest.raises(UsageError):
            parse_rational("1/0")


class TestProbnums:
    def test_csv_output(self, capsys):
        code, out, err = run(
            capsys, "probnums", "--N", "2", "--max-ell", "10",
            "--method", "all", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ell,exact,float"
        assert lines[1] == "2,1/2,0.5"
        assert lines[2] == "4,1/4,0.25"
        assert "max trig deviation" in err

    def test_values_past_the_int_str_limit(self, capsys):
        # The denominators reach 2^ell, 4515 digits at ell = 15000: past the
        # interpreter's 4300-digit int-to-str limit.
        code, out, _ = run(
            capsys, "probnums", "--N", "3", "--max-ell", "15000", "--format", "csv",
        )
        assert code == 0
        ell, exact, _ = out.splitlines()[-1].split(",")
        assert ell == "14999"
        assert exact == f"{Fraction(probnum.probnum_series(3, 15000).values[14999])}"
        assert len(exact.split("/")[1]) > 4300

    def test_cross_validation_run(self, capsys):
        code, out, _ = run(
            capsys, "probnums", "--N", "7", "--max-ell", "60", "--method", "all",
        )
        assert code == 0
        assert "max trig deviation" in out

    def test_json_document(self, capsys):
        code, out, _ = run(
            capsys, "probnums", "--N", "3", "--max-ell", "9",
            "--method", "all", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["schema_version"] == 1
        assert document["method"] == "series"
        assert document["cross_validation"]["max_trig_deviation"] <= 1e-10

    def test_trig_table_json(self, capsys):
        code, out, _ = run(
            capsys, "probnums", "--N", "2", "--max-ell", "8",
            "--method", "trig", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["values"][0]["exact"] is None

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "probnums", "--N", "2", "--max-ell", "6",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().splitlines()[1] == "2,1/2,0.5"

    @pytest.mark.parametrize("where", ["missing/table.csv", "."])
    def test_output_file_that_cannot_be_opened(self, capsys, tmp_path, where):
        # A missing directory or a directory is a bad --out, not a fault.
        target = tmp_path / where
        code, out, err = run(
            capsys, "probnums", "--N", "2", "--max-ell", "4", "--out", str(target),
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --out ")
        assert "Traceback" not in err


class TestIdentity:
    def test_linear(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--n", "1", "--N", "2", "--x", "1/4",
            "--tol", "1e-9",
        )
        assert code == 0
        assert "-1/4" in out

    def test_constant(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--n", "0", "--N", "3", "--x", "5",
            "--tol", "1e-9", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["target"] == "1"
        assert document["converged"] is True

    def test_high_degree(self, capsys):
        code, out, _ = run(
            capsys, "identity", "--n", "6", "--N", "5", "--x", "-2/3",
            "--tol", "1e-9", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["abs_error"] <= 1e-9

    def test_budget_failure_exit_code(self, capsys, monkeypatch):
        # Exit 1 is a wrong library: here, a term budget too small for a true
        # identity.
        monkeypatch.setattr(identities, "_default_max_k", lambda *args: 25)
        code, _, err = run(
            capsys, "identity", "--n", "4", "--N", "5", "--x", "1/3",
            "--tol", "1e-9",
        )
        assert code == 1
        assert "achieved error" in err

    def test_default_budget_follows_the_inputs(self, capsys, monkeypatch):
        # The fixed 2000-term budget reported this true identity as a failure;
        # a budget short of k = 3316 still ends the sum as a failed check.
        argv = ("identity", "--n", "8", "--N", "10", "--x", "3/7", "--tol", "1e-12")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "terms used        : 1654" in out
        monkeypatch.setattr(identities, "_default_max_k", lambda *args: 100)
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "by k=100, the end of the term budget" in err

    @pytest.mark.parametrize("argv, k", [
        (("--n", "8", "--N", "10", "--x", "100000", "--tol", "1e-9"), 9128),
        (("--n", "8", "--N", "10", "--x", "1000000", "--tol", "1e-9"), 10614),
        (("--n", "1", "--N", "2", "--x", str(10**400), "--tol", "1e-9"), 2718),
    ], ids=["x-10^5", "x-10^6", "x-10^400"])
    def test_default_budget_follows_x(self, capsys, argv, k):
        # These true identities converge past a budget blind to |x|.
        code, out, _ = run(capsys, "identity", *argv, "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert int(argv[3]) + 2 * (document["terms_used"] - 1) == k

    @pytest.mark.parametrize("N", [12, 20, 30])
    def test_constant_within_the_default_budget(self, capsys, N):
        # The weights sum to one, so E_0 = 1 holds for every N; a budget
        # blind to the geometric tail's factor 1/(1 - cos(pi/2N)) stopped
        # these sums just short of the tolerance and exited 1.
        code, out, _ = run(
            capsys, "identity", "--n", "0", "--N", str(N), "--x", "1/2",
            "--tol", "1e-9", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["abs_error"] <= 1e-9

    def test_values_past_the_int_str_limit(self, capsys):
        # The partial value's denominator is 2^(n+k) q^n, k = 26844: past the
        # interpreter's 4300-digit int-to-str limit.
        code, out, _ = run(
            capsys, "identity", "--n", "2", "--N", "30", "--x", "1/3",
            "--tol", "1e-15", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        partial = document["partial_value"]
        assert max(len(part) for part in partial.split("/")) > 4300
        assert document["target"] == "-2/9"
        assert abs(Fraction(partial) - Fraction(-2, 9)) <= Fraction(1e-15)

    @pytest.mark.parametrize("n, N, x, fmt", [
        (32, 1, 10**20, "json"),
        (8, 2, 10**49, "pretty"),
    ], ids=["N-1-json", "pretty"])
    def test_values_beyond_the_float_range(self, capsys, n, N, x, fmt):
        # The exact fields print in full; a float image past the float range
        # is an infinity.  Both ended in an OverflowError (exit 3): the
        # N = 1 sum's one term in the tail estimate, and the pretty line's
        # float of the partial value and of the target.  The N = 1 sum has
        # no tail (mu_1 is a point mass), so its estimate is 0, not inf.
        code, out, _ = run(
            capsys, "identity", "--n", str(n), "--N", str(N), "--x", str(x),
            "--format", fmt,
        )
        assert code == 0
        result = identities.reconstruct_euler(n, N, x, 1e-9)
        partial, target = (format_rational(result.partial_value),
                           format_rational(result.target))
        if fmt == "json":
            document = json.loads(out)
            assert (document["partial_value"], document["target"]) == (partial, target)
            assert document["tail_estimate"] == 0.0
        else:
            assert f"  partial value     : {partial} (inf)\n" in out
            assert f"  target            : {target} (inf)\n" in out

    def test_decimal_rejected(self, capsys):
        code, _, err = run(
            capsys, "identity", "--n", "1", "--N", "2", "--x", "0.25",
        )
        assert code == 2
        assert "invalid rational" in err


# The four exact README commands; their expected stdout is kept in golden/.
# The montecarlo commands are left out: numpy's vectorised tan and log may
# round differently from one CPU to another.
README_COMMANDS = [
    ("probnums_N2_csv",
     ("probnums", "--N", "2", "--max-ell", "10", "--method", "all", "--format", "csv")),
    ("probnums_N7_all", ("probnums", "--N", "7", "--max-ell", "60", "--method", "all")),
    ("identity_n1_N2", ("identity", "--n", "1", "--N", "2", "--x", "1/4", "--tol", "1e-9")),
    ("identity_n6_N5_json",
     ("identity", "--n", "6", "--N", "5", "--x", "-2/3", "--tol", "1e-9",
      "--format", "json")),
]


# Deeper commands whose stdout is kept in golden/: an identity of 8296 terms,
# whose sum runs far past the README examples, the README's identity whose
# term budget grows with |x|, and the walk's table of the law.
DEEP_COMMANDS = [
    ("identity_n12_N20_json",
     ("identity", "--n", "12", "--N", "20", "--x", "3/7", "--tol", "1e-12",
      "--format", "json")),
    # Converges at k = 9128 under a budget of 17715.
    ("identity_n8_N10_x100000_json",
     ("identity", "--n", "8", "--N", "10", "--x", "100000", "--tol", "1e-9",
      "--format", "json")),
    # The top degree: its difference table is seeded at orders -32..0 and
    # stepped to k = 8.
    ("identity_n32_N8_json",
     ("identity", "--n", "32", "--N", "8", "--x", "1/3", "--tol", "1e-6",
      "--format", "json")),
    # N = 1 at the top degree: odd N seeds at orders -33..-1, and the sum
    # stops at its one term.
    ("identity_n32_N1_x1e20_json",
     ("identity", "--n", "32", "--N", "1", "--x", "100000000000000000000",
      "--format", "json")),
    # Odd n and odd N: 367 terms.
    ("identity_n31_N3_json",
     ("identity", "--n", "31", "--N", "3", "--x", "5/2", "--tol", "1e-9",
      "--format", "json")),
    # The walk's table alone: exact values and their correctly rounded
    # floats, so no libm rounding enters it.
    ("probnums_N7_catalan_json",
     ("probnums", "--N", "7", "--max-ell", "60", "--method", "catalan",
      "--format", "json")),
]


class TestGolden:
    @pytest.mark.parametrize(
        "name, argv", README_COMMANDS, ids=[row[0] for row in README_COMMANDS]
    )
    def test_readme_command_stdout(self, capsys, name, argv):
        assert_golden(capsys, name, argv)

    @pytest.mark.parametrize(
        "name, argv", DEEP_COMMANDS, ids=[row[0] for row in DEEP_COMMANDS]
    )
    def test_deep_command_stdout(self, capsys, name, argv):
        assert_golden(capsys, name, argv)


def assert_golden(capsys, name, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / f"{name}.txt").read_bytes().decode("utf-8")


class TestInternalFault:
    def test_a_raising_handler_exits_3_with_its_traceback(self, capsys, monkeypatch):
        # Exit 1 means a failed check and 2 bad flags; a fault of the program
        # is neither.
        import chebprob.cli as cli_module

        def broken(args):
            raise ValueError("handler fault")

        monkeypatch.setattr(cli_module, "cmd_probnums", broken)
        code, out, err = run(capsys, "probnums", "--N", "2", "--max-ell", "4")
        assert code == cli_module.EXIT_INTERNAL == 3
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("ValueError: handler fault\n")


class TestCheckFailure:
    """A failed check is an exception that the handler lets through: main
    alone turns it into exit 1, its message on stderr and nothing on
    stdout."""

    def test_failed_cross_validation(self, capsys, monkeypatch):
        import chebprob.cli as cli_module

        error = probnum.CrossValidationError(7, 9, "series/trig", "deviation 1e-03")

        def disagree(*args):
            raise error

        monkeypatch.setattr(probnum, "cross_validate", disagree)
        argv = ("probnums", "--N", "7", "--max-ell", "60", "--method", "all")
        with pytest.raises(probnum.CrossValidationError):
            cli_module.cmd_probnums(build_parser().parse_args(argv))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"check failed: {error}\n"

    def test_identity_sum_out_of_budget(self, capsys, monkeypatch):
        import chebprob.cli as cli_module

        monkeypatch.setattr(identities, "_default_max_k", lambda *args: 25)
        argv = ("identity", "--n", "4", "--N", "5", "--x", "1/3")
        with pytest.raises(identities.ConvergenceError) as info:
            cli_module.cmd_identity(build_parser().parse_args(argv))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"check failed: {info.value}\n"


class TestMonteCarlo:
    def test_rep(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "rep", "--n", "1", "--x", "0",
            "--samples", "100000", "--seed", "7", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["passed"] is True
        real = document["entries"][0]
        assert abs(real["estimate"] + 0.5) < 0.01

    def test_integral(self, capsys):
        code, out, _ = run(capsys, "montecarlo", "integral", "--k", "0")
        assert code == 0
        assert "ok" in out

    def test_integral_json(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "integral", "--k", "4", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["deviation"] <= 1e-10

    def test_gen(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "gen", "--n", "1", "--p", "4", "--x", "0",
            "--samples", "50000", "--seed", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["entries"][0]["reference"] == -2.0

    def test_klebanov(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "klebanov", "--N", "2",
            "--samples", "100000", "--seed", "42", "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["passed"] is True
        assert document["extras"]["ks_pvalue"] > 0.01

    @pytest.mark.parametrize("x", [10**38, 10**36], ids=["estimate-inf", "se-inf"])
    def test_non_finite_report_fails(self, capsys, x):
        # An infinite estimate gave a NaN deviation and an infinite SE a zero
        # one, and both reports passed the band.
        code, out, _ = run(
            capsys, "montecarlo", "rep", "--n", "8", "--x", str(x),
            "--samples", "100000",
        )
        assert code == 1
        assert out.endswith("  band: 4.0 SE -> FAIL\n")

    def test_non_finite_figures_are_json_strings(self, capsys):
        # json.dumps wrote the bare tokens Infinity and NaN, which RFC 8259
        # JSON does not allow.
        code, out, _ = run(
            capsys, "montecarlo", "rep", "--n", "8", "--x", str(10**38),
            "--samples", "10000", "--format", "json",
        )
        assert code == 1

        def bare_token(token):
            raise AssertionError(f"bare {token} in the JSON output")

        document = json.loads(out, parse_constant=bare_token)
        assert [entry["std_error"] for entry in document["entries"]] == ["Infinity"] * 2
        assert document["passed"] is False

    def test_json_text_names_every_non_finite_float(self):
        text = _json_text({"a": [math.inf, (-math.inf, 0.5)], "b": {"c": math.nan}})
        assert json.loads(text) == {
            "schema_version": 1, "a": ["Infinity", ["-Infinity", 0.5]], "b": {"c": "NaN"},
        }

    def test_overflowing_reports_print_no_numpy_warnings(self):
        # Overflowing powers and reductions printed numpy's RuntimeWarning
        # lines, with numpy source paths, before the report's own FAIL line.
        proc = run_fresh(
            "import sys\n"
            "from chebprob.cli import main\n"
            f"codes = [main(['montecarlo', 'rep', '--n', '8', '--x', '{10**38}',\n"
            "                '--samples', '100000']),\n"
            f"         main(['montecarlo', 'gen', '--n', '6', '--p', '10', '--x', '{10**50}',\n"
            "                '--samples', '100000'])]\n"
            "assert codes == [1, 1], codes\n"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.count("band: 4.0 SE -> FAIL\n") == 2

    def test_rep_constant_real_part(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "rep", "--n", "1", "--x", "1/3",
            "--samples", "100000", "--seed", "7",
        )
        assert code == 0
        assert "-> ok" in out

    def test_missing_x_rejected(self, capsys):
        code, _, err = run(
            capsys, "montecarlo", "rep", "--n", "1", "--samples", "10000",
            "--seed", "1",
        )
        assert code == 2
        assert "--x" in err

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        # A ValueError from inside the library is a fault, not bad flags.
        import chebprob.stochastic as stochastic_module

        def broken(*args):
            raise ValueError("internal fault")

        monkeypatch.setattr(stochastic_module, "mc_klebanov", broken)
        code, out, err = run(capsys, "montecarlo", "klebanov", "--seed", "1")
        assert (code, out) == (3, "")
        assert "Traceback" in err and "ValueError: internal fault" in err

    def test_default_seed(self, capsys):
        code, out, _ = run(
            capsys, "montecarlo", "rep", "--n", "0", "--x", "0",
            "--samples", "10000", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["seed"] == 12345

    @pytest.mark.parametrize("argv", [
        ("montecarlo", "rep", "--n", "1", "--x", "0", "--band", "8"),
        ("montecarlo", "integral", "--k", "4", "--quad-tol", "1"),
        ("identity", "--n", "4", "--N", "5", "--x", "1/3", "--max-terms", "25"),
        ("probnums", "--N", "7", "--max-ell", "60", "--method", "all", "--tol", "1e-3"),
    ], ids=["band", "quad-tol", "max-terms", "probnums-tol"])
    def test_bounds_are_not_flags(self, capsys, argv):
        # A check's bound is the library's, for every command: no flag moves it.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("montecarlo", "integral", "--k", "4", "--samples", "5", "--seed", "3"),
        ("montecarlo", "rep", "--x", "0", "--p", "3"),
        ("montecarlo", "klebanov", "--x", "1/3"),
    ], ids=["integral-samples-seed", "rep-p", "klebanov-x"])
    def test_flags_the_kind_does_not_read(self, capsys, argv):
        # Each kind declares only its own flags: any other is refused, not dropped.
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


# (id, CLI arguments, the library call they reach with the CLI's defaults).
# Every range is the library's: the command line checks syntax only.
STREAM = stochastic.RandomStream(1)
BEYOND_FLOAT = 10**310
# float(10^300) is finite, but E_8 and E_6^{(2)} at 10^300 are not.
BEYOND_REFERENCE = 10**300
REFUSED = [
    ("probnums-N", ("probnums", "--N", "0", "--max-ell", "5"),
     lambda: probnum.probnum_series(0, 5)),
    ("probnums-max-ell", ("probnums", "--N", "4", "--max-ell", "3"),
     lambda: probnum.probnum_series(4, 3)),
    ("trig-max-ell", ("probnums", "--N", "4", "--max-ell", "3", "--method", "trig"),
     lambda: probnum.probnum_trig(4, 3)),
    ("catalan-max-ell",
     ("probnums", "--N", "4", "--max-ell", "3", "--method", "catalan"),
     lambda: probnum.catalan_table(4, 3)),
    ("all-N", ("probnums", "--N", "-3", "--max-ell", "5", "--method", "all"),
     lambda: probnum.cross_validate(-3, 5)),
    ("probnums-work-cap", ("probnums", "--N", "4097", "--max-ell", "4097"),
     lambda: probnum.probnum_series(4097, 4097)),
    ("probnums-max-ell-cap",
     ("probnums", "--N", "2", "--max-ell", str(probnum.MAX_ELL + 1)),
     lambda: probnum.probnum_series(2, probnum.MAX_ELL + 1)),
    ("catalan-max-ell-cap",
     ("probnums", "--N", "2", "--max-ell", str(probnum.MAX_BALLOT_ELL + 1),
      "--method", "catalan"),
     lambda: probnum.catalan_table(2, probnum.MAX_BALLOT_ELL + 1)),
    ("identity-N", ("identity", "--n", "2", "--N", "0", "--x", "1/3"),
     lambda: identities.reconstruct_euler(2, 0, Fraction(1, 3), 1e-9)),
    ("identity-n", ("identity", "--n", "-1", "--N", "3", "--x", "1/3"),
     lambda: identities.reconstruct_euler(-1, 3, Fraction(1, 3), 1e-9)),
    ("identity-n-cap",
     ("identity", "--n", str(identities.MAX_DEGREE + 1), "--N", "3", "--x", "1/3"),
     lambda: identities.reconstruct_euler(
         identities.MAX_DEGREE + 1, 3, Fraction(1, 3), 1e-9)),
    ("identity-N-cap",
     ("identity", "--n", "2", "--N", str(identities.MAX_N + 1), "--x", "1/3"),
     lambda: identities.reconstruct_euler(
         2, identities.MAX_N + 1, Fraction(1, 3), 1e-9)),
    # A NaN tolerance made every comparison against it vacuous, so the check
    # it guards passed untested; inf crashed in Fraction(tol).
    *[(f"identity-tol-{value}",
       ("identity", "--n", "2", "--N", "3", "--x", "1/3", f"--tol={value}"),
       lambda value=value: identities.reconstruct_euler(
           2, 3, Fraction(1, 3), float(value)))
      for value in ("nan", "inf", "-inf", "0", "-1e-9")],
    ("identity-default-budget",
     ("identity", "--n", "8", "--N", "10", "--x", str(10**400)),
     lambda: identities.reconstruct_euler(8, 10, 10**400, 1e-9)),
    ("identity-default-budget-past-the-int-str-limit",
     ("identity", "--n", "1", "--N", "2", "--x", "1" + "0" * 10000),
     lambda: identities.reconstruct_euler(1, 2, 10**10000, 1e-9)),
    ("integral-k-15", ("montecarlo", "integral", "--k", "15"),
     lambda: identities.moment_integral_check(15)),
    ("integral-k-150", ("montecarlo", "integral", "--k", "150"),
     lambda: identities.moment_integral_check(150)),
    ("integral-k-negative", ("montecarlo", "integral", "--k", "-1"),
     lambda: identities.moment_integral_check(-1)),
    ("rep-samples", ("montecarlo", "rep", "--x", "0", "--samples", "100"),
     lambda: stochastic.mc_euler_poly(STREAM, 1, 0, 100)),
    ("gen-samples", ("montecarlo", "gen", "--x", "0", "--samples", "9999"),
     lambda: stochastic.mc_gen_euler(STREAM, 1, 1, 0, 9999)),
    ("klebanov-samples", ("montecarlo", "klebanov", "--samples", "20000"),
     lambda: stochastic.mc_klebanov(STREAM, 2, 20000)),
    # Above MAX_SAMPLES: refused before any array is allocated.
    ("rep-samples-cap", ("montecarlo", "rep", "--x", "0", "--samples", str(10**11)),
     lambda: stochastic.mc_euler_poly(STREAM, 1, 0, 10**11)),
    ("gen-samples-cap",
     ("montecarlo", "gen", "--x", "0", "--samples", str(stochastic.MAX_SAMPLES + 1)),
     lambda: stochastic.mc_gen_euler(STREAM, 1, 1, 0, stochastic.MAX_SAMPLES + 1)),
    ("klebanov-samples-cap", ("montecarlo", "klebanov", "--samples", str(10**11)),
     lambda: stochastic.mc_klebanov(STREAM, 2, 10**11)),
    # The generator's key took the seed mod 2^64, so -1 ran as 2^64 - 1.
    ("seed-negative", ("montecarlo", "rep", "--x", "0", "--seed", "-1"),
     lambda: stochastic.RandomStream(-1)),
    ("seed-2^64", ("montecarlo", "klebanov", "--seed", str(2**64)),
     lambda: stochastic.RandomStream(2**64)),
    ("klebanov-N", ("montecarlo", "klebanov", "--N", "1"),
     lambda: stochastic.mc_klebanov(STREAM, 1, 10**5)),
    ("klebanov-N-cap",
     ("montecarlo", "klebanov", "--N", str(stochastic.MAX_KLEBANOV_N + 1)),
     lambda: stochastic.mc_klebanov(STREAM, stochastic.MAX_KLEBANOV_N + 1, 10**5)),
    ("rep-n", ("montecarlo", "rep", "--n", "9", "--x", "0"),
     lambda: stochastic.mc_euler_poly(STREAM, 9, 0, 10**5)),
    ("gen-n", ("montecarlo", "gen", "--n", "7", "--x", "0"),
     lambda: stochastic.mc_gen_euler(STREAM, 7, 1, 0, 10**5)),
    ("gen-p", ("montecarlo", "gen", "--p", "11", "--x", "0"),
     lambda: stochastic.mc_gen_euler(STREAM, 1, 11, 0, 10**5)),
    ("gen-p-0", ("montecarlo", "gen", "--p", "0", "--x", "0"),
     lambda: stochastic.mc_gen_euler(STREAM, 1, 0, 0, 10**5)),
    ("rep-x", ("montecarlo", "rep", "--x", str(BEYOND_FLOAT)),
     lambda: stochastic.mc_euler_poly(STREAM, 1, BEYOND_FLOAT, 10**5)),
    ("gen-x", ("montecarlo", "gen", "--x", f"-{BEYOND_FLOAT}/3"),
     lambda: stochastic.mc_gen_euler(
         STREAM, 1, 1, Fraction(-BEYOND_FLOAT, 3), 10**5)),
    ("rep-reference",
     ("montecarlo", "rep", "--n", "8", "--x", str(BEYOND_REFERENCE),
      "--samples", "10000"),
     lambda: stochastic.mc_euler_poly(STREAM, 8, BEYOND_REFERENCE, 10**4)),
    ("gen-reference",
     ("montecarlo", "gen", "--n", "6", "--p", "2", "--x", str(BEYOND_REFERENCE),
      "--samples", "10000"),
     lambda: stochastic.mc_gen_euler(STREAM, 6, 2, BEYOND_REFERENCE, 10**4)),
]


class TestDomain:
    @pytest.mark.parametrize(
        "argv, call", [row[1:] for row in REFUSED], ids=[row[0] for row in REFUSED]
    )
    def test_refused_in_the_library_words(self, capsys, monkeypatch, argv, call):
        # Exit 2, nothing on stdout, and the library's own message; nothing is
        # sampled first (a draw would end in exit 3).
        def no_draws(*args):
            raise AssertionError("a refused input reached the sampler")

        monkeypatch.setattr(stochastic, "sample_sech", no_draws)
        monkeypatch.setattr(stochastic, "sample_mu", no_draws)
        with pytest.raises(DomainError) as info:
            call()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {info.value}\n"


class TestParser:
    def test_flags_check_syntax_only(self):
        # A flag's type parses it; its range is the library's.  A type that
        # also checks a range (as a positive_float once did) is refused here.
        parser = build_parser()
        commands = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert len(commands) == 1

        def flags_of(name, sub):
            # A command's flags, and those of its own subcommands (the
            # montecarlo kinds).
            for action in sub._actions:
                yield name, action.dest, action.type
                if isinstance(action, argparse._SubParsersAction):
                    for kind, kind_parser in action.choices.items():
                        yield from flags_of(f"{name} {kind}", kind_parser)

        flags = [
            flag for name, sub in commands[0].choices.items()
            for flag in flags_of(name, sub)
        ]
        assert len(flags) > 20
        assert [f for f in flags if f[2] not in (None, int, float)] == []


class TestDeterminism:
    def test_byte_identical_json(self, capsys):
        argv = [
            "montecarlo", "klebanov", "--N", "2", "--samples", "100000",
            "--seed", "42", "--format", "json",
        ]
        code_a, out_a, _ = run(capsys, *argv)
        code_b, out_b, _ = run(capsys, *argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_identity_json_stable(self, capsys):
        argv = [
            "identity", "--n", "2", "--N", "2", "--x", "1/3",
            "--format", "json",
        ]
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert out_a == out_b


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    src = os.path.dirname(os.path.dirname(chebprob.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=60,
    )


class TestImportCost:
    def test_exact_path_loads_no_numpy(self):
        # numpy belongs to the montecarlo path only, and the Fraction
        # reference series to the tests.
        proc = run_fresh(
            "import sys, chebprob, chebprob.cli\n"
            "heavy = sorted({'numpy', 'scipy', 'chebprob.series'} & set(sys.modules))\n"
            "assert not heavy, heavy\n"
        )
        assert proc.returncode == 0, proc.stderr

    def test_integral_loads_no_numpy(self):
        # The moment quadrature is stdlib floats: it loads neither numpy nor
        # the sampling module, and runs with every numpy import failing.
        for first in ("", "sys.modules['numpy'] = None\n"):
            proc = run_fresh(
                "import sys\n"
                f"{first}"
                "from chebprob.cli import main\n"
                "assert main(['montecarlo', 'integral', '--k', '4']) == 0\n"
                "assert 'chebprob.stochastic' not in sys.modules\n"
                "assert sys.modules.get('numpy') is None\n"
            )
            assert proc.returncode == 0, proc.stderr

    def test_montecarlo_loads_no_scipy(self):
        # The KS test is numpy only.
        proc = run_fresh(
            "import sys\n"
            "from chebprob.cli import main\n"
            "assert main(['montecarlo', 'klebanov', '--N', '2', '--samples', '100000']) == 0\n"
            "assert main(['montecarlo', 'integral', '--k', '4']) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        assert proc.returncode == 0, proc.stderr
