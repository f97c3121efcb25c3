"""Every public refusal is a DomainError, and a numpy integer is an integer.

A range of one integer is refused by ``exactnum.require`` in one of its two
message shapes, which start with the name of the refusing function, and a
value that is no integer (a float, a bool) in its third; a value that is no
rational by ``exactnum.require_rational`` in a fourth.  The checks that are
no such range (a float, two arguments at once, an empty sequence, a parity)
raise DomainError with their own wording.
"""

from collections.abc import Mapping
from fractions import Fraction

import functools
import re

import numpy as np
import pytest

from chebprob import (
    chebyshev,
    eulerpoly,
    exactnum,
    identities,
    probnum,
    series,
    stochastic,
)
from chebprob.exactnum import DomainError, require, require_rational

SHAPES = (
    r"(?P<name>\w+) >= -?\d+, got (?P=name)=-?\d+",
    r"-?\d+ <= (?P<name>\w+) <= -?\d+, got (?P=name)=-?\d+",
)

STREAM = stochastic.RandomStream(1)

# (name the message starts with, refused call)
RANGE_REFUSALS = [
    ("chebyshev_T", lambda: chebyshev.chebyshev_T(-1)),
    ("chebyshev_U", lambda: chebyshev.chebyshev_U(-1)),
    ("reversed_T", lambda: chebyshev.reversed_T(0)),
    ("euler_numbers", lambda: eulerpoly.euler_numbers(-1)),
    ("gen_euler_zero", lambda: eulerpoly.gen_euler_zero(-1, 3)),
    ("euler_poly", lambda: eulerpoly.euler_poly(-1)),
    ("gen_euler_recursive", lambda: eulerpoly.gen_euler_recursive(2, -1)),
    ("gen_euler_series", lambda: eulerpoly.gen_euler_series(-1, 1)),
    ("binomial", lambda: exactnum.binomial(-1, 0)),
    ("catalan_sequence", lambda: exactnum.catalan_sequence(0)),
    ("ballot_number", lambda: exactnum.ballot_number(-1, 0)),
    ("reconstruct_euler", lambda: identities.reconstruct_euler(33, 2, 0, 1e-9)),
    ("expectation_form_check", lambda: identities.expectation_form_check(1, 0)),
    ("asymptotic_ratio", lambda: identities.asymptotic_ratio(0, 0.5)),
    ("catalan_prefix_check", lambda: identities.catalan_prefix_check(0)),
    ("root_angles", lambda: probnum.root_angles(0)),
    ("trig_value", lambda: probnum.trig_value(2, -1)),
    ("probnum_catalan", lambda: probnum.probnum_catalan(0, 2)),
    ("geometric_tail_bound", lambda: probnum.geometric_tail_bound(0, 10)),
    ("probnum_series", lambda: probnum.probnum_series(0, 5)),
    ("probnum_trig", lambda: probnum.probnum_trig(0, 5)),
    ("catalan_table", lambda: probnum.catalan_table(0, 5)),
    ("cross_validate", lambda: probnum.cross_validate(0, 5)),
    ("tail_mass", lambda: probnum.tail_mass(0, 5)),
    ("TruncatedSeries.of", lambda: series.TruncatedSeries.of([1], -1)),
    ("split", lambda: STREAM.split(0)),
    ("sample_sech", lambda: stochastic.sample_sech(STREAM, 0)),
    ("sample_mu", lambda: stochastic.sample_mu(STREAM, 31, 10)),
    ("mc_euler_poly", lambda: stochastic.mc_euler_poly(STREAM, 9, 0, 10**4)),
    ("mc_gen_euler", lambda: stochastic.mc_gen_euler(STREAM, 1, 11, 0, 10**4)),
    ("mc_klebanov", lambda: stochastic.mc_klebanov(STREAM, 2, 10**4)),
    ("moment_integral_check", lambda: identities.moment_integral_check(15)),
]

# The float routes raised OverflowError past the float range: an ell, a
# max_ell or an N past 2^53 is refused.
FLOAT_RANGE_REFUSALS = [
    ("trig_value", lambda: probnum.trig_value(3, 10**400)),
    ("geometric_tail_bound", lambda: probnum.geometric_tail_bound(3, 10**400)),
    ("asymptotic_ratio", lambda: identities.asymptotic_ratio(10**400, 0.5)),
]

# One index of the trig route holds and sums N root terms: N is capped as a
# trig table's work is (trig_value(10**8, 3) was killed for memory).
WORK_REFUSALS = [
    ("root_angles", lambda: probnum.root_angles(probnum.MAX_LAW_WORK + 1)),
    ("trig_value", lambda: probnum.trig_value(probnum.MAX_LAW_WORK + 1, 3)),
]

# The two words of a RandomStream's key, each refused outside [0, 2^64).
KEY_WORDS = [
    ("seed", lambda v: stochastic.RandomStream(v)),
    ("stream_id", lambda v: stochastic.RandomStream(1, v)),
]

# (name the message starts with, integer argument, call with it as v)
INTEGER_ARGUMENTS = [
    ("chebyshev_T", "N", lambda v: chebyshev.chebyshev_T(v)),
    ("chebyshev_U", "N", lambda v: chebyshev.chebyshev_U(v)),
    ("reversed_T", "N", lambda v: chebyshev.reversed_T(v)),
    ("euler_numbers", "max_n", lambda v: eulerpoly.euler_numbers(v)),
    ("gen_euler_zero", "max_n", lambda v: eulerpoly.gen_euler_zero(2, v)),
    ("euler_poly", "n", lambda v: eulerpoly.euler_poly(v)),
    ("gen_euler_recursive", "p", lambda v: eulerpoly.gen_euler_recursive(2, v)),
    ("gen_euler_series", "n", lambda v: eulerpoly.gen_euler_series(v, 1)),
    ("binomial", "n", lambda v: exactnum.binomial(v, 0)),
    ("catalan_sequence", "count", lambda v: exactnum.catalan_sequence(v)),
    ("ballot_number", "n", lambda v: exactnum.ballot_number(v, 0)),
    ("reconstruct_euler", "N", lambda v: identities.reconstruct_euler(1, v, 0, 1e-9)),
    ("expectation_form_check", "n", lambda v: identities.expectation_form_check(v, 2)),
    ("asymptotic_ratio", "N", lambda v: identities.asymptotic_ratio(v, 0.5)),
    ("catalan_prefix_check", "N", lambda v: identities.catalan_prefix_check(v)),
    ("root_angles", "N", lambda v: probnum.root_angles(v)),
    ("trig_value", "ell", lambda v: probnum.trig_value(2, v)),
    ("probnum_catalan", "ell", lambda v: probnum.probnum_catalan(2, v)),
    ("geometric_tail_bound", "N", lambda v: probnum.geometric_tail_bound(v, 10)),
    ("probnum_series", "N", lambda v: probnum.probnum_series(v, 5)),
    ("probnum_trig", "N", lambda v: probnum.probnum_trig(v, 5)),
    ("catalan_table", "N", lambda v: probnum.catalan_table(v, 5)),
    ("cross_validate", "N", lambda v: probnum.cross_validate(v, 5)),
    ("tail_mass", "N", lambda v: probnum.tail_mass(v, 5)),
    ("TruncatedSeries.of", "order", lambda v: series.TruncatedSeries.of([1], v)),
    ("split", "count", lambda v: STREAM.split(v)),
    ("sample_sech", "count", lambda v: stochastic.sample_sech(STREAM, v)),
    ("sample_mu", "N", lambda v: stochastic.sample_mu(STREAM, v, 10)),
    ("mc_euler_poly", "n", lambda v: stochastic.mc_euler_poly(STREAM, v, 0, 10**4)),
    ("mc_gen_euler", "p", lambda v: stochastic.mc_gen_euler(STREAM, 1, v, 0, 10**4)),
    ("mc_klebanov", "N", lambda v: stochastic.mc_klebanov(STREAM, v, 10**5)),
    ("moment_integral_check", "k", lambda v: identities.moment_integral_check(v)),
]

# k was not checked: a float raised a TypeError in math.comb, and a numpy
# integer overflowed.
K_ARGUMENTS = [
    ("binomial", lambda v: exactnum.binomial(5, v)),
    ("ballot_number", lambda v: exactnum.ballot_number(5, v)),
]

# max_ell was checked outside require: a float raised a TypeError deep
# inside, a bool was taken as an integer, and geometric_tail_bound(2, 2.5)
# returned 1.4355.
MAX_ELL_ARGUMENTS = [
    ("probnum_series", lambda v: probnum.probnum_series(2, v)),
    ("probnum_trig", lambda v: probnum.probnum_trig(2, v)),
    ("catalan_table", lambda v: probnum.catalan_table(2, v)),
    ("cross_validate", lambda v: probnum.cross_validate(2, v)),
    ("tail_mass", lambda v: probnum.tail_mass(2, v)),
    ("geometric_tail_bound", lambda v: probnum.geometric_tail_bound(2, v)),
]

# Refusals that are no range of one integer, with their own wording, that
# raised a bare ValueError before.
OTHER_REFUSALS = [
    # The law through 3N has the cap of a table: N * 3N <= MAX_LAW_WORK.
    ("catalan_prefix_check", lambda: identities.catalan_prefix_check(2365)),
    ("probnum_catalan", lambda: probnum.probnum_catalan(2, 3)),
    ("asymptotic_ratio", lambda: identities.asymptotic_ratio(2, 1.0)),
    ("split", lambda: stochastic.RandomStream(1, 2**64 - 1).split(1)),
    # numpy truncated these keys: each drew what RandomStream(1) draws.
    ("RandomStream", lambda: stochastic.RandomStream(1.5)),
    ("RandomStream", lambda: stochastic.RandomStream(True)),
    ("RandomStream", lambda: stochastic.RandomStream(1, 1.0)),
    ("RandomStream", lambda: stochastic.RandomStream(np.float64(1))),
    ("MomentReport.ok", lambda: stochastic.MomentReport(10, ()).ok(band=0.0)),
]

# A tolerance, a band or a point that is no real number, refused with the
# message each gives a real one out of range; each raised TypeError deep
# inside before.  A bool was taken as a tolerance or a band of 1.
# (message, refused call)
NON_REAL_REFUSALS = [
    ("cross_validate: tol must be positive and finite, got None",
     lambda: probnum.cross_validate(3, 20, None)),
    ("cross_validate: tol must be positive and finite, got True",
     lambda: probnum.cross_validate(2, 10, True)),
    ("reconstruct_euler: tol must be positive and finite, got True",
     lambda: identities.reconstruct_euler(2, 3, Fraction(1, 3), True)),
    ("expectation_form_check: tol must be positive and finite, got True",
     lambda: identities.expectation_form_check(2, 2, True)),
    ("reconstruct_euler: tol must be positive and finite, got 1e-9",
     lambda: identities.reconstruct_euler(2, 3, Fraction(1, 3), "1e-9")),
    ("expectation_form_check: tol must be positive and finite, got 1j",
     lambda: identities.expectation_form_check(2, 3, 1j)),
    ("MomentReport.ok: band must be positive and finite, got 4",
     lambda: stochastic.MomentReport(1, ()).ok("4")),
    ("MomentReport.ok: band must be positive and finite, got True",
     lambda: stochastic.MomentReport(1, ()).ok(True)),
    ("z must lie strictly inside (0, 1), got z='0.5'",
     lambda: identities.asymptotic_ratio(3, "0.5")),
    ("z must lie strictly inside (0, 1), got z=0.5j",
     lambda: identities.asymptotic_ratio(3, 0.5j)),
]

# (name the message starts with, call with the rational argument x as v)
RATIONAL_ARGUMENTS = [
    ("format_rational", lambda v: exactnum.format_rational(v)),
    ("reconstruct_euler", lambda v: identities.reconstruct_euler(2, 3, v, 1e-9)),
    ("eval_poly", lambda v: eulerpoly.eval_poly(eulerpoly.euler_poly(2), v)),
    ("mc_euler_poly", lambda v: stochastic.mc_euler_poly(STREAM, 1, v, 10**4)),
    ("mc_gen_euler", lambda v: stochastic.mc_gen_euler(STREAM, 1, 2, v, 10**4)),
]


@pytest.mark.parametrize(
    "caller, call",
    RANGE_REFUSALS + FLOAT_RANGE_REFUSALS + WORK_REFUSALS
    + [("RandomStream", functools.partial(call, 2**64)) for _, call in KEY_WORDS],
    ids=[row[0] for row in RANGE_REFUSALS]
    + [f"{row[0]}-past-2^53" for row in FLOAT_RANGE_REFUSALS]
    + [f"{row[0]}-past-MAX_LAW_WORK" for row in WORK_REFUSALS]
    + [f"RandomStream-{name}" for name, _ in KEY_WORDS],
)
def test_range_refusal_is_a_domain_error(caller, call):
    with pytest.raises(DomainError) as info:
        call()
    message = str(info.value)
    assert any(
        re.fullmatch(f"{re.escape(caller)} requires {shape}", message) for shape in SHAPES
    ), message


# Before require took integers alone, a float or a bool got through it:
# mc_klebanov(s, 2.5, n) returned a report, probnum_series(True, 3) a table
# with N=True, and others failed with a TypeError deep inside.
@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "caller, name, call",
    INTEGER_ARGUMENTS + [(caller, "max_ell", call) for caller, call in MAX_ELL_ARGUMENTS]
    + [(caller, "k", call) for caller, call in K_ARGUMENTS]
    + [("RandomStream", name, call) for name, call in KEY_WORDS],
    ids=[row[0] for row in INTEGER_ARGUMENTS]
    + [f"{row[0]}-max_ell" for row in MAX_ELL_ARGUMENTS]
    + [f"{row[0]}-k" for row in K_ARGUMENTS]
    + [f"RandomStream-{name}" for name, _ in KEY_WORDS],
)
def test_non_integer_is_a_domain_error(caller, name, call, value):
    with pytest.raises(DomainError) as info:
        call(value)
    assert str(info.value) == f"{caller} requires an integer {name}, got {name}={value!r}"


@pytest.mark.parametrize(
    "caller, call", OTHER_REFUSALS, ids=[row[0] for row in OTHER_REFUSALS]
)
def test_other_refusal_is_a_domain_error(caller, call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize(
    "message, call", NON_REAL_REFUSALS, ids=[row[0] for row in NON_REAL_REFUSALS]
)
def test_non_real_is_a_domain_error(message, call):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_a_tolerance_past_the_float_range_is_taken():
    # math.isfinite raised OverflowError on an int past the float range,
    # which is finite and positive.
    huge = 10**400
    assert probnum.cross_validate(3, 20, huge).tol == huge
    assert identities.reconstruct_euler(2, 3, Fraction(1, 3), huge).terms_used == 1
    assert stochastic.MomentReport(1, ()).ok(huge)


# Fraction raised ValueError on a NaN, OverflowError on an infinity,
# TypeError on None and ZeroDivisionError on "1/0", and took a bool as 0 or
# 1.  The Monte Carlo checks word an infinite x as one beyond the float range.
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), None, "1/0", True],
    ids=["nan", "inf", "None", "1/0", "bool"],
)
@pytest.mark.parametrize(
    "caller, call", RATIONAL_ARGUMENTS, ids=[row[0] for row in RATIONAL_ARGUMENTS]
)
def test_non_rational_is_a_domain_error(caller, call, value):
    with pytest.raises(DomainError) as info:
        call(value)
    if caller.startswith("mc_") and value == float("inf"):
        assert str(info.value).startswith(f"{caller} requires x within the float range")
    else:
        assert str(info.value) == f"{caller} requires a rational x, got x={value!r}"


def test_every_value_fraction_takes_is_still_taken():
    poly = eulerpoly.euler_poly(3)
    expected = eulerpoly.eval_poly(poly, Fraction(1, 4))
    for value in (0.25, np.float64(0.25), "1/4", " 1/4 ", "0.25", Fraction(2, 8)):
        assert eulerpoly.eval_poly(poly, value) == expected, value
    assert eulerpoly.eval_poly(poly, np.int64(3)) == eulerpoly.eval_poly(poly, 3)


def test_require_message_shapes():
    with pytest.raises(DomainError) as info:
        require("f", "n", -1, 0)
    assert str(info.value) == "f requires n >= 0, got n=-1"
    with pytest.raises(DomainError) as info:
        require("f", "n", 9, 0, 8)
    assert str(info.value) == "f requires 0 <= n <= 8, got n=9"
    with pytest.raises(DomainError) as info:
        require("f", "count", 1, 2, 2**16)
    assert str(info.value) == "f requires 2 <= count <= 65536, got count=1"
    # Both bounds are inclusive, and a DomainError is a ValueError.
    for low, high, value in ((0, None, 0), (0, 8, 0), (0, 8, 8), (1, None, 10**30)):
        assert require("f", "n", value, low, high) is value
    assert issubclass(DomainError, ValueError)
    with pytest.raises(DomainError) as info:
        require_rational("f", "x", float("nan"))
    assert str(info.value) == "f requires a rational x, got x=nan"


def test_require_takes_integers_alone():
    # numpy integers are integers, returned as plain ints; a numpy bool, a
    # float of integer value and an integer Fraction are not.
    for value in (np.int64(3), np.uint8(3)):
        out = require("f", "n", value, 0, 8)
        assert type(out) is int and out == 3
    assert type(require("f", "n", np.int64(-2))) is int
    with pytest.raises(DomainError, match=r"^f requires 0 <= n <= 8, got n=9$"):
        require("f", "n", np.uint8(9), 0, 8)
    for value in (np.True_, 3.0, np.float64(3), Fraction(3)):
        with pytest.raises(DomainError) as info:
            require("f", "n", value, 0)
        assert str(info.value) == f"f requires an integer n, got n={value!r}"


def _typed(value):
    """``value`` as nested tuples of (type, value) leaves, so that equality
    also compares the type of every number: a Fraction by its numerator and
    denominator, an array by its dtype and entries.  A record is a tuple, so
    its type and every field are compared in order; a report's read-only
    extras are a Mapping, not a dict."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tolist())
    if isinstance(value, Fraction):
        return (Fraction, _typed(value.numerator), _typed(value.denominator))
    if isinstance(value, (tuple, list)):
        return (type(value),) + tuple(_typed(item) for item in value)
    if isinstance(value, Mapping):
        return tuple((key, _typed(item)) for key, item in sorted(value.items()))
    return (type(value), value)


def _stream(i):
    return stochastic.RandomStream(i(1), i(2))


# (function, call with every integer argument passed through i): each
# integer parameter of every public function.
NUMPY_CALLS = [
    ("chebyshev_T", lambda i: chebyshev.chebyshev_T(i(5))),
    ("chebyshev_U", lambda i: chebyshev.chebyshev_U(i(5))),
    ("reversed_T", lambda i: chebyshev.reversed_T(i(5))),
    ("euler_numbers", lambda i: eulerpoly.euler_numbers(i(30))),
    ("gen_euler_zero", lambda i: eulerpoly.gen_euler_zero(i(3), i(30))),
    ("euler_poly", lambda i: eulerpoly.euler_poly(i(30))),
    ("gen_euler_recursive", lambda i: eulerpoly.gen_euler_recursive(i(30), i(3))),
    ("gen_euler_series", lambda i: eulerpoly.gen_euler_series(i(30), i(3))),
    ("eval_poly", lambda i: eulerpoly.eval_poly(eulerpoly.euler_poly(30), i(3))),
    ("binomial", lambda i: exactnum.binomial(i(100), i(40))),
    ("catalan_sequence", lambda i: exactnum.catalan_sequence(i(40))),
    ("ballot_number", lambda i: exactnum.ballot_number(i(100), i(40))),
    ("reconstruct_euler",
     lambda i: identities.reconstruct_euler(i(3), i(5), Fraction(1, 3), 1e-9)),
    ("reconstruct_euler-x", lambda i: identities.reconstruct_euler(2, 3, i(2), 1e-9)),
    ("expectation_form_check", lambda i: identities.expectation_form_check(i(4), i(3))),
    ("asymptotic_ratio", lambda i: identities.asymptotic_ratio(i(3), 0.5)),
    ("catalan_prefix_check", lambda i: identities.catalan_prefix_check(i(30))),
    ("root_angles", lambda i: probnum.root_angles(i(5))),
    ("trig_value", lambda i: probnum.trig_value(i(5), i(61))),
    ("probnum_series", lambda i: probnum.probnum_series(i(5), i(60))),
    ("probnum_trig", lambda i: probnum.probnum_trig(i(5), i(60))),
    ("probnum_catalan", lambda i: probnum.probnum_catalan(i(3), i(201))),
    ("catalan_table", lambda i: probnum.catalan_table(i(5), i(60))),
    ("cross_validate", lambda i: probnum.cross_validate(i(5), i(60))),
    ("tail_mass", lambda i: probnum.tail_mass(i(5), i(60))),
    ("geometric_tail_bound", lambda i: probnum.geometric_tail_bound(i(5), i(60))),
    ("TruncatedSeries.of", lambda i: series.TruncatedSeries.of([1, 2], i(5))),
    ("RandomStream", _stream),
    ("split", lambda i: _stream(i).split(i(3))),
    ("sample_sech", lambda i: stochastic.sample_sech(_stream(i), i(100))),
    ("sample_mu", lambda i: stochastic.sample_mu(_stream(i), i(5), i(100))),
    ("mc_euler_poly",
     lambda i: stochastic.mc_euler_poly(_stream(i), i(3), i(1), i(10**4))),
    ("mc_gen_euler",
     lambda i: stochastic.mc_gen_euler(_stream(i), i(3), i(2), i(1), i(10**4))),
    ("mc_klebanov", lambda i: stochastic.mc_klebanov(_stream(i), i(3), i(10**5))),
    ("moment_integral_check", lambda i: identities.moment_integral_check(i(4))),
]


# require admitted numpy integers but handed them on: probnum_series(
# np.int64(5), 60) stored numpy terms in the law memo and raised
# AttributeError, and gen_euler_series(np.int64(30), 3) OverflowError.
@pytest.mark.parametrize("name, call", NUMPY_CALLS, ids=[row[0] for row in NUMPY_CALLS])
def test_numpy_integers_give_the_plain_int_result(name, call):
    expected = _typed(call(int))
    assert _typed(call(np.int64)) == expected


def test_a_numpy_law_call_leaves_the_memo_plain():
    with probnum._LAW_LOCK:
        probnum._LAW.pop(5, None)
    probnum.probnum_series(np.int64(5), 60)
    taps, values = probnum._LAW[5]
    assert all(type(v) is int for tap in taps for v in tap)
    assert all(type(a) is int for a in values)
    # These failed for the rest of the process once the memo held numpy
    # terms.
    assert probnum.probnum_series(5, 61).values[61] == probnum.probnum_catalan(5, 61)
    identities.reconstruct_euler(3, 5, Fraction(1, 3), 1e-9)
