"""The nine records keep the face they had as frozen dataclasses.

Each record is a ``typing.NamedTuple``: its repr, its field names and its
JSON document are the strings the dataclass records gave, and no attribute
can be set.  Being tuples, records also unpack, index and compare equal to
the plain tuple of their fields.
"""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from chebprob import exactnum, identities, probnum, series, stochastic

ENTRY = stochastic.MomentEntry("E[X]", 0.5, 0.25, 0.25)
ENTRY_JSON = ('{"estimate": 0.5, "label": "E[X]", "reference": 0.25, '
              '"standardized": 1.0, "std_error": 0.25}')

# (name, record, repr, fields, json_dict as sorted JSON or None), the
# strings as the dataclass records printed them.
RECORDS = [
    (
        "DensePolynomial",
        lambda: exactnum.DensePolynomial.of([1, Fraction(-1, 2), 0]),
        "DensePolynomial(coefficients=(1, Fraction(-1, 2)))",
        ("coefficients",),
        None,
    ),
    (
        "ProbTable",
        lambda: probnum.probnum_series(2, 6),
        "ProbTable(N=2, max_ell=6, values=(Fraction(0, 1), Fraction(0, 1), "
        "Fraction(1, 2), Fraction(0, 1), Fraction(1, 4), Fraction(0, 1), "
        "Fraction(1, 8)), method='series', tail_bound=0.125)",
        ("N", "max_ell", "values", "method", "tail_bound"),
        '{"N": 2, "max_ell": 6, "method": "series", "tail_bound": 0.125, '
        '"values": [{"ell": 2, "exact": "1/2", "float": 0.5}, '
        '{"ell": 4, "exact": "1/4", "float": 0.25}, '
        '{"ell": 6, "exact": "1/8", "float": 0.125}]}',
    ),
    (
        "CrossValidationReport",
        lambda: probnum.CrossValidationReport(2, 6, 1e-10, 5.551115123125783e-17, 7),
        "CrossValidationReport(N=2, max_ell=6, tol=1e-10, "
        "max_trig_deviation=5.551115123125783e-17, indices_checked=7)",
        ("N", "max_ell", "tol", "max_trig_deviation", "indices_checked"),
        '{"N": 2, "indices_checked": 7, "max_ell": 6, '
        '"max_trig_deviation": 5.551115123125783e-17, "tol": 1e-10}',
    ),
    (
        "ReconstructionResult",
        lambda: identities.reconstruct_euler(1, 2, Fraction(1, 4), 1e-6),
        "ReconstructionResult(n=1, N=2, x=Fraction(1, 4), terms_used=18, "
        "partial_value=Fraction(-262143, 1048576), target=Fraction(-1, 4), "
        "abs_error=9.5367431640625e-07, tail_estimate=9.536743164062504e-07, "
        "first_small_term_k=None)",
        ("n", "N", "x", "terms_used", "partial_value", "target", "abs_error",
         "tail_estimate", "first_small_term_k"),
        '{"N": 2, "abs_error": 9.5367431640625e-07, "first_small_term_k": null, '
        '"n": 1, "partial_value": "-262143/1048576", '
        '"tail_estimate": 9.536743164062504e-07, "target": "-1/4", '
        '"terms_used": 18, "x": "1/4"}',
    ),
    (
        "CatalanPrefixReport",
        lambda: identities.catalan_prefix_check(2),
        "CatalanPrefixReport(N=2, q_prefix=(Fraction(1, 1), Fraction(2, 1)), "
        "convolution_prefix=(1, 2), prefix_equal=True, mismatch_ell=6, "
        "q_at_mismatch=Fraction(4, 1), convolution_at_mismatch=5, "
        "leading_difference=Fraction(1, 1))",
        ("N", "q_prefix", "convolution_prefix", "prefix_equal", "mismatch_ell",
         "q_at_mismatch", "convolution_at_mismatch", "leading_difference"),
        None,
    ),
    (
        "TruncatedSeries",
        lambda: series.TruncatedSeries.of([1, -1], 2),
        "TruncatedSeries(coefficients=(Fraction(1, 1), Fraction(-1, 1), Fraction(0, 1)))",
        ("coefficients",),
        None,
    ),
    (
        "RandomStream",
        lambda: stochastic.RandomStream(seed=3, stream_id=5),
        "RandomStream(seed=3, stream_id=5)",
        ("seed", "stream_id"),
        None,
    ),
    (
        "MomentEntry",
        lambda: ENTRY,
        "MomentEntry(label='E[X]', estimate=0.5, std_error=0.25, reference=0.25)",
        ("label", "estimate", "std_error", "reference"),
        ENTRY_JSON,
    ),
    (
        "MomentReport",
        lambda: stochastic.MomentReport(10, (ENTRY,), {"ks_pvalue": 0.5}),
        "MomentReport(sample_size=10, entries=(MomentEntry(label='E[X]', "
        "estimate=0.5, std_error=0.25, reference=0.25),), extras={'ks_pvalue': 0.5})",
        ("sample_size", "entries", "extras"),
        f'{{"entries": [{ENTRY_JSON}], "extras": {{"ks_pvalue": 0.5}}, '
        '"max_standardized_deviation": 1.0, "sample_size": 10}',
    ),
]


@pytest.mark.parametrize("make, text, fields, document",
                         [case[1:] for case in RECORDS], ids=[case[0] for case in RECORDS])
class TestRecords:
    def test_repr_fields_and_json(self, make, text, fields, document):
        record = make()
        assert repr(record) == text
        assert record._fields == fields
        if document is None:
            assert not hasattr(record, "json_dict")
        else:
            assert json.dumps(record.json_dict(), sort_keys=True) == document

    def test_attributes_cannot_be_set(self, make, text, fields, document):
        record = make()
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.new_attribute = None

    def test_a_tuple_of_its_fields(self, make, text, fields, document):
        record = make()
        assert record == tuple(getattr(record, name) for name in fields)
        assert record._replace() == record
        assert copy.deepcopy(record) == record
        assert pickle.loads(pickle.dumps(record)) == record
