"""Deterministic seeding and the verification report document."""

import json
from importlib import resources

import jsonschema
import numpy as np
import pytest

from weilcalc.reports import (
    CONVENTIONS,
    REPORT_VERSION,
    assemble_document,
    document_dumps,
    documents_equal,
    report_from_check,
    rng_for,
    tally,
)


def test_rng_for_is_reproducible_and_qualifier_sensitive():
    a = rng_for(7, "bracket", 3).uniform(size=4)
    b = rng_for(7, "bracket", 3).uniform(size=4)
    c = rng_for(7, "bracket", 4).uniform(size=4)
    d = rng_for(8, "bracket", 3).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _entry(suite, algebra, samples, max_error, failures=()):
    return report_from_check(
        suite, algebra, {"max_error": max_error, "samples": samples, "failures": list(failures)}
    )


def test_report_from_check_maps_failures_to_status():
    ok = report_from_check("sigma", "S", {"max_error": 0.0, "samples": 25, "failures": []})
    assert ok["status"] == "pass"
    bad = report_from_check(
        "sigma", "S", {"max_error": 2.0, "samples": 25, "failures": [{"trial": 3, "deviation": 2.0}]}
    )
    assert bad["status"] == "fail"
    assert bad["failures"][0]["trial"] == 3


def test_report_entry_casts_numpy_numbers_to_plain_json_types():
    failures = ({"trial": 0, "deviation": 9.0},)
    got = report_from_check(
        "bracket", "dual", {"max_error": np.float64(9.0), "samples": np.int64(5), "failures": failures}
    )
    assert got == {
        "suite": "bracket",
        "algebra": "dual",
        "samples": 5,
        "max_error": 9.0,
        "status": "fail",
        "failures": [{"trial": 0, "deviation": 9.0}],
    }
    assert type(got["samples"]) is int and type(got["max_error"]) is float
    assert type(got["failures"]) is list
    # every check dict carries all three keys; none has a default
    with pytest.raises(KeyError):
        report_from_check("sigma", "S", {"max_error": 0.0, "failures": []})


def test_document_assembly():
    entries = [
        _entry("sigma", "S", 25, 0.0),
        _entry("locality", "F(1;1,1;2)", 20, 1e-16),
    ]
    doc = assemble_document(entries, seed=7)
    assert doc["version"] == REPORT_VERSION == 1
    assert doc["seed"] == 7
    assert doc["status"] == "pass"
    assert doc["conventions"] == CONVENTIONS
    assert doc["suites"] == entries
    assert isinstance(doc["generated_at"], str)


def test_any_failing_unit_fails_the_document():
    entries = [
        _entry("sigma", "S", 25, 0.0),
        _entry("bracket", "dual", 5, 9.0, [{"trial": 0, "deviation": 9.0}]),
    ]
    assert assemble_document(entries, seed=0)["status"] == "fail"


def test_documents_equal_ignores_only_the_timestamp():
    entries = [_entry("sigma", "S", 25, 0.0)]
    a = assemble_document(entries, seed=1)
    b = assemble_document(entries, seed=1)
    b["generated_at"] = "2000-01-01T00:00:00Z"
    assert documents_equal(a, b)
    b["seed"] = 2
    assert not documents_equal(a, b)


def test_dumps_is_stable():
    doc = assemble_document([_entry("sigma", "S", 25, 0.0)], seed=1)
    assert document_dumps(doc) == document_dumps(doc)
    assert document_dumps(doc).endswith("\n")
    json.loads(document_dumps(doc))


def test_document_validates_against_the_packaged_schema():
    schema = json.loads(
        resources.files("weilcalc").joinpath("data/report.schema.json").read_text()
    )
    entries = [
        _entry("sigma", "S", 25, 0.0),
        _entry("bracket", "dual", 5, 9.0, [{"trial": 0, "deviation": 9.0}]),
    ]
    doc = assemble_document(entries, seed=3)
    jsonschema.validate(json.loads(document_dumps(doc)), schema)


def test_tally_fails_a_nan_deviation():
    out = tally([({"trial": 0}, 0.0), ({"trial": 1}, float("nan"))], tol=1e-6)
    assert len(out["failures"]) == 1
    assert out["failures"][0]["trial"] == 1
    assert out["max_error"] == 0.0


def test_tally_failure_entry_is_the_tag_plus_the_deviation():
    pairs = [({"dim": 2, "pair": 5}, 3e-6), ({"dim": 2, "pair": 6}, 1e-9)]
    out = tally(iter(pairs), tol=1e-6)
    assert out["failures"] == [{"dim": 2, "pair": 5, "deviation": 3e-6}]
    assert pairs[0][0] == {"dim": 2, "pair": 5}  # the tag itself is left alone


def test_tally_counts_pairs_unless_told_otherwise():
    pairs = [({"trial": t}, 0.0) for t in range(4)]
    assert tally(pairs, tol=0.0)["samples"] == 4
    assert tally(pairs, tol=0.0, samples=25)["samples"] == 25
    assert tally([], tol=0.0) == {"max_error": 0.0, "samples": 0, "failures": []}


def test_tally_max_error_is_the_largest_deviation():
    devs = [1e-9, float("nan"), 4e-7, 2e-8]
    out = tally((({"trial": t}, d) for t, d in enumerate(devs)), tol=1e-6)
    assert out["max_error"] == 4e-7
    assert [f["trial"] for f in out["failures"]] == [1]


def test_tally_keeps_categorical_failures_as_their_tag():
    pairs = [({"trial": 0, "axiom": "inverse"}, None), ({"trial": 0}, 2.0)]
    out = tally(pairs, tol=1.0)
    assert out["failures"] == [{"trial": 0, "axiom": "inverse"}, {"trial": 0, "deviation": 2.0}]
    assert out["max_error"] == 2.0 and out["samples"] == 2
