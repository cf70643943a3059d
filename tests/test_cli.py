"""Command line behavior: exit codes, output text, report files."""

import inspect
import json
import math
import os
import subprocess
import sys
import types
from functools import partial
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from weilcalc import cli, functional, functor, jets, prolong, strongdiff
from weilcalc.algebra import (
    MAX_DIM, WeilAlgebra, algebra_to_json, exchange, make_basic, save_algebra, tensor,
)
from weilcalc.errors import DomainError, InvariantViolation, WeilError
from weilcalc.exprs import PRIMITIVES, Const, IntPow, Mul, Var, intpow, prim, simplify
from weilcalc.functional import FunctionalVectorField, functional_field_to_json
from weilcalc.programs import Program, VectorField, evaluate, field_to_json, program_to_json
from weilcalc.reports import documents_equal, report_from_check, rng_for, tally


@pytest.fixture
def manifold_fields(tmp_path):
    sq = tmp_path / "sq.json"
    one = tmp_path / "one.json"
    sq.write_text(json.dumps(field_to_json(VectorField(1, Program(1, [intpow(Var(0), 2)])))))
    one.write_text(json.dumps(field_to_json(VectorField(1, Program(1, [Const(1.0)])))))
    return str(sq), str(one)


@pytest.fixture
def functional_fields(tmp_path):
    zero = Program(1, [Const(0.0)])
    x1 = FunctionalVectorField(1, 1, 1, 0, zero, Program(3, [Var(1) * Var(2)]))
    x2 = FunctionalVectorField(1, 1, 1, 1, zero, Program(4, [Var(3)]))
    p1 = tmp_path / "f1.json"
    p2 = tmp_path / "f2.json"
    p1.write_text(json.dumps(functional_field_to_json(x1)))
    p2.write_text(json.dumps(functional_field_to_json(x2)))
    return str(p1), str(p2)


def _scaled_identity_field(c):
    """The 1-D field c*x0 as a document; json.dumps writes NaN and Infinity."""
    const = {"op": "const", "c": c}
    expr = {"op": "mul", "args": [const, {"op": "var", "i": 0}]}
    return {"dim": 1, "components": {"in": 1, "exprs": [expr]}}


# -- verify ---------------------------------------------------------------------


def test_verify_single_suite(capsys):
    rc = cli.main(["verify", "--suite", "sigma", "--seed", "7"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pass sigma" in out
    assert "overall: pass (1/1 units)" in out


def test_verify_unknown_suite(capsys):
    rc = cli.main(["verify", "--suite", "nope"])
    assert rc == 2
    assert "unknown suite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suites, message",
    [("", "names no suite"), (",", "names no suite"), ("sigma,sigma", "names sigma more than once")],
    ids=["empty", "comma", "repeated"],
)
def test_verify_rejects_an_empty_or_repeated_suite_list(capsys, suites, message):
    assert cli.main(["verify", "--suite", suites]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


def test_verify_rejects_bad_numbers(capsys):
    assert cli.main(["verify", "--suite", "sigma", "--tol", "-1"]) == 2
    assert cli.main(["verify", "--suite", "sigma", "--samples", "0"]) == 2


def test_verify_refuses_samples_past_the_limit_before_any_unit_runs(capsys, monkeypatch):
    ran = []

    def record(cfg, unit):
        ran.append(cfg.samples)
        return {"suite": unit.suite, "algebra": unit.label, "samples": 0, "max_error": 0.0,
                "status": "pass", "failures": []}

    monkeypatch.setattr(cli, "run_unit", record)
    argv = ["verify", "--suite", "exchange-square", "--algebra", "dual", "--samples"]
    assert cli.main(argv + ["10000000000000"]) == 2
    assert cli.main(argv + [str(cli.MAX_SAMPLES + 1)]) == 2
    assert ran == [] and "--samples" in capsys.readouterr().err
    assert cli.main(argv + [str(cli.MAX_SAMPLES)]) == 0
    assert ran == [cli.MAX_SAMPLES]


def test_verify_tolerance_cannot_tighten_an_exact_suite():
    assert cli.main(["verify", "--suite", "sigma", "--tol", "1e-99"]) == 0


def test_tol_does_not_relax_an_exact_suite(capsys, monkeypatch):
    # sigma compares exact matrices at tolerance 0, whatever --tol says
    make_S = strongdiff.make_S

    def off_by_1e_6():
        s = make_S()
        sigma = types.SimpleNamespace(matrix=s.sigma.matrix + np.eye(*s.sigma.matrix.shape) * 1e-6)
        return types.SimpleNamespace(algebra=s.algebra, sigma=sigma)

    monkeypatch.setattr(strongdiff, "make_S", off_by_1e_6)
    assert cli.main(["verify", "--suite", "sigma", "--tol", "1e-3"]) == 1
    assert "first failure: check=basis images deviation=1.000e-06" in capsys.readouterr().out


def test_verify_report_is_deterministic_and_schema_valid(tmp_path, capsys):
    suites = "sigma,projection-squares,locality"
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--suite", suites, "--seed", "7", "--report", str(r1)]) == 0
    assert cli.main(["verify", "--suite", suites, "--seed", "7", "--report", str(r2)]) == 0
    capsys.readouterr()
    doc1 = json.loads(r1.read_text())
    doc2 = json.loads(r2.read_text())
    assert documents_equal(doc1, doc2)
    schema = json.loads(
        resources.files("weilcalc").joinpath("data/report.schema.json").read_text()
    )
    jsonschema.validate(doc1, schema)
    assert doc1["seed"] == 7 and doc1["status"] == "pass"


def test_verify_reports_failures_with_exit_one(capsys, monkeypatch):
    def broken():
        return {"max_error": 2.0, "samples": 1, "failures": [{"trial": 0, "deviation": 2.0}]}

    monkeypatch.setattr(strongdiff, "check_sigma", broken)
    rc = cli.main(["verify", "--suite", "sigma"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "fail" in out
    assert "first failure: trial=0 deviation=2.000e+00" in out
    assert "overall: fail" in out


def test_verify_prints_the_error_of_a_unit_that_raised(capsys, monkeypatch):
    def broken():
        raise DomainError("log of non-positive real part -1.0")

    monkeypatch.setattr(strongdiff, "check_sigma", broken)
    assert cli.main(["verify", "--suite", "sigma"]) == 1
    assert "first failure: DomainError: log of non-positive real part -1.0" in capsys.readouterr().out


def test_repeated_verify_runs_reuse_exchange_homs(capsys, tmp_path):
    # each run loads its --algebra file afresh; the loaded algebra equals the
    # one of the run before, so the memoized constructors hand back what they
    # built then, and neither cache grows from run to run
    path = tmp_path / "a.json"
    save_algebra(tensor(make_basic("truncated", 1, 2), make_basic("dual")), path)
    argv = ["verify", "--suite", "exchange-square", "--samples", "5"]
    for args in (argv, argv + ["--algebra", str(path)]):
        sizes = []
        for _ in range(20):
            assert cli.main(args) == 0
            sizes.append((tensor.cache_info().currsize, exchange.cache_info().currsize))
        assert sizes == sizes[:1] * 20, args


def test_verify_unwritable_report_path(capsys):
    rc = cli.main(["verify", "--suite", "sigma", "--report", "/nonexistent/dir/r.json"])
    assert rc == 2


def test_verify_refuses_an_empty_report_path(capsys):
    rc = cli.main(["verify", "--suite", "sigma", "--report", ""])
    assert rc == 2
    assert "cannot write report" in capsys.readouterr().err


def test_verify_profile_times_every_unit_in_report_order_outside_the_report(tmp_path, capsys):
    plain, profiled, profile = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "p.json"
    argv = ["verify", "--suite", "all", "--seed", "7", "--samples", "2", "--report"]
    assert cli.main(argv + [str(plain)]) == 0
    console = capsys.readouterr().out
    assert cli.main(argv + [str(profiled), "--profile", str(profile)]) == 0
    assert capsys.readouterr().out == console
    doc = json.loads(profiled.read_text())
    assert documents_equal(doc, json.loads(plain.read_text()))
    units = json.loads(profile.read_text())
    assert len(units) == len(doc["suites"]) == 42
    assert [(u["suite"], u["label"], u["samples"]) for u in units] == [
        (e["suite"], e["algebra"], e["samples"]) for e in doc["suites"]
    ]
    keys = sorted(["label", "samples", "suite", "wall_s", *cli.work_counts()])
    assert all(sorted(u) == keys and u["wall_s"] > 0 for u in units)
    assert cli.main(["verify", "--suite", "sigma", "--profile", ""]) == 2
    assert "cannot write profile" in capsys.readouterr().err


def test_verify_profile_counts_sum_to_the_whole_run(tmp_path, capsys):
    profile = tmp_path / "p.json"
    before = cli.work_counts()
    assert cli.main(["verify", "--suite", "all", "--seed", "7", "--samples", "2", "--profile", str(profile)]) == 0
    whole = {name: n - before[name] for name, n in cli.work_counts().items()}
    assert sorted(whole) == sorted([
        "tape_compiles", "ops_compiled", "ops_run", "algebra_products", "product_compiles",
        "jacobian_oracle_calls", "flow_oracle_calls",
    ])
    units = json.loads(profile.read_text())
    assert {name: sum(u[name] for u in units) for name in whole} == whole
    assert 0 < whole["tape_compiles"] < whole["ops_compiled"]
    # a unit that compiles a tape runs it
    assert all(u["ops_run"] > 0 for u in units if u["tape_compiles"])
    by_suite = {}
    for u in units:
        totals = by_suite.setdefault(u["suite"], dict.fromkeys(whole, 0))
        for name in whole:
            totals[name] += u[name]
    # each oracle is called where its suite uses it, and products run in
    # every suite that lifts over an algebra
    assert by_suite["frame-prolong"]["flow_oracle_calls"] > 0
    assert by_suite["bracket"]["jacobian_oracle_calls"] > 0
    assert all(by_suite[s]["algebra_products"] > 0 for s in ("prolong-manifold", "functor-laws", "jet-group"))
    assert by_suite["sigma"]["algebra_products"] == 0
    # an algebra compiles its product at most once per process
    assert whole["product_compiles"] <= whole["algebra_products"]


def test_verify_algebra_override(capsys, tmp_path):
    rc = cli.main(["verify", "--suite", "exchange-square", "--algebra", "dual", "--samples", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dual" in out
    assert "(1/1 units)" in out
    # the same algebra provided as a file
    path = tmp_path / "d.json"
    save_algebra(make_basic("dual"), path)
    rc = cli.main(["verify", "--suite", "exchange-square", "--algebra", str(path), "--samples", "5"])
    assert rc == 0


def test_verify_with_a_custom_field_pair(capsys, manifold_fields):
    sq, one = manifold_fields
    rc = cli.main(
        ["verify", "--suite", "bracket", "--samples", "5", "--field", sq, "--field", one]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "custom pair" in out


def test_verify_rejects_a_field_with_a_non_finite_constant(capsys, manifold_fields, tmp_path):
    _, one = manifold_fields
    for i, c in enumerate((float("nan"), float("inf"), 10**400)):
        path = tmp_path / ("c%d.json" % i)
        path.write_text(json.dumps(_scaled_identity_field(c)))
        rc = cli.main(["verify", "--suite", "bracket", "--samples", "3", "--field", str(path), "--field", one])
        assert rc == 2
        assert "finite" in capsys.readouterr().err


def _field_doc(expr):
    return {"dim": 1, "components": {"in": 1, "exprs": [expr]}}


_X0 = {"op": "var", "i": 0}
_INF = {"op": "mul", "args": [{"op": "const", "c": 1e300}, {"op": "const", "c": 1e300}]}
# exp(1000*x0), (100*x0)^400 and sin(inf*x0): float evaluation overflows
# for x0 of order 1
_OVERFLOWING = [
    _field_doc({"op": "exp", "args": [{"op": "mul", "args": [{"op": "const", "c": 1000}, _X0]}]}),
    _field_doc({"op": "intpow", "k": 400, "args": [{"op": "mul", "args": [{"op": "const", "c": 100}, _X0]}]}),
    _field_doc({"op": "sin", "args": [{"op": "mul", "args": [_INF, _X0]}]}),
]


@pytest.mark.parametrize("tol", ["inf", "1e999"])
def test_verify_refuses_a_non_finite_tol(capsys, tmp_path, tol):
    # exp(30*x0) against x0 fails the custom pair by about 2.5e3; an
    # infinite --tol would pass every unit whose deviation is finite
    e30 = tmp_path / "e30.json"
    e30.write_text(json.dumps(_field_doc({"op": "exp", "args": [{"op": "mul", "args": [{"op": "const", "c": 30}, _X0]}]})))
    x = tmp_path / "x.json"
    x.write_text(json.dumps(_field_doc(_X0)))
    argv = ["verify", "--suite", "bracket", "--seed", "7", "--field", str(e30), "--field", str(x)]
    assert cli.main(argv) == 1
    assert "fail bracket                  custom pair" in capsys.readouterr().out
    assert cli.main(argv + ["--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol must be positive and finite" in captured.err


@pytest.mark.parametrize("doc", _OVERFLOWING, ids=["exp", "intpow", "sin"])
def test_verify_records_an_overflowing_custom_pair_as_failed(capsys, manifold_fields, tmp_path, doc):
    _, one = manifold_fields
    big = tmp_path / "big.json"
    big.write_text(json.dumps(doc))
    rc = cli.main(["verify", "--suite", "bracket", "--samples", "5", "--field", str(big), "--field", one])
    out = capsys.readouterr().out
    assert rc == 1
    lines = {line.split()[2]: line for line in out.splitlines() if line.startswith(("pass", "fail"))}
    assert lines["dims"].startswith("pass")
    assert lines["custom"].startswith("fail") and "DomainError" in lines["custom"]


def test_verify_records_an_infinite_custom_pair_as_a_domain_error(capsys, tmp_path):
    # 1e300*(1e300*x0) overflows to inf without raising; the pair's slots
    # then hold inf, and inf - inf must not slip through membership as NaN
    big = tmp_path / "big.json"
    big.write_text(json.dumps(_field_doc({"op": "mul", "args": [{"op": "const", "c": 1e300}, {"op": "mul", "args": [{"op": "const", "c": 1e300}, _X0]}]})))
    sq = tmp_path / "sq.json"
    sq.write_text(json.dumps(_field_doc({"op": "mul", "args": [_X0, _X0]})))
    report = tmp_path / "report.json"
    rc = cli.main(["verify", "--suite", "bracket", "--samples", "5", "--field", str(big), "--field", str(sq), "--report", str(report)])
    assert rc == 1
    lines = {line.split()[2]: line for line in capsys.readouterr().out.splitlines() if line.startswith(("pass", "fail"))}
    assert lines["custom"].startswith("fail") and "DomainError" in lines["custom"]
    got = next(e for e in json.loads(report.read_text())["suites"] if e["algebra"] == "custom pair")
    assert got["samples"] == 0 and got["failures"][0]["error"].startswith("DomainError")


def test_verify_custom_pair_reports_as_a_loop_over_single_points(capsys, manifold_fields, tmp_path):
    # log(x0) is undefined at about half the sampled points
    sq, _ = manifold_fields
    path = tmp_path / "log.json"
    path.write_text(json.dumps(_field_doc({"op": "log", "args": [_X0]})))
    report = tmp_path / "report.json"
    argv = ["verify", "--suite", "bracket", "--seed", "7", "--field", str(path), "--field", sq]
    assert cli.main(argv + ["--report", str(report)]) == 1
    capsys.readouterr()
    got = next(e for e in json.loads(report.read_text())["suites"] if e["algebra"] == "custom pair")

    # the reference: the scalar path, one point at a time, on the unit's draws
    x, y = cli.load_field(str(path)), cli.load_field(sq)
    rng = rng_for(7, "bracket", "custom")

    def deviations():
        for trial in range(20):
            at = rng.uniform(-1.0, 1.0, size=1)
            yield {"pair": 0, "trial": trial}, strongdiff.jacobian_bracket_deviation(x, y, at, richardson=True)

    try:
        result = tally(deviations(), 1e-6)
    except WeilError as err:
        result = {"max_error": float("inf"), "samples": 0, "failures": [{"error": "%s: %s" % (type(err).__name__, err)}]}
    want = report_from_check("bracket", "custom pair", result)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_verify_runs_a_functional_field_pair(capsys, functional_fields):
    f1, f2 = functional_fields
    argv = ["verify", "--suite", "prolong-functional,prolong-functional-jet", "--samples", "3"]
    assert cli.main(argv + ["--field", f1, "--field", f2]) == 0
    assert "overall: pass (4/4 units)" in capsys.readouterr().out


def test_verify_rejects_a_mismatched_functional_pair(capsys, functional_fields, tmp_path):
    f1, _ = functional_fields
    wide = tmp_path / "wide.json"
    zero = Program(1, [Const(0.0)])
    field = FunctionalVectorField(1, 2, 1, 0, zero, Program(4, [Var(1) * Var(3)]))
    wide.write_text(json.dumps(functional_field_to_json(field)))
    # the pair is checked at input, also when no selected suite reads it
    for suite in ("prolong-functional", "sigma"):
        rc = cli.main(["verify", "--suite", suite, "--field", f1, "--field", str(wide)])
        assert rc == 2
        assert "mismatched signatures" in capsys.readouterr().err


@pytest.mark.parametrize("count", [1, 3])
def test_verify_rejects_one_or_three_fields(capsys, manifold_fields, functional_fields, count):
    # one or three fields of a kind used to be dropped silently
    for path in (manifold_fields[0], functional_fields[0]):
        argv = ["verify", "--suite", "bracket", "--samples", "2"] + ["--field", path] * count
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "got %d" % count in captured.err


@pytest.mark.parametrize("command", [["verify", "--suite", "bracket", "--samples", "3"], ["bracket"]])
def test_a_field_on_r0_is_malformed_input(capsys, tmp_path, command):
    zero = tmp_path / "zero.json"
    zero.write_text(json.dumps({"dim": 0, "components": {"in": 0, "out": 0, "exprs": []}}))
    assert cli.main(command + ["--field", str(zero), "--field", str(zero)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dim >= 1" in err and "Traceback" not in err


# JSON true is a Python int; each integer slot of a manifold field must refuse it
_BOOLEAN_FIELDS = {
    "dim-and-in": {"dim": True, "components": {"in": True, "exprs": [_X0]}},
    "out": {"dim": 1, "components": {"in": 1, "out": True, "exprs": [_X0]}},
    "var-i": _field_doc({"op": "var", "i": True}),
    "intpow-k": _field_doc({"op": "intpow", "k": True, "args": [_X0]}),
}


@pytest.mark.parametrize("name", sorted(_BOOLEAN_FIELDS))
def test_a_field_with_a_boolean_for_an_integer_is_malformed_input(capsys, manifold_fields, tmp_path, name):
    _, one = manifold_fields
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(_BOOLEAN_FIELDS[name]))
    assert cli.main(["bracket", "--field", str(path), "--field", one, "--at", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


_X0_PLUS_1 = {"op": "add", "args": [_X0, {"op": "const", "c": 1}]}


def _power(base, k):
    return {"op": "intpow", "k": k, "args": [base]}


@pytest.mark.parametrize(
    "expr",
    [_power(_X0_PLUS_1, 10**6), _power(_power(_X0_PLUS_1, 1000), 1000)],
    ids=["sum", "nested"],
)
def test_bracket_refuses_a_rendering_past_the_text_limit(capsys, manifold_fields, tmp_path, expr):
    # the dual lift squares repeatedly: a small DAG whose text would
    # take 231 MB; at exponent 10^8 it would pass any memory
    _, one = manifold_fields
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_field_doc(expr)))
    assert cli.main(["bracket", "--field", str(path), "--field", one, "--at", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "TextTooLong" in captured.err


def test_bracket_prints_a_long_power_of_one_term_as_a_power(capsys, manifold_fields, tmp_path):
    _, one = manifold_fields
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(_field_doc(_power(_X0, 10**7))))
    assert cli.main(["bracket", "--field", str(path), "--field", one, "--at", "1"]) == 0
    assert capsys.readouterr().out == "[X,Y]_0 = -10000000*x^9999999\nat (1) -> (-1e+07)\n"


def _functional_doc(m, q1, r, d_in):
    """A functional field document with q2 = 1, a zero base field and the
    vertical map that reads its last input; keys are written as given."""
    return {
        "m": m, "q1": q1, "q2": 1, "r": r,
        "xi": {"in": int(m), "exprs": [{"op": "const", "c": 0.0}] * int(m)},
        "D": {"in": d_in, "exprs": [{"op": "var", "i": d_in - 1}]},
    }


_HOSTILE_FUNCTIONAL = {
    # name: ((m, q1, r, inputs of D), message)
    "bool-m": ((True, 1, 0, 3), "'m' must be a non-negative integer"),
    "negative-r": ((1, 1, -1, 2), "'r' must be a non-negative integer"),
    "negative-q1": ((1, -1, 0, 1), "'q1' must be a non-negative integer"),
    "m-zero": ((0, 1, 0, 2), "needs m >= 1"),
    "jets-without-source": ((1, 0, 1, 2), "order 1 needs q1 >= 1"),
}


@pytest.mark.parametrize("command", [["verify", "--suite", "prolong-functional-jet", "--samples", "3"], ["bracket"]])
@pytest.mark.parametrize("name", sorted(_HOSTILE_FUNCTIONAL))
def test_a_functional_field_with_a_bad_signature_is_malformed_input(capsys, tmp_path, command, name):
    signature, message = _HOSTILE_FUNCTIONAL[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_functional_doc(*signature)))
    assert cli.main(command + ["--field", str(path), "--field", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err


def test_a_q1_zero_order_zero_field_still_loads():
    # the fibred-manifold case that g_field_prolong builds
    field = functional.functional_field_from_json(_functional_doc(1, 0, 0, 2))
    assert (field.m, field.q1, field.q2, field.r) == (1, 0, 1, 0)


def _functional_pair_files(tmp_path, m, seed):
    rng = np.random.default_rng(seed)
    paths = []
    for k in range(2):
        path = tmp_path / ("f%d.json" % k)
        path.write_text(json.dumps(functional_field_to_json(functional.random_functional_field(rng, m, 1, 1, 1))))
        paths += ["--field", str(path)]
    return paths


def test_prolong_functional_jet_runs_a_field_pair_at_its_base_dimension(capsys, tmp_path):
    argv = ["verify", "--suite", "prolong-functional-jet", "--samples", "5"]
    assert cli.main(argv + _functional_pair_files(tmp_path, 2, 5)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["pass", "prolong-functional-jet", "jet(2,1)"]


def test_a_functional_pair_past_the_jet_limit_is_refused_before_any_unit(capsys, tmp_path):
    pair = _functional_pair_files(tmp_path, 5, 6)
    assert cli.main(["verify", "--suite", "sigma,prolong-functional-jet", "--samples", "1"] + pair) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prolong-functional-jet needs jet(5,1)" in captured.err and "m <= 4" in captured.err
    # a suite that builds no jet triple still takes the pair
    assert cli.main(["verify", "--suite", "sigma"] + pair) == 0


def test_verify_reports_suites_in_the_order_given(capsys):
    assert cli.main(["verify", "--suite", "locality,sigma", "--samples", "2"]) == 0
    units = [line.split()[1:3] for line in capsys.readouterr().out.splitlines()[:-1]]
    assert units == [
        ["locality", "F(m=1;1,1;r=1)"],
        ["locality", "F(m=1;1,1;r=2)"],
        ["locality", "F(m=1;2,1;r=1)"],
        ["sigma", "S"],
    ]


def _config(samples=None, algebras=None, fields=()):
    """The config of `verify --suite all` with these options."""
    return cli.SuiteConfig(
        suites=list(cli.SUITES), seed=0, tol=None, samples=samples, algebras=algebras, fields=list(fields)
    )


def test_the_unit_table_lists_the_suites_in_report_order():
    table = cli._unit_table(_config())
    assert tuple(dict.fromkeys(unit.suite for unit in table)) == cli.SUITES


def test_every_row_passes_rng_samples_and_tol_to_a_check_without_defaults():
    # the row is the one place a unit's sample count and tolerance are written
    pair = [VectorField(1, Program(1, [intpow(Var(0), 2)])), VectorField(1, Program(1, [Const(1.0)]))]
    table = cli._unit_table(_config(fields=pair))
    checked = 0
    for unit in table:
        check = unit.check.func if isinstance(unit.check, partial) else unit.check
        if check is cli._unsampled:
            continue
        params = inspect.signature(check).parameters
        for name in ("rng", "samples", "tol"):
            p = params[name]
            assert p.kind is p.KEYWORD_ONLY and p.default is p.empty, (unit.suite, unit.label, name)
        checked += 1
    assert checked == len(table) - 11  # the sigma row and the ten projection-squares rows draw nothing


def test_every_sampled_check_takes_its_rng_as_a_required_keyword():
    modules = (functional, functor, jets, prolong, strongdiff)
    checks = [
        f for m in modules for name, f in vars(m).items()
        if name.startswith("check_") and f.__module__ == m.__name__
    ]
    sampled = [f for f in checks if "rng" in inspect.signature(f).parameters]
    assert len(sampled) == 11
    for f in sampled:
        rng = inspect.signature(f).parameters["rng"]
        assert rng.kind is rng.KEYWORD_ONLY and rng.default is rng.empty, f.__qualname__


# (suite, label, samples) of every unit under one --algebra override and
# --samples 2, as generated by the per-suite builders the unit table replaced
_OVERRIDE_UNITS = [
    ("sigma", "S", 25),
    ("bracket", "dims 1-3", 120),
    ("prolong-manifold", "truncated(1,2)", 20),
    ("exchange-square", "truncated(1,2)", 2),
    ("projection-squares", "truncated(1,2),truncated(1,2),truncated(1,2)", 1),
    ("projection-squares", "tangent:truncated(1,2)", 3),
    ("functor-laws", "truncated(1,2) over truncated(1,2)", 2),
    ("jet-group", "jets(1,2)", 2),
    ("jet-group", "jets(2,1)", 2),
    ("jet-group", "jets(2,2)", 2),
    ("frame-prolong", "frames(1,1)", 2),
    ("frame-prolong", "frames(1,2)", 2),
    ("frame-prolong", "frames(2,1)", 2),
    ("prolong-jet", "jet(1,1)", 2),
    ("prolong-jet", "jet(1,2)", 2),
    ("prolong-jet", "jet(2,1)", 2),
    ("prolong-jet", "jet(1,1) classical", 2),
    ("prolong-functional", "truncated(1,2)", 2),
    ("prolong-functional", "poly-family d=3", 2),
    ("prolong-functional-jet", "jet(1,1)", 2),
    ("locality", "F(m=1;1,1;r=1)", 2),
    ("locality", "F(m=1;1,1;r=2)", 2),
    ("locality", "F(m=1;2,1;r=1)", 2),
]


def test_an_algebra_override_runs_the_pinned_units():
    doc = cli.run_suites(_config(samples=2, algebras=[make_basic("truncated", 1, 2)]))
    assert [(e["suite"], e["algebra"], e["samples"]) for e in doc["suites"]] == _OVERRIDE_UNITS
    assert doc["status"] == "pass"


def test_an_algebra_too_large_for_a_suite_is_refused_before_any_unit_runs(capsys, monkeypatch):
    def ran(*args, **kwargs):
        pytest.fail("a unit ran")

    for name in ("check_exchange_square", "check_projection_squares", "check_tangent_projection_identities"):
        monkeypatch.setattr(strongdiff, name, ran)
    monkeypatch.setattr(functor, "check_iterated_lift", ran)
    suites = "exchange-square,functor-laws,projection-squares"
    assert cli.main(["verify", "--suite", suites, "--algebra", "truncated(1,16)", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert "exchange-square needs tensor(A,S) of dim 85 (limit 64)" in err
    assert "functor-laws needs tensor(A,A) of dim 289 (limit 64)" in err
    assert "projection-squares needs A (x) A (x) A of dim 4913 (limit 4096)" in err
    # dim 13: only the suites named need more than the limit
    argv = ["verify", "--suite", "exchange-square,functor-laws", "--algebra", "truncated(1,12)", "--samples", "2"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "dim 65" in err and "dim 169" in err and "projection-squares" not in err


def test_an_algebra_with_its_unit_off_basis_vector_zero_is_refused_by_the_tensor_suites(
    capsys, monkeypatch, tmp_path
):
    # a valid Weil algebra whose unit is basis vector 1: the two suites that
    # build tensor products with it refuse it up front, the others run it
    doc = {"name": "dualswap", "dim": 2, "basis": ["e", "1"], "unit_index": 1,
           "structure": [[1, 1, 1, 1.0], [1, 0, 0, 1.0], [0, 1, 0, 1.0]]}
    path = tmp_path / "dualswap.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["algebra", "check", str(path)]) == 0
    capsys.readouterr()

    def ran(*args, **kwargs):
        pytest.fail("a unit ran")

    monkeypatch.setattr(cli, "run_unit", ran)
    argv = ["verify", "--samples", "2", "--algebra", str(path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--algebra dualswap has its unit at basis vector 1" in err
    assert "exchange-square builds tensor(A,S); functor-laws builds tensor(A,A)" in err
    assert cli.main(argv[:1] + ["--suite", "functor-laws,sigma"] + argv[1:]) == 2
    err = capsys.readouterr().err
    assert "functor-laws builds tensor(A,A)" in err and "exchange-square" not in err
    monkeypatch.undo()
    suites = "prolong-manifold,projection-squares,prolong-functional"
    assert cli.main(argv[:1] + ["--suite", suites] + argv[1:]) == 0
    assert "overall: pass (5/5 units)" in capsys.readouterr().out


def test_an_algebra_within_a_suite_limit_still_runs(capsys):
    argv = ["verify", "--suite", "exchange-square", "--algebra", "truncated(1,8)", "--samples", "2"]
    assert cli.main(argv) == 0
    assert "pass exchange-square          truncated(1,8)" in capsys.readouterr().out


# -- bracket --------------------------------------------------------------------


def test_bracket_renders_and_evaluates(capsys, manifold_fields):
    sq, one = manifold_fields
    rc = cli.main(["bracket", "--field", sq, "--field", one])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-2*x" in out
    rc = cli.main(["bracket", "--field", sq, "--field", one, "--at", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-6" in out


def test_bracket_of_a_field_with_itself_is_zero(capsys, manifold_fields):
    sq, _ = manifold_fields
    rc = cli.main(["bracket", "--field", sq, "--field", sq])
    out = capsys.readouterr().out
    assert rc == 0
    assert "= 0" in out


def test_functional_bracket_output(capsys, functional_fields):
    f1, f2 = functional_fields
    rc = cli.main(["bracket", "--field", f1, "--field", f2])
    out = capsys.readouterr().out
    assert rc == 0
    assert "D_0 = z0" in out


def test_bracket_usage_errors(capsys, manifold_fields, functional_fields, tmp_path):
    sq, one = manifold_fields
    f1, _ = functional_fields
    assert cli.main(["bracket", "--field", sq]) == 2  # needs exactly two
    assert cli.main(["bracket", "--field", sq, "--field", f1]) == 2  # mixed kinds
    assert cli.main(["bracket", "--field", f1, "--field", f1, "--at", "1"]) == 2
    dim2 = tmp_path / "dim2.json"
    dim2.write_text(
        json.dumps(field_to_json(VectorField(2, Program(2, [Var(0), Var(1)]))))
    )
    assert cli.main(["bracket", "--field", sq, "--field", str(dim2)]) == 2
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(_scaled_identity_field(float("nan"))))
    assert cli.main(["bracket", "--field", str(nan), "--field", sq]) == 2
    assert cli.main(["bracket", "--field", str(nan), "--field", sq, "--at", "1"]) == 2
    # json.dumps would itself recurse, so the nesting is written out as text
    deep = tmp_path / "deep.json"
    chain = '{"op": "neg", "args": [' * 5000 + '{"op": "var", "i": 0}' + "]}" * 5000
    deep.write_text('{"dim": 1, "components": {"in": 1, "exprs": [%s]}}' % chain)
    assert cli.main(["bracket", "--field", str(deep), "--field", sq]) == 2
    assert "nested too deeply" in capsys.readouterr().err
    # a point outside the field's domain: log(x0) at -1
    log = tmp_path / "log.json"
    log.write_text(json.dumps(_field_doc({"op": "log", "args": [_X0]})))
    ident = tmp_path / "ident.json"
    ident.write_text(json.dumps(_field_doc(_X0)))
    assert cli.main(["bracket", "--field", str(log), "--field", str(ident), "--at", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "undefined at (-1)" in captured.err and "DomainError" in captured.err
    # 1e300^40 overflows while the bracket is formed, for either kind of field
    big = Mul(IntPow(Const(1e300), 40), Var(0))
    big_doc = tmp_path / "big.json"
    big_doc.write_text(json.dumps(field_to_json(VectorField(1, Program(1, [big])))))
    assert cli.main(["bracket", "--field", str(big_doc), "--field", one]) == 2
    assert "cannot form the bracket: DomainError" in capsys.readouterr().err
    zero = Program(1, [Const(0.0)])
    fbig, fone = tmp_path / "fbig.json", tmp_path / "fone.json"
    fbig.write_text(json.dumps(functional_field_to_json(
        FunctionalVectorField(1, 1, 1, 0, Program(1, [big]), Program(3, [Var(1) * Var(2)]))
    )))
    fone.write_text(json.dumps(functional_field_to_json(
        FunctionalVectorField(1, 1, 1, 0, zero, Program(3, [Var(2)]))
    )))
    assert cli.main(["bracket", "--field", str(fbig), "--field", str(fone)]) == 2
    assert "cannot form the bracket: DomainError" in capsys.readouterr().err


# runs each argv of a JSON list through cli.main in this one process and
# prints a JSON list of [exit code, stdout, stderr], one per call
_CALLS = """
import contextlib, io, json, sys
from weilcalc import cli
done = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as stop:
            rc = stop.code
    done.append([rc, out.getvalue(), err.getvalue()])
print(json.dumps(done))
"""


def _calls_in_one_process(*argvs) -> list:
    src = str(Path(cli.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _CALLS, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
    )
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


# the totals of a `verify --suite all --seed 7` pass in a fresh process, as
# measured when each Taylor series became one compiled kernel: a change may
# lower a count of work, and must name any count it raises
WORK_BUDGET = {
    "tape_compiles": 129, "ops_compiled": 11191, "ops_run": 27045, "algebra_products": 2303,
    "product_compiles": 9, "jacobian_oracle_calls": 9, "flow_oracle_calls": 60,
}


def test_a_fresh_verify_pass_does_no_more_work_than_its_budget(tmp_path):
    profile = tmp_path / "p.json"
    [(rc, _, _)] = _calls_in_one_process(["verify", "--suite", "all", "--seed", "7", "--profile", str(profile)])
    assert rc == 0
    units = json.loads(profile.read_text())
    totals = {name: sum(u[name] for u in units) for name in ["samples", *WORK_BUDGET]}
    assert totals["samples"] == 5229
    assert {name: n for name, n in totals.items() if n > WORK_BUDGET.get(name, n)} == {}


def test_the_parser_is_built_once_and_keeps_no_state_between_calls(manifold_fields):
    assert cli._parser() is cli._parser()
    sq, one = manifold_fields
    argvs = (
        ["bracket", "--field", sq],  # needs exactly two: exit 2
        ["bracket", "--field", sq, "--field", one, "--at", "0.5"],
        ["verify", "--suite", "sigma", "--seed", "7"],
        ["bracket"],  # argparse's own error: --field is required
        ["bracket", "--field", one, "--field", sq],
    )
    together = _calls_in_one_process(*argvs)
    alone = [_calls_in_one_process(argv)[0] for argv in argvs]
    assert together == alone
    assert [rc for rc, _, _ in together] == [2, 0, 0, 2, 0]


def test_bracket_prints_no_coefficient_past_the_float_range(capsys, manifold_fields, tmp_path):
    # expanding (100*x0)^399 folds 100^399 = inf into a coefficient, and
    # -inf*x^399 is NaN at 0; such a subtree must stay structural
    _, one = manifold_fields
    big = tmp_path / "big.json"
    big.write_text(json.dumps(_OVERFLOWING[1]))
    assert cli.main(["bracket", "--field", str(big), "--field", one]) == 0
    out = capsys.readouterr().out
    assert "inf" not in out and "nan" not in out
    e = strongdiff.bracket(cli.load_field(str(big)), cli.load_field(one)).components.exprs[0]
    s = simplify(e)
    both = Program(1, [s, e])
    assert evaluate(both, [0.0]) == [0.0, 0.0]
    assert math.isclose(*evaluate(both, [0.01]), rel_tol=1e-12)


def _manifold_doc(*exprs):
    return field_to_json(VectorField(len(exprs), Program(len(exprs), list(exprs))))


_x0, _x1 = Var(0), Var(1)
# field pairs and the text `weilcalc bracket` printed for them when this
# test was written; simplify's term order and atom forms are pinned here,
# and test_bracket_text_evaluates_to_the_bracket checks each one by value
_BRACKET_TEXT = {
    "sq-one": (
        _manifold_doc(intpow(_x0, 2)),
        _manifold_doc(Const(1.0)),
        "[X,Y]_0 = -2*x\n",
    ),
    "sin-cos": (
        _manifold_doc(prim("sin", _x0) * _x1, _x0 * _x0 + _x1),
        _manifold_doc(_x1 - 2 * _x0, prim("cos", _x0 * _x1)),
        "[X,Y]_0 = x1 - cos(x0*x1)*sin(x0) - 2*sin(x0)*x1 + x0^2 + 2*cos(x0)*x0*x1 - cos(x0)*x1^2\n"
        "[X,Y]_1 = -cos(x0*x1) - 2*x0*x1 + 4*x0^2 - sin(x0*x1)*x0*x1 - sin(x0*x1)*sin(x0)*x1^2"
        " - sin(x0*x1)*x0^3\n",
    ),
    "exp-log": (
        _manifold_doc(prim("exp", _x0) * _x1, 3 * _x0 - _x1 ** 3),
        _manifold_doc(prim("log", _x1) + _x0 ** 2, _x0 * _x1),
        "[X,Y]_0 = 3*x0*x1^-1 - x1^2 - exp(x0)*log(x1)*x1 + exp(x0)*x0*x1 - exp(x0)*x0^2*x1\n"
        "[X,Y]_1 = -3*log(x1) + exp(x0)*x1^2 + 2*x0*x1^3\n",
    ),
    "div": (
        _manifold_doc(_x0 / _x1, _x1 ** 2 + 1),
        _manifold_doc(_x1, 1 / (_x0 + _x1 ** 2)),
        "[X,Y]_0 = (x0 + x1^2)^-1*x0*x1^-2 + x1^2\n"
        "[X,Y]_1 = -((x0 + x1^2)^-2*x0*x1^-1) - 2*(x0 + x1^2)^-2*x1 - 2*(x0 + x1^2)^-1*x1"
        " - 2*(x0 + x1^2)^-2*x1^3\n",
    ),
    "mixed": (
        _manifold_doc(prim("sqrt", _x0) * prim("sin", _x1) - _x0 ** -2, prim("exp", _x1 / _x0)),
        _manifold_doc(prim("cos", _x0 + _x1), _x0 * prim("log", _x0 ** 2 + 1)),
        "[X,Y]_0 = -2*cos(x0 + x1)*x0^-3 + sin(x0 + x1)*x0^-2 - 0.5*cos(x0 + x1)*sin(x1)*sqrt(x0)*x0^-1"
        " - exp(x0^-1*x1)*sin(x0 + x1) - sin(x0 + x1)*sin(x1)*sqrt(x0)"
        " - cos(x1)*log(1 + x0^2)*sqrt(x0)*x0\n"
        "[X,Y]_1 = -2*(1 + x0^2)^-1 - log(1 + x0^2)*x0^-2 + cos(x0 + x1)*exp(x0^-1*x1)*x0^-2*x1"
        " - exp(x0^-1*x1)*log(1 + x0^2) + 2*(1 + x0^2)^-1*sin(x1)*sqrt(x0)*x0^2"
        " + log(1 + x0^2)*sin(x1)*sqrt(x0)\n",
    ),
    "functional": (
        functional_field_to_json(FunctionalVectorField(
            1, 1, 1, 1, Program(1, [prim("sin", _x0)]), Program(4, [Var(2) * Var(3) + Var(1)])
        )),
        functional_field_to_json(FunctionalVectorField(
            1, 1, 1, 0, Program(1, [_x0 ** 2]), Program(3, [prim("exp", Var(2)) * _x0])
        )),
        "functional bracket: m=1 q1=1 q2=1 order=1\n"
        "xi_0 = 2*sin(x0)*x0 - cos(x0)*x0^2\n"
        "D_0 = exp(z0)*sin(x0) + exp(z0)*x0*y0 - exp(z0)*x0*z1\n",
    ),
}


def _pin_files(tmp_path, name):
    x, y, _ = _BRACKET_TEXT[name]
    px, py = tmp_path / "x.json", tmp_path / "y.json"
    px.write_text(json.dumps(x))
    py.write_text(json.dumps(y))
    return str(px), str(py)


@pytest.mark.parametrize("name", sorted(_BRACKET_TEXT))
def test_bracket_prints_the_expected_text(capsys, tmp_path, name):
    px, py = _pin_files(tmp_path, name)
    assert cli.main(["bracket", "--field", px, "--field", py]) == 0
    assert capsys.readouterr().out == _BRACKET_TEXT[name][2]


@pytest.mark.parametrize("name", sorted(_BRACKET_TEXT))
def test_bracket_text_evaluates_to_the_bracket(tmp_path, name):
    # each pinned text, read back as Python, equals the bracket at three
    # points, so a regenerated pin cannot drift into wrong math
    x, y = (cli.load_field(p) for p in _pin_files(tmp_path, name))
    lines = _BRACKET_TEXT[name][2].splitlines()
    if isinstance(x, VectorField):
        names = ["x"] if x.dim == 1 else ["x%d" % i for i in range(x.dim)]
        want = lambda at: strongdiff.bracket_value(x, y, at[: x.dim])
    else:
        br = functional.functional_bracket(x, y)
        names = functional.layout_names(br.m, br.q1, br.q2, br.r)
        lines = lines[1:]
        want = lambda at: evaluate(Program(len(names), br.xi.exprs + br.D.exprs), at[: len(names)])
    env = {"__builtins__": {}, **{f: getattr(math, f) for f in PRIMITIVES}}
    for at in ([0.7, 1.3, -0.4, 0.9, 0.5], [1.9, 0.4, 0.6, -1.1, -0.8], [0.35, 2.2, 1.5, 0.2, 1.2]):
        env.update(zip(names, at))
        got = [eval(line.split(" = ", 1)[1].replace("^", "**"), env) for line in lines]
        assert np.allclose(got, want(at), rtol=1e-12, atol=1e-12), (name, at)


def test_bracket_refuses_a_non_finite_value_at_a_point(capsys, manifold_fields, tmp_path):
    # the bracket -10^7 x^9999999 overflows to -inf at 2; the refusal comes
    # before any bracket text is printed
    _, one = manifold_fields
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps(_field_doc(_power(_X0, 10**7))))
    assert cli.main(["bracket", "--field", str(steep), "--field", one, "--at", "2"]) == 2
    captured = capsys.readouterr()
    assert "undefined at (2)" in captured.err and "not finite" in captured.err
    assert captured.out == ""


def test_functional_field_past_the_jet_limit_exits_two_before_listing_monomials(capsys, monkeypatch, tmp_path):
    def refuse(*args):
        raise AssertionError("the loader listed monomials")

    monkeypatch.setattr(functional, "monomials", refuse)
    monkeypatch.setattr(functional, "monomial_index", refuse)
    doc = {"m": 1, "q1": 40, "q2": 1, "r": 40, "xi": program_to_json(Program(1, [Const(0.0)])),
           "D": program_to_json(Program(3, [Var(0)]))}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["bracket", "--field", str(path), "--field", str(path)]) == 2
    assert "truncated(40,40)" in capsys.readouterr().err


@pytest.mark.parametrize("at", ["1,,2", "1,2,", ",1,2"])
def test_bracket_refuses_an_empty_coordinate(capsys, tmp_path, at):
    x = tmp_path / "x.json"
    y = tmp_path / "y.json"
    x.write_text(json.dumps(_manifold_doc(Var(1), Var(0))))
    y.write_text(json.dumps(_manifold_doc(Var(0), Const(1.0))))
    argv = ["bracket", "--field", str(x), "--field", str(y)]
    assert cli.main(argv + ["--at", "1, 2"]) == 0
    assert "at (1, 2) -> " in capsys.readouterr().out
    assert cli.main(argv + ["--at=" + at]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--at expects comma-separated floats" in captured.err


@pytest.mark.parametrize("at", ["nan", "inf", "-inf", "1e999"])
def test_bracket_rejects_non_finite_points(capsys, manifold_fields, at):
    sq, one = manifold_fields
    assert cli.main(["bracket", "--field", sq, "--field", one, "--at=" + at]) == 2
    assert "finite" in capsys.readouterr().err


# -- algebra --------------------------------------------------------------------


def test_algebra_show(capsys):
    rc = cli.main(["algebra", "show", "truncated(1,2)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "dim 3, width 1, height 2" in out
    assert "x * x = x^2" in out


@pytest.mark.parametrize("verb", ["show", "check"])
def test_algebra_show_and_check_refuse_report(capsys, tmp_path, verb):
    path = tmp_path / "x.json"
    assert cli.main(["algebra", verb, "dual", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--report applies to algebra build, not algebra %s" % verb in captured.err
    assert not path.exists()


@pytest.mark.parametrize("verb", ["show", "check"])
def test_algebra_show_and_check_refuse_show(capsys, verb):
    assert cli.main(["algebra", verb, "dual", "--show"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--show applies to algebra build, not algebra %s" % verb in captured.err


@pytest.mark.parametrize(
    "doc",
    [
        {"name": "r", "dim": 1, "basis": ["1"], "unit_index": False, "structure": [[False, 0, False, 1]]},
        {"name": "r", "dim": 1, "basis": ["1"], "unit_index": 0, "structure": [[False, 0, False, 1]]},
    ],
    ids=["unit_index", "structure"],
)
def test_algebra_file_with_a_boolean_for_an_integer_is_malformed(capsys, tmp_path, doc):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["algebra", "check", str(path)]) == 2
    assert cli.main(["verify", "--suite", "sigma", "--algebra", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "axiom" not in captured.err


def test_algebra_check_constructor_expression(capsys):
    assert cli.main(["algebra", "check", "tensor(dual, truncated(2,1))"]) == 0
    assert cli.main(["algebra", "check", "tensor(S(), dual)"]) == 0


def test_algebra_build_pair_algebra_prints_sigma(capsys):
    rc = cli.main(["algebra", "build", "S()", "--show"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "e1e2 -> e" in out
    assert "E1E2 -> -e" in out


def test_algebra_build_refuses_an_empty_report_path(capsys):
    rc = cli.main(["algebra", "build", "dual", "--report", ""])
    assert rc == 2
    assert "cannot write algebra" in capsys.readouterr().err


def test_algebra_build_writes_a_loadable_document(tmp_path, capsys):
    path = tmp_path / "t12.json"
    rc = cli.main(["algebra", "build", "truncated(1,2)", "--report", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc == algebra_to_json(make_basic("truncated", 1, 2))


def test_algebra_check_flags_axiom_failures(tmp_path, capsys):
    doc = algebra_to_json(make_basic("dual"))
    doc["structure"] = doc["structure"] + [[1, 1, 0, 1.0]]
    del doc["height"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    # verify --algebra reports the same failure the same way
    for command in (["algebra", "check"], ["verify", "--suite", "sigma", "--algebra"]):
        rc = cli.main(command + [str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == "" and captured.err.startswith("axiom failure:")


def _non_local(dim):
    """R x R[x]/(x^(dim-1)) on the basis 1, e, v, ..., v^(dim-2), with e*e = e
    and e*v = 0 (dim 2 is R x R): a unital algebra whose non-unit span is
    an ideal that holds the idempotent e, so no power of it vanishes."""
    c = np.zeros((dim, dim, dim))
    c[0] = c[:, 0] = np.eye(dim)
    c[1, 1, 1] = 1.0
    for a in range(1, dim - 1):
        for b in range(1, dim - 1 - a):
            c[a + 1, b + 1, a + b + 1] = 1.0
    return ["1", "e"] + ["v^%d" % a for a in range(1, dim - 1)], c


@pytest.mark.parametrize("dim", [2, 5], ids=["RxR", "RxR[x]/(x^4)"])
def test_an_algebra_with_an_idempotent_is_refused_as_not_local(tmp_path, capsys, dim):
    basis, c = _non_local(dim)
    with pytest.raises(InvariantViolation, match="ideal powers do not vanish"):
        WeilAlgebra("nonlocal", basis, c)
    doc = {"name": "nonlocal", "dim": dim, "basis": basis, "unit_index": 0,
           "structure": [[*map(int, at), 1.0] for at in zip(*np.nonzero(c))]}
    path = tmp_path / "nonlocal.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["algebra", "check", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("axiom failure:")
    assert "ideal powers do not vanish" in captured.err


@pytest.mark.parametrize("bad", [math.inf, math.nan, 10**400], ids=["inf", "nan", "10^400"])
def test_non_finite_structure_constants_are_malformed_input(tmp_path, capsys, bad):
    doc = {"name": "d", "dim": 2, "basis": ["1", "e"], "unit_index": 0,
           "structure": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, bad]]}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    for command in (["algebra", "check"], ["verify", "--suite", "exchange-square", "--algebra"]):
        rc = cli.main(command + [str(path)])
        captured = capsys.readouterr()
        assert rc == 2, command
        assert captured.err.startswith("error:") and "Traceback" not in captured.err


@pytest.mark.parametrize("fields", [
    {"name": ["x", {"y": 1}], "basis": [1, None]},
    {"name": 7},
    {"basis": ["1", None]},
], ids=["both", "name", "basis"])
def test_an_algebra_document_needs_strings_for_name_and_basis(tmp_path, capsys, fields):
    doc = {"name": "d", "dim": 2, "basis": ["1", "e"], "unit_index": 0,
           "structure": [[0, 0, 0, 1.0], [0, 1, 1, 1.0], [1, 0, 1, 1.0]], **fields}
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    for verb in ("show", "check"):
        assert cli.main(["algebra", verb, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "must be strings" in captured.err


def test_algebra_check_rejects_a_stale_width(tmp_path, capsys):
    doc = algebra_to_json(make_basic("truncated", 2, 2))
    doc["width"] = 7
    path = tmp_path / "t22.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["algebra", "check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "stored width 7" in captured.err


def test_a_warm_verify_pass_builds_only_the_pair_algebra_check_sigma_rebuilds(monkeypatch, capsys):
    argv = ["verify", "--suite", "sigma,exchange-square,projection-squares,functor-laws,frame-prolong",
            "--samples", "2", "--seed", "7"]
    assert cli.main(argv) == 0
    built = []
    original = WeilAlgebra.__init__

    def counted(self, name, *args, **kwargs):
        built.append(name)
        original(self, name, *args, **kwargs)

    monkeypatch.setattr(WeilAlgebra, "__init__", counted)
    assert cli.main(argv) == 0
    assert built == ["S"]


def test_algebra_build_report_is_save_algebra_output(tmp_path, capsys):
    built, saved = tmp_path / "built.json", tmp_path / "saved.json"
    argv = ["algebra", "build", "tensor(dual,truncated(1,2))", "--report", str(built)]
    assert cli.main(argv) == 0
    save_algebra(tensor(make_basic("dual"), make_basic("truncated", 1, 2)), saved)
    assert built.read_bytes() == saved.read_bytes()


@pytest.mark.parametrize(
    "command",
    [["algebra", "check"], ["verify", "--suite", "sigma", "--algebra"]],
    ids=["algebra-check", "verify"],
)
@pytest.mark.parametrize(
    "spec, message",
    [
        ("truncated(0,2)", "truncated needs k >= 1"),
        ("sum(dual," * 2000 + "dual" + ")" * 2000, "nested too deeply"),
        ("truncated(6,6)", "dim 924"),
        ("truncated(5,4)", "dim 126"),
        ("tensor(truncated(3,3),truncated(2,2))", "dim 120"),
        ("sum(truncated(1,32),truncated(1,32))", "dim 65"),
        ("truncated(100000000,1)", "k and r below 64"),
        ("big.json", "dim 1000"),
    ],
    ids=["truncated-0", "nested-2000", "truncated-6-6", "truncated-5-4", "tensor-120", "sum-65",
         "huge-k", "document-1000"],
)
def test_hostile_algebra_specs_are_malformed_input(monkeypatch, capsys, tmp_path, command, spec, message):
    original = WeilAlgebra.__init__

    def guarded(self, name, basis_labels, *args, **kwargs):
        # a size guard that lets an algebra through fails here, before validation allocates
        assert len(basis_labels) <= MAX_DIM, "built %s with dim %d" % (name, len(basis_labels))
        original(self, name, basis_labels, *args, **kwargs)

    monkeypatch.setattr(WeilAlgebra, "__init__", guarded)
    if spec == "big.json":
        # a few KB of JSON that asks for a dim^3 structure tensor of 8 GB
        doc = {"name": "big", "dim": 1000, "basis": ["b%d" % i for i in range(1000)],
               "unit_index": 0, "structure": []}
        spec = str(tmp_path / spec)
        (tmp_path / "big.json").write_text(json.dumps(doc))
    assert cli.main(command + [spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err and "Traceback" not in err


def test_algebra_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    rc = cli.main(["algebra", "check", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "invalid JSON" in err
    assert "broken.json:1:" in err


def test_algebra_rejects_unknown_constructors(capsys):
    assert cli.main(["algebra", "check", "bogus(1,2)"]) == 2
    assert cli.main(["algebra", "check", "tensor(dual"]) == 2


@pytest.mark.parametrize("signature, algebra", [((1, 2, 1, 5), "truncated(2,10) of dim 66"),
                                                ((1, 3, 1, 3), "truncated(3,6) of dim 84")])
def test_a_functional_pair_whose_bracket_needs_an_algebra_past_the_limit_is_refused(capsys, tmp_path, signature, algebra):
    # each field fits the loader's limit; their bracket, of order r1 + r2, does not
    rng = np.random.default_rng(0)
    pair = []
    for k in range(2):
        path = tmp_path / ("f%d.json" % k)
        path.write_text(json.dumps(functional_field_to_json(functional.random_functional_field(rng, *signature))))
        pair += ["--field", str(path)]
    for suites in ("prolong-functional,prolong-functional-jet", "sigma,prolong-functional-jet"):
        assert cli.main(["verify", "--suite", suites, "--samples", "2"] + pair) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--field functional pair is too large: its bracket needs %s (limit 64)" % algebra in captured.err
    # a suite that takes no bracket of the pair still takes it
    assert cli.main(["verify", "--suite", "sigma"] + pair) == 0
