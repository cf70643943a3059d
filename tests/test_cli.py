"""Command line behavior: exit codes, output text, report files."""

import json
import math
from importlib import resources

import jsonschema
import pytest

from weilcalc import cli, strongdiff
from weilcalc.algebra import algebra_to_json, make_basic, save_algebra
from weilcalc.errors import DomainError, WeilError
from weilcalc.exprs import Const, IntPow, Mul, Var, intpow, prim, simplify
from weilcalc.functional import FunctionalVectorField, functional_field_to_json
from weilcalc.programs import Program, VectorField, eval_exprs, field_to_json
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


def test_verify_rejects_bad_numbers(capsys):
    assert cli.main(["verify", "--suite", "sigma", "--tol", "-1"]) == 2
    assert cli.main(["verify", "--suite", "sigma", "--samples", "0"]) == 2


def test_verify_tolerance_cannot_tighten_an_exact_suite():
    assert cli.main(["verify", "--suite", "sigma", "--tol", "1e-99"]) == 0


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


def test_repeated_verify_runs_reuse_exchange_homs(capsys):
    # every run builds fresh algebras: a cache keyed by object id would hand
    # later runs homs of freed algebras whose ids were reused, and would grow
    for _ in range(20):
        assert cli.main(["verify", "--suite", "exchange-square", "--samples", "5"]) == 0
    assert len(strongdiff._exchange_cache) <= 5


def test_verify_unwritable_report_path(capsys):
    rc = cli.main(["verify", "--suite", "sigma", "--report", "/nonexistent/dir/r.json"])
    assert rc == 2


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
            yield {"trial": trial}, strongdiff.jacobian_bracket_deviation(x, y, at, richardson=True)

    try:
        result = tally(deviations(), 1e-6)
    except WeilError as err:
        result = {"max_error": float("inf"), "samples": 0, "failures": [{"error": "%s: %s" % (type(err).__name__, err)}]}
    want = report_from_check("bracket", "custom pair", result).to_json()
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


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
    err = capsys.readouterr().err
    assert "undefined at (-1)" in err and "DomainError" in err
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
    assert eval_exprs([s], [0.0]) == eval_exprs([e], [0.0]) == [0.0]
    assert math.isclose(eval_exprs([s], [0.01])[0], eval_exprs([e], [0.01])[0], rel_tol=1e-12)


def _manifold_doc(*exprs):
    return field_to_json(VectorField(len(exprs), Program(len(exprs), list(exprs))))


_x0, _x1 = Var(0), Var(1)
# field pairs and the text `weilcalc bracket` printed for them when this
# test was written; simplify's term order and atom forms are pinned here
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
        "[X,Y]_0 = 3*x1^-1*x0 - exp(x0)*log(x1)*x1 + exp(x0)*x0*x1 - x1^-1*x1^3 - exp(x0)*x0^2*x1\n"
        "[X,Y]_1 = -3*log(x1) + exp(x0)*x1^2 + 2*x0*x1^3\n",
    ),
    "div": (
        _manifold_doc(_x0 / _x1, _x1 ** 2 + 1),
        _manifold_doc(_x1, 1 / (_x0 + _x1 ** 2)),
        "[X,Y]_0 = 1 - x1^-1*x1 + x1^2 + 1/(x0 + x1^2)*x1^-2*x0\n"
        "[X,Y]_1 = -2*1/(x0 + x1^2)*x1 - x0/x1*(x0 + x1^2)^-2 - 2*(x0 + x1^2)^-2*x1"
        " - 2*(x0 + x1^2)^-2*x1^3\n",
    ),
    "mixed": (
        _manifold_doc(prim("sqrt", _x0) * prim("sin", _x1) - _x0 ** -2, prim("exp", _x1 / _x0)),
        _manifold_doc(prim("cos", _x0 + _x1), _x0 * prim("log", _x0 ** 2 + 1)),
        "[X,Y]_0 = x0^-2*sin(x0 + x1) - exp(x1/x0)*sin(x0 + x1) - 2*x0^-2*x0^-1*cos(x0 + x1)"
        " - sin(x0 + x1)*sin(x1)*sqrt(x0) - 0.5*x0^-1*cos(x0 + x1)*sin(x1)*sqrt(x0)"
        " - cos(x1)*log(1 + x0^2)*sqrt(x0)*x0\n"
        "[X,Y]_1 = -(x0^-2*log(1 + x0^2)) + log(1 + x0^2)*sin(x1)*sqrt(x0)"
        " - 2*(1 + x0^2)^-1*x0^-2*x0^2 - x0^-1*exp(x0^-1*x1)*log(1 + x0^2)*x0"
        " + x0^-2*cos(x0 + x1)*exp(x0^-1*x1)*x1 + 2*(1 + x0^2)^-1*sin(x1)*sqrt(x0)*x0^2\n",
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


@pytest.mark.parametrize("name", sorted(_BRACKET_TEXT))
def test_bracket_prints_the_expected_text(capsys, tmp_path, name):
    x, y, text = _BRACKET_TEXT[name]
    px, py = tmp_path / "x.json", tmp_path / "y.json"
    px.write_text(json.dumps(x))
    py.write_text(json.dumps(y))
    assert cli.main(["bracket", "--field", str(px), "--field", str(py)]) == 0
    assert capsys.readouterr().out == text


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


def test_algebra_check_constructor_expression(capsys):
    assert cli.main(["algebra", "check", "tensor(dual, truncated(2,1))"]) == 0
    assert cli.main(["algebra", "check", "tensor(S(), dual)"]) == 0


def test_algebra_build_pair_algebra_prints_sigma(capsys):
    rc = cli.main(["algebra", "build", "S()", "--show"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "e1e2 -> e" in out
    assert "E1E2 -> -e" in out


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
    rc = cli.main(["algebra", "check", str(path)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "axiom failure" in captured.out + captured.err


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
