"""Acceptance gate: every advertised numerical guarantee at its stated tolerance.

One criterion per test, one printed pass/fail line per criterion.  Random
inputs are drawn through the same seeded generator the CLI uses, so this
file is deterministic run to run.  The full gate stays well under a minute.
"""

import json
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from weilcalc import cli
from weilcalc.algebra import make_basic, sum_algebra, tensor
from weilcalc.exprs import Var, intpow
from weilcalc.functional import (
    FunctionalVectorField,
    check_order_locality,
    check_polynomial_family,
    functional_field_prolong,
    g_functional,
    random_functional_field,
)
from weilcalc.functional import check_bracket_preserved as functional_bracket_check
from weilcalc.functor import check_iterated_lift
from weilcalc.jets import (
    check_classical_prolongation,
    check_frame_prolong,
    check_jet_group,
    jet_triple,
)
from weilcalc.jets import check_bracket_preserved as jet_bracket_check
from weilcalc.programs import Program, VectorField, random_poly_field, random_poly_program
from weilcalc.prolong import bracket_deviations
from weilcalc.reports import documents_equal, rng_for, tally
from weilcalc.strongdiff import (
    check_bracket_jacobian,
    check_exchange_square,
    check_projection_squares,
    check_sigma,
    check_tangent_projection_identities,
    s_bundle,
)

SEED = 7
DATA = Path(__file__).parent / "data"

DUAL = make_basic("dual")
T12 = make_basic("truncated", 1, 2)
T21 = make_basic("truncated", 2, 1)
DD = tensor(DUAL, DUAL)
SUM = sum_algebra(DUAL, DUAL)
STANDARD = [DUAL, DD, T12, T21, SUM]


def _verdict(num, name, results, tol):
    worst = max(r["max_error"] for r in results)
    bad = [f for r in results for f in r["failures"]]
    ok = worst <= tol and not bad
    print(
        "criterion %02d %-34s %s  max|err| %.3e (tol %.0e)"
        % (num, name, "PASS" if ok else "FAIL", worst, tol)
    )
    assert ok, "%s: max error %.3e over tolerance %.0e, %d failing samples" % (
        name,
        worst,
        tol,
        len(bad),
    )


def test_criterion_01_difference_formula_is_exact():
    out = check_sigma()
    sigma = s_bundle().sigma.matrix
    assert np.array_equal(sigma, [[1.0, 0, 0, 0, 0], [0, 0, 0, 1.0, -1.0]])
    _verdict(1, "strong-difference formula", [out], 0.0)


def test_criterion_02_bracket_matches_jacobians():
    out = check_bracket_jacobian((1, 2, 3), 20, rng=rng_for(SEED, "acc", "bracket"), samples=20, tol=1e-6)
    _verdict(2, "bracket vs difference quotients", [out], 1e-6)


def test_criterion_03_prolongation_preserves_brackets():
    rng = rng_for(SEED, "acc", "pr1")
    results = []
    for algebra in STANDARD:
        for _ in range(10):
            x = random_poly_field(rng, 2, deg=2)
            y = random_poly_field(rng, 2, deg=2)
            results.append(tally(bracket_deviations(algebra, x, y, 1, 50, rng), 1e-7))
    _verdict(3, "manifold prolongation brackets", results, 1e-7)


def test_criterion_04_exchange_squares_commute():
    rng = rng_for(SEED, "acc", "exchange")
    results = [
        check_exchange_square(a, 2, rng=rng, samples=100, tol=1e-12) for a in STANDARD
    ]
    _verdict(4, "second-tangent exchange squares", results, 1e-12)


def test_criterion_05_projection_squares_commute():
    results = []
    for a in (DUAL, T12):
        for b in (DUAL, T12):
            for c in (DUAL, T12):
                results.append(check_projection_squares(a, b, c))
        results.append(check_tangent_projection_identities(a))
    _verdict(5, "projection squares", results, 0.0)


def test_criterion_06_iterated_lifts_flatten():
    rng = rng_for(SEED, "acc", "functor")
    results = [
        check_iterated_lift(outer, inner, 2, rng=rng, samples=20, tol=1e-10)
        for outer, inner in [(DUAL, DUAL), (DUAL, T12), (T21, DUAL)]
    ]
    _verdict(6, "iterated lift flattening", results, 1e-10)


def test_criterion_07_jet_groups_satisfy_the_axioms():
    rng = rng_for(SEED, "acc", "jets")
    results = [
        check_jet_group(m, r, samples=200, rng=rng, tol=1e-10)
        for m, r in [(1, 2), (2, 1), (2, 2)]
    ]
    _verdict(7, "jet group axioms and action", results, 1e-10)


def test_criterion_08_frame_prolongation_matches_flows():
    rng = rng_for(SEED, "acc", "frames")
    results = []
    for m, r in [(1, 1), (1, 2), (2, 1)]:
        xi = random_poly_field(rng, m, deg=2)
        results.append(check_frame_prolong(xi, r, samples=20, rng=rng, tol=1e-5))
    _verdict(8, "frame prolongation vs flows", results, 1e-5)


def _projectable_pair(rng, m):
    fields = []
    for _ in range(2):
        base = random_poly_program(rng, m, m, deg=2, scale=0.5)
        fiber = random_poly_program(rng, m + 1, 1, deg=2, scale=0.5)
        fields.append(
            VectorField(m + 1, Program(m + 1, list(base.exprs) + list(fiber.exprs)))
        )
    return fields


def test_criterion_09_jet_prolongation_preserves_brackets():
    rng = rng_for(SEED, "acc", "jetpr")
    results = []
    for m, r in [(1, 1), (1, 2), (2, 1)]:
        x1, x2 = _projectable_pair(rng, m)
        results.append(
            jet_bracket_check(jet_triple(m, r), x1, x2, samples=30, rng=rng, tol=1e-6)
        )
    classical = check_classical_prolongation(samples=20, rng=rng, tol=1e-8)
    assert classical["max_error"] <= 1e-8 and not classical["failures"]
    _verdict(9, "jet-bundle prolongation brackets", results, 1e-6)


def test_criterion_10_functional_prolongation_preserves_brackets():
    rng = rng_for(SEED, "acc", "functional")
    results = []
    for algebra in (DUAL, T12):
        x1 = random_functional_field(rng, 1, 1, 1, 1)
        x2 = random_functional_field(rng, 1, 1, 1, 1)
        results.append(
            functional_bracket_check(
                partial(functional_field_prolong, algebra), x1, x2, samples=30, rng=rng, tol=1e-6
            )
        )
        results.append(
            functional_bracket_check(
                partial(g_functional, jet_triple(1, 1)), x1, x2, samples=30, rng=rng, tol=1e-6
            )
        )
    p1 = FunctionalVectorField(
        1, 1, 1, 1,
        Program(1, [0.4 * intpow(Var(0), 2)]),
        Program(4, [Var(0) * Var(1) * Var(3) + 0.5 * Var(2)]),
    )
    p2 = FunctionalVectorField(
        1, 1, 1, 1,
        Program(1, [1.0 + 0.3 * Var(0)]),
        Program(4, [Var(3) - 0.2 * Var(1) * Var(3) + Var(0) * Var(2)]),
    )
    family = check_polynomial_family(p1, p2, 3, rng=rng, samples=10, tol=1e-7)
    assert family["max_error"] <= 1e-7 and not family["failures"]
    _verdict(10, "functional prolongation brackets", results, 1e-6)


def test_criterion_11_velocities_only_read_order_r_jets():
    rng = rng_for(SEED, "acc", "locality")
    results = [
        check_order_locality(m, q1, q2, r, samples=20, rng=rng, tol=1e-10)
        for m, q1, q2, r in [(1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 1, 1)]
    ]
    _verdict(11, "order-r locality", results, 1e-10)


def _config(seed):
    """The config of `verify --suite all --seed seed`."""
    return cli.SuiteConfig(suites=list(cli.SUITES), seed=seed, tol=None, samples=None, algebras=None, fields=[])


def test_criterion_12_verification_is_deterministic():
    first = cli.run_suites(_config(SEED))
    second = cli.run_suites(_config(SEED))
    samples = sum(entry["samples"] for entry in first["suites"])
    # the behavioural reference: the committed seed-7 report, which a
    # refactor must reproduce byte for byte apart from the timestamp
    golden = json.loads((DATA / "verify_seed7.json").read_text(encoding="utf-8"))
    ok = (
        documents_equal(first, second)
        and documents_equal(first, golden)
        and first["status"] == "pass"
        and len(first["suites"]) == 42
        and samples == 5229
    )
    print(
        "criterion 12 %-34s %s  (%d units, %d samples)"
        % ("deterministic verification", "PASS" if ok else "FAIL", len(first["suites"]), samples)
    )
    assert ok


@pytest.mark.parametrize("seed", [3, 11])
def test_reports_at_more_seeds_match_their_golden_reports(seed):
    # criterion 12 pins seed 7; these pin two more seeds, so a change that
    # shifts a number only at some seeds still shows
    doc = cli.run_suites(_config(seed))
    golden = json.loads((DATA / ("verify_seed%d.json" % seed)).read_text(encoding="utf-8"))
    assert golden["seed"] == seed
    assert documents_equal(doc, golden)
