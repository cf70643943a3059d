"""One body for the checks that compare two sides at sampled points.

`programs.sampled_deviations` runs each check's gaps over its blocks and
tags every deviation with its pair and trial; a block holding a point
that raises reports that point's own error.
"""

from functools import partial

import numpy as np
import pytest

from weilcalc import cli, functional, functor, jets, programs, prolong, strongdiff
from weilcalc.algebra import make_basic
from weilcalc.errors import DomainError
from weilcalc.exprs import Var, prim
from weilcalc.programs import Program, VectorField, evaluate, random_poly_field, sampled_deviations, stack_columns
from weilcalc.reports import tally

DUAL = make_basic("dual")
FIELDS = [random_poly_field(np.random.default_rng(70 + i), 2, deg=2) for i in range(3)]
FUNCTIONAL = [functional.random_functional_field(np.random.default_rng(80 + i), 1, 1, 1, 1) for i in range(2)]

# name -> (check of rng and samples, samples, the tags of a deviation
# planted at row 6 of the block the check hands the body)
CHECKS = {
    "bracket dims": (
        lambda rng, s: strongdiff.check_bracket_jacobian((1, 2), 3, rng=rng, samples=s, tol=1e-6),
        4,
        [{"dim": 1, "pair": 1, "trial": 2}, {"dim": 2, "pair": 1, "trial": 2}],
    ),
    "bracket custom pair": (
        lambda rng, s: cli._custom_bracket(*FIELDS[:2], rng=rng, samples=s, tol=1e-6),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "prolong-manifold": (
        lambda rng, s: cli._prolong_manifold(DUAL, rng=rng, samples=s, tol=1e-7),
        4,
        [{"pair": 1, "trial": 2}],
    ),
    "prolong-jet": (
        lambda rng, s: cli._prolong_jet(1, 1, rng=rng, samples=s, tol=1e-6),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "prolong-functional": (
        lambda rng, s: functional.check_bracket_preserved(
            partial(functional.functional_field_prolong, DUAL), *FUNCTIONAL, rng=rng, samples=s, tol=1e-6
        ),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "prolong-functional-jet": (
        lambda rng, s: functional.check_bracket_preserved(
            partial(functional.g_functional, jets.jet_triple(1, 1)), *FUNCTIONAL, rng=rng, samples=s, tol=1e-6
        ),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "frame-prolong": (
        lambda rng, s: cli._frame_prolong(1, 1, rng=rng, samples=s, tol=1e-5),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "functor-laws": (
        lambda rng, s: functor.check_iterated_lift(DUAL, make_basic("truncated", 1, 2), 2, rng=rng, samples=s, tol=1e-10),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "locality": (
        lambda rng, s: functional.check_order_locality(1, 2, 1, 1, rng=rng, samples=s, tol=1e-10),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "classical prolongation": (
        lambda rng, s: jets.check_classical_prolongation(rng=rng, samples=s, tol=1e-8),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "poly-family": (
        lambda rng, s: functional.check_polynomial_family(cli._POLY_X1, cli._POLY_X2, 3, rng=rng, samples=s, tol=1e-7),
        8,
        [{"pair": 0, "trial": 6}],
    ),
    "base projection": (
        lambda rng, s: prolong.check_base_projection(prolong.field_prolong(DUAL, FIELDS[2]), rng=rng, samples=s),
        8,
        [{"pair": 0, "trial": 6}],
    ),
}


def _plant_at_row_6(monkeypatch):
    """Every check's gaps read 1.0 more at row 6 of each block it hands
    the body; a point run alone is left as it is."""
    body = programs.sampled_deviations

    def planted(items, gaps, samples):
        def bumped(pts):
            out = np.array(gaps(pts), dtype=float)
            if np.ndim(pts) == 2:
                out[6] += 1.0
            return out

        return body(items, bumped, samples)

    for module in (strongdiff, prolong, jets, functional, functor):
        monkeypatch.setattr(module, "sampled_deviations", planted)


@pytest.mark.parametrize("name", list(CHECKS))
def test_a_planted_deviation_comes_back_under_its_pair_and_trial(monkeypatch, name):
    check, samples, tags = CHECKS[name]
    assert check(np.random.default_rng(9), samples)["failures"] == []
    _plant_at_row_6(monkeypatch)
    failures = check(np.random.default_rng(9), samples)["failures"]
    assert [{k: v for k, v in f.items() if k != "deviation"} for f in failures] == tags
    assert all(f["deviation"] >= 1.0 for f in failures)


def test_a_block_whose_middle_point_raises_reports_that_points_own_error():
    # log(x0) and sqrt(x1): the middle row fails at sqrt, the last at log
    prog = Program(2, [prim("log", Var(0)), prim("sqrt", Var(1))])

    def gaps(pts):
        # one column run, with no fallback of its own
        values = evaluate(prog, list(np.transpose(pts)))
        return np.abs(stack_columns(values, None if np.ndim(pts) == 1 else len(pts))).max(axis=-1)

    block = np.array([[1.0, 1.0], [1.0, -1.0], [-2.0, 1.0]])
    with pytest.raises(DomainError) as column_run:
        gaps(block)
    with pytest.raises(DomainError) as middle_alone:
        gaps(block[1])
    assert str(column_run.value) != str(middle_alone.value)  # the column run meets the log first
    with pytest.raises(DomainError) as got:
        tally(sampled_deviations([(0, block)], gaps, 3), 1e-6)
    assert str(got.value) == str(middle_alone.value) == "sqrt needs positive real part, got -1.0"
    # a block with no failing point runs as columns: log(1) = 0, sqrt(1) = 1
    assert list(sampled_deviations([(0, block[:1])], gaps, 1)) == [({"pair": 0, "trial": 0}, 1.0)]


def test_a_failing_block_runs_each_leading_row_once_on_the_point_path(monkeypatch):
    # X = log(x0) is undefined from row 3 of the block on: the bracket's
    # gaps hold a nested run_points, and only the outer run falls back
    x = VectorField(1, Program(1, [prim("log", Var(0))]))
    y = VectorField(1, Program(1, [Var(0) * Var(0)]))
    block = next(programs.pair_blocks(np.random.default_rng(7), x, y, 1, 1, 20))[1]
    assert (block[:3, 0] > 0).all() and block[3, 0] < 0
    with pytest.raises(DomainError) as alone:
        strongdiff.jacobian_bracket_deviation(x, y, block[3], richardson=True)

    point_rows = []
    run_columns = programs.run_columns

    def counting(rows, columns, point):
        def counted(row):
            point_rows.append(row.tobytes())
            return point(row)

        return run_columns(rows, columns, counted)

    monkeypatch.setattr(programs, "run_columns", counting)
    devs = strongdiff.bracket_jacobian_deviations(x, y, 1, rng=np.random.default_rng(7), samples=20, richardson=True)
    with pytest.raises(DomainError) as got:
        tally(devs, 1e-6)
    assert str(got.value) == str(alone.value)
    assert point_rows == [row.tobytes() for row in block[:4]]
