"""Random fields as coefficient rows of one compiled template.

A template is the dense polynomial of `random_poly_program` with its
coefficients as trailing parameters.  Run with the row the same rng draws,
it must give the numbers of the folded program bit for bit, through every
entry point that passes parameters along; the verify units that run many
pairs as one block must report exactly what a loop over single pairs does.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings, strategies as st

from weilcalc import cli, programs, prolong, strongdiff
from weilcalc.algebra import make_basic
from weilcalc.functor import lift_program
from weilcalc.programs import (
    VectorField,
    evaluate,
    evaluate_dual,
    evaluate_points,
    jacobian_oracle,
    poly_template,
    random_poly_field,
    random_poly_program,
    trial_rows,
)
from weilcalc.reports import documents_equal, rng_for

LIFT_ALGEBRAS = [make_basic("dual"), make_basic("truncated", 1, 2)]


def _bits(values):
    """The exact float64 bytes of a number, a list of numbers or an array."""
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 2.0), st.integers(0, 4)), min_size=1, max_size=4),
       st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_trial_rows_draw_as_one_uniform_call_per_range_and_trial(ranges, samples, seed):
    ranges = [(low, low + width, size) for low, width, size in ranges]
    rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    rows = trial_rows(rng, samples, *ranges)
    want = [np.concatenate([loop_rng.uniform(low, high, size=size) for low, high, size in ranges])
            for _ in range(samples)]
    assert rows.shape == (samples, sum(size for _, _, size in ranges))
    assert _bits(rows) == _bits(want)
    assert rng.bit_generator.state == loop_rng.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_a_template_row_runs_as_the_program_drawn_with_it(arity_in, arity_out, deg, seed):
    rng, folded_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    folded = random_poly_program(folded_rng, arity_in, arity_out, deg=deg)
    template = poly_template(arity_in, arity_out, deg)
    row = rng.uniform(-0.5, 0.5, size=template.params)
    assert rng.bit_generator.state == folded_rng.bit_generator.state

    points = np.random.default_rng(seed + 1).uniform(-1.0, 1.0, size=(5, arity_in))
    slopes = np.random.default_rng(seed + 2).uniform(-1.0, 1.0, size=(5, arity_in))
    block = np.hstack([points, np.tile(row, (5, 1))])
    point, pslope = points[0].tolist(), slopes[0].tolist()

    # one point, then a block of points
    assert _bits(evaluate(template, point + row.tolist())) == _bits(evaluate(folded, point))
    assert _bits(evaluate_points(template, block)) == _bits(evaluate_points(folded, points))
    assert _bits(evaluate_dual(template, point + row.tolist(), pslope)[1]) == _bits(
        evaluate_dual(folded, point, pslope)[1]
    )
    got = programs.stack_columns(evaluate_dual(template, list(block.T), list(slopes.T))[1], 5)
    want = programs.stack_columns(evaluate_dual(folded, list(points.T), list(slopes.T))[1], 5)
    assert _bits(got) == _bits(want)
    assert _bits(jacobian_oracle(template, block[0])) == _bits(jacobian_oracle(folded, points[0]))
    assert _bits(jacobian_oracle(template, block)) == _bits(jacobian_oracle(folded, points))

    for algebra in LIFT_ALGEBRAS:
        lifted, lifted_folded = lift_program(algebra, template), lift_program(algebra, folded)
        assert lifted.params == template.params
        flat = np.random.default_rng(seed + 3).uniform(-1.0, 1.0, size=(4, arity_in * algebra.dim))
        rows = np.hstack([flat, np.tile(row, (4, 1))])
        assert _bits(evaluate(lifted, rows[0].tolist())) == _bits(evaluate(lifted_folded, flat[0].tolist()))
        assert _bits(evaluate_points(lifted, rows)) == _bits(evaluate_points(lifted_folded, flat))


def test_batched_bracket_deviations_equal_a_loop_over_single_pairs():
    rng = rng_for(7, "bracket", "random")
    batched = []
    for n in (1, 2, 3):
        cubic = VectorField(n, poly_template(n, n, 3))
        batched += strongdiff.bracket_jacobian_deviations(cubic, cubic, 20, rng=rng, samples=20, richardson=False)
    rng = rng_for(7, "bracket", "random")
    single = []
    for n in (1, 2, 3):
        for pair in range(20):
            x, y = random_poly_field(rng, n, deg=3), random_poly_field(rng, n, deg=3)
            devs = strongdiff.bracket_jacobian_deviations(x, y, 1, rng=rng, samples=20, richardson=False)
            single += [({**tag, "pair": pair}, dev) for tag, dev in devs]
    assert len(batched) == len(single) == 1200
    assert all(a == b for a, b in zip(batched, single))


def test_batched_prolongation_deviations_equal_a_loop_over_single_pairs():
    algebra = make_basic("truncated", 1, 2)
    quadratic = VectorField(2, poly_template(2, 2, 2))
    rng = rng_for(7, "prolong-manifold", algebra.name)
    batched = list(prolong.bracket_deviations(algebra, quadratic, quadratic, 10, 50, rng))
    rng = rng_for(7, "prolong-manifold", algebra.name)
    single = []
    for pair in range(10):
        x, y = random_poly_field(rng, 2, deg=2), random_poly_field(rng, 2, deg=2)
        single.extend(({**tag, "pair": pair}, dev) for tag, dev in prolong.bracket_deviations(algebra, x, y, 1, 50, rng))
    assert len(batched) == len(single) == 500
    assert all(a == b for a, b in zip(batched, single))


def _verify(*argv) -> tuple:
    """Exit code and console text of an in-process verify."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["verify", *argv])
    return rc, out.getvalue()


def test_bracket_and_prolong_manifold_compile_at_most_30_tapes(monkeypatch):
    # one template per dimension and, per algebra, the template, its
    # bracket and its rendering: 370 tapes when every pair compiled its own
    compiles = []
    original = programs.Tape.__init__

    def counting(self, body, arity_in):
        compiles.append(arity_in)
        original(self, body, arity_in)

    monkeypatch.setattr(programs.Tape, "__init__", counting)
    rc, _ = _verify("--suite", "bracket,prolong-manifold", "--seed", "7")
    assert rc == 0
    assert len(compiles) <= 30


def _recorded_blocks(monkeypatch) -> list:
    """Row counts of the blocks that pair_blocks yields to the checks."""
    rows = []
    original = programs.pair_blocks

    def recording(*args, **kwargs):
        for first, block in original(*args, **kwargs):
            rows.append(len(block))
            yield first, block

    for module in (strongdiff, prolong):
        monkeypatch.setattr(module, "pair_blocks", recording)
    return rows


def test_default_runs_hold_each_unit_in_one_block(monkeypatch):
    rows = _recorded_blocks(monkeypatch)
    rc, _ = _verify("--suite", "bracket,prolong-manifold", "--seed", "7")
    assert rc == 0
    # 20 pairs of 20 samples per dimension, 10 pairs of 50 per algebra
    assert rows == [400] * 3 + [500] * 5


def test_large_sample_counts_split_into_bounded_blocks_with_the_same_report(monkeypatch, tmp_path):
    argv = ["--suite", "prolong-manifold", "--algebra", "dual", "--samples", "3000", "--seed", "7"]
    rows = _recorded_blocks(monkeypatch)
    grouped = _verify(*argv, "--report", str(tmp_path / "grouped.json"))
    assert rows == [3000] * 10
    assert all(r <= max(3000, programs.MAX_BLOCK_ROWS) for r in rows)

    rows.clear()
    monkeypatch.setattr(programs, "MAX_BLOCK_ROWS", 10**9)
    ungrouped = _verify(*argv, "--report", str(tmp_path / "ungrouped.json"))
    assert rows == [30000]
    assert grouped == ungrouped
    assert documents_equal(
        *(json.loads((tmp_path / name).read_text()) for name in ("grouped.json", "ungrouped.json"))
    )


def test_grouping_moves_no_draw_of_the_bracket_unit(monkeypatch):
    # 900 samples put two pairs in a block of at most MAX_BLOCK_ROWS rows
    rows = _recorded_blocks(monkeypatch)
    grouped = strongdiff.check_bracket_jacobian((1, 2), 5, rng=rng_for(7, "groups"), samples=900, tol=1e-6)
    assert rows == [1800, 1800, 900] * 2
    monkeypatch.setattr(programs, "MAX_BLOCK_ROWS", 10**9)
    ungrouped = strongdiff.check_bracket_jacobian((1, 2), 5, rng=rng_for(7, "groups"), samples=900, tol=1e-6)
    assert grouped == ungrouped
    assert grouped["samples"] == 9000

