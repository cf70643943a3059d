"""Prolonging vector fields through an algebra lift."""

import numpy as np
import pytest

from weilcalc import prolong
from weilcalc.algebra import make_basic, sum_algebra, tensor
from weilcalc.functor import lift_program
from weilcalc.programs import (
    VectorField,
    evaluate,
    linear_program,
    random_poly_field,
)
from weilcalc.prolong import (
    check_base_projection,
    check_bracket_preserved,
    field_prolong,
)

DUAL = make_basic("dual")
T12 = make_basic("truncated", 1, 2)
STANDARD = [
    DUAL,
    tensor(DUAL, DUAL),
    T12,
    make_basic("truncated", 2, 1),
    sum_algebra(DUAL, DUAL),
]


def test_linear_field_prolongs_blockwise():
    # a linear field acts on every coefficient slot by the same matrix
    rot = VectorField(2, linear_program([[0.0, 1.0], [-1.0, 0.0]]))
    pf = field_prolong(DUAL, rot)
    out = evaluate(pf.rendering.components, [1.0, 2.0, 3.0, 4.0])
    assert out == [3.0, 4.0, -1.0, -2.0]


def test_value_at_matches_the_rendering():
    rng = np.random.default_rng(6)
    field = random_poly_field(rng, 2, deg=3)
    pf = field_prolong(T12, field)
    for _ in range(5):
        flat = rng.uniform(-1, 1, size=2 * T12.dim)
        sym = evaluate(pf.rendering.components, list(flat))
        assert np.allclose(pf.value_at(flat), sym, atol=1e-12)


def test_large_algebras_render_on_first_use():
    big = tensor(tensor(DUAL, DUAL), tensor(DUAL, DUAL))
    rng = np.random.default_rng(8)
    x = random_poly_field(rng, 2, deg=2)
    y = random_poly_field(rng, 2, deg=2)
    pf = field_prolong(big, x)
    for _ in range(3):
        flat = rng.uniform(-1, 1, size=2 * big.dim)
        sym = evaluate(pf.rendering.components, list(flat))
        assert np.allclose(pf.value_at(flat), sym, rtol=0.0, atol=1e-12)
    out = check_bracket_preserved(big, x, y, samples=5, rng=rng, tol=1e-7)
    assert out["failures"] == []
    assert out["samples"] == 5


def test_rendering_is_built_once_and_only_when_read(monkeypatch):
    calls = []

    def counting(algebra, f):
        calls.append(algebra)
        return lift_program(algebra, f)

    monkeypatch.setattr(prolong, "lift_program", counting)
    pf = field_prolong(T12, random_poly_field(np.random.default_rng(9), 2, deg=2))
    pf.value_at(np.linspace(-0.5, 0.5, pf.dim))
    assert calls == []
    first = pf.rendering
    assert pf.rendering is first
    assert calls == [T12]


def test_prolonged_field_projects_to_the_base_field():
    rng = np.random.default_rng(13)
    for algebra in STANDARD:
        pf = field_prolong(algebra, random_poly_field(rng, 2, deg=2))
        out = check_base_projection(pf, samples=8, rng=rng)
        assert out["max_error"] <= 1e-12


@pytest.mark.parametrize("algebra", STANDARD, ids=lambda a: a.name)
def test_prolongation_preserves_brackets(algebra):
    rng = np.random.default_rng(21)
    x = random_poly_field(rng, 2, deg=2)
    y = random_poly_field(rng, 2, deg=2)
    out = check_bracket_preserved(algebra, x, y, samples=10, rng=rng, tol=1e-7)
    assert out["failures"] == []
    assert out["max_error"] <= 1e-7
