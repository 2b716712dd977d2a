"""Tiled grids: the states of an oscillator level differentiated in one pass.

A grid of T tiles is T copies of a base grid; a field on it gives one
value per tile at each base point.  The oscillator suites declare one
Sample per level, split by ``harness.PASS_POINTS``.  Their reports must
equal, with ==, what one state per pass gives: the same suites with a
budget of one point, so that every pass holds one tile.
"""

import gc
import weakref
from functools import partial

import numpy as np
import pytest

from kgconformal import dual, harness
from kgconformal import oscillator as ho
from kgconformal.confmap import Read, Sample, evaluate
from kgconformal.core import ComplexField, ConfigError, DomainError, PointSet
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL, _diff
from kgconformal.harness import Grid, run_suite

MODEL = ho.OscillatorModel(omega=1.0)
GRID = Grid(r_min=0.1, r_max=4.0, shells=10, times=(0.0, 0.37))
OSCILLATOR_SUITES = ("oscillator-x", "oscillator-z", "ladder")


def _report(suite, mode, nmax):
    params = {"nmax": nmax, "grid": GRID}
    return run_suite(suite, params, DiffConfig(mode=mode)).with_wall_ms(0.0).to_json()


def _tiles_per_sample(suite, nmax):
    params = harness._checked(suite, {"nmax": nmax, "grid": GRID}, DiffConfig())
    return [s.points.tiles for s in harness._DECLARATIONS[suite][0](params, 1e-10) if isinstance(s, Sample)]


@pytest.mark.parametrize("mode, nmax", [(MODE_EXACT, 6), (MODE_STENCIL, 3)])
@pytest.mark.parametrize("suite", OSCILLATOR_SUITES)
def test_tiled_levels_report_what_one_state_per_pass_reports(suite, mode, nmax, monkeypatch):
    tiled = _report(suite, mode, nmax)
    assert max(_tiles_per_sample(suite, nmax)) > 1
    # a budget of two and a half grids splits every level of three or more states
    monkeypatch.setattr(harness, "PASS_POINTS", 5 * len(GRID.points()) // 2)
    split = _report(suite, mode, nmax)
    assert max(_tiles_per_sample(suite, nmax)) == 2
    monkeypatch.setattr(harness, "PASS_POINTS", 1)
    assert set(_tiles_per_sample(suite, nmax)) == {1}
    one_tile = _report(suite, mode, nmax)
    assert tiled == one_tile
    assert split == one_tile


def test_the_default_budget_keeps_six_tiles_a_pass():
    """At the default budget a level of the 120-point grid takes at most 6
    tiles a pass: level 6 (28 states) takes five passes."""
    assert len(GRID.points()) == 120 and harness.PASS_POINTS // 120 == 6
    tiles = _tiles_per_sample("oscillator-x", 6)
    assert tiles == [1, 3, 6, 6, 4, 6, 6, 3, 6, 6, 6, 3, 6, 6, 6, 6, 4]


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("make", [ho.eigenfunction_x, ho.eigenfunction_z], ids=["x", "z"])
def test_a_tiled_field_gives_each_states_derivatives(make, mode):
    """Tile j of one pass over a level is, with ==, the pass of state j alone."""
    points = GRID.points()
    states = list(ho.states_with_n(MODEL, 3))
    whole = _diff(make(MODEL, states), points.tiled(len(states)), DiffConfig(mode=mode))
    n = len(points)
    for j, state in enumerate(states):
        alone = _diff(make(MODEL, state), points, DiffConfig(mode=mode))
        for part in ("value", "grad", "hess", "grad_err", "hess_err"):
            assert np.array_equal(getattr(whole, part)[..., j * n : (j + 1) * n], getattr(alone, part)), (state, part)


def test_states_of_two_levels_are_not_one_field():
    with pytest.raises(ConfigError, match="one level"):
        ho.eigenfunction_x(MODEL, [ho.make_state(MODEL, 0, 0, 0), ho.make_state(MODEL, 1, 0, 0)])


def _with_vanishing_tile(states, vanishing):
    """The x-field of ``states`` with tile ``vanishing`` multiplied by 0."""
    fields = [ho.eigenfunction_x(MODEL, state) for state in states]

    def fn(x1, x2, x3, t):
        return dual.join_tiles([f(x1, x2, x3, t) * (0.0 if j == vanishing else 1.0) for j, f in enumerate(fields)])

    return ComplexField(fn=fn, label="vanishing")


TILED_OPERATORS = {
    "kg-x": lambda E, n: partial(ho.kg_residual_x, MODEL, E),
    "kg-z": lambda E, n: partial(ho.kg_residual_z, MODEL, E),
    "energy-op": lambda E, n: partial(ho.energy_operator_residual, MODEL, E),
    "number": lambda E, n: partial(harness._number_residual, MODEL, E, n, n),
    "annihilation": lambda E, n: partial(harness._annihilation_residual, MODEL, E),
}


@pytest.mark.parametrize("operator", sorted(TILED_OPERATORS))
def test_one_vanishing_tile_is_a_domain_error(operator):
    """Each operator scaled by a grid max checks each tile's: one tile whose
    field vanishes raises, whatever the other tiles hold."""
    states = list(ho.states_with_n(MODEL, 2))[:3]
    read = Read(("a", "b", "c"), TILED_OPERATORS[operator](states[0].energy, 2), 1.0)
    points = GRID.points().tiled(3)
    evaluate("fine", MODE_EXACT, [Sample(_with_vanishing_tile(states, None), points, (read,))])
    with pytest.raises(DomainError, match="residual scale is 0.0"):
        evaluate("vanishing", MODE_EXACT, [Sample(_with_vanishing_tile(states, 1), points, (read,))])


def _per_point(values):
    """An operator whose residual at the points is ``values``, with scale 1."""
    return lambda d: (np.asarray(values, dtype=float), 0.0 * np.asarray(values, dtype=float), 1.0)


FLAT = ComplexField(fn=lambda x1, x2, x3, t: 0.0 * x1 + 1.0, label="flat")
BASE = PointSet([0.5, 1.0], [0.0, 0.2], [0.1, 0.0], [0.0, 0.3])


def test_repeated_per_tile_names_fold_by_max():
    values = [1.0, 2.0, 7.0, 3.0, 5.0, 4.0]  # tiles of two points: max 2, 7, 5
    declaration = [Sample(FLAT, BASE.tiled(3), (Read(("a", "b", "a"), _per_point(values), 10.0),))]
    rep = evaluate("fold", MODE_EXACT, declaration)
    assert [(c.name, c.max_residual) for c in rep.cases] == [("a", 5.0), ("b", 7.0)]
    one_name = [Sample(FLAT, BASE.tiled(3), (Read("all", _per_point(values), 10.0),))]
    assert [(c.name, c.max_residual) for c in evaluate("fold", MODE_EXACT, one_name).cases] == [("all", 7.0)]


def test_cases_appear_tile_by_tile_then_read_by_read():
    reads = (Read(("a0", "a1"), _per_point([1.0] * 4), 10.0), Read(("b0", "b1"), _per_point([2.0] * 4), 10.0))
    rep = evaluate("order", MODE_EXACT, [Sample(FLAT, BASE.tiled(2), reads)])
    assert [c.name for c in rep.cases] == ["a0", "b0", "a1", "b1"]


def test_a_read_names_one_case_or_one_per_tile():
    read = Read(("a", "b"), _per_point([1.0] * 6), 10.0)
    with pytest.raises(ConfigError, match="2 cases read a grid of 3 tiles"):
        evaluate("count", MODE_EXACT, [Sample(FLAT, BASE.tiled(3), (read,))])


def test_a_tiled_grid_tiles_its_base():
    tiled = BASE.tiled(3).tiled(2)
    assert tiled.base is BASE and tiled.tiles == 6 and len(tiled) == 12
    assert all(np.array_equal(c, np.tile(b, 6)) for c, b in zip(tiled.coords, BASE.coords))
    assert np.array_equal(tiled.radii, np.tile(BASE.radii, 6))
    assert np.array_equal(tiled.radial(dual.powr, 2), np.tile(dual.powr(BASE.radii, 2), 6))
    assert BASE.base is BASE and BASE.tiles == 1
    values = np.arange(12.0)[::-1]
    assert BASE.tiled(3).tile_max(values[:6]).tolist() == [11.0, 11.0, 9.0, 9.0, 7.0, 7.0]
    assert BASE.tile_max(values[:2]) == 11.0


def test_join_tiles_lifts_constants():
    (x,) = dual.variables(np.array([0.5, 2.0]))
    jet = dual.exp(x)
    assert dual.join_tiles([jet]) is jet
    assert dual.join_tiles([1.0, 1.0]) == 1.0
    joined = dual.join_tiles([jet, 1.0])
    assert np.array_equal(joined.c, np.concatenate((jet.c, [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]), axis=1))
    rows = np.array([[0.5, 2.0], [1.5, 3.0]])
    assert np.array_equal(dual.join_tiles([2.0, rows]), np.array([[2.0, 2.0, 0.5, 2.0], [2.0, 2.0, 1.5, 3.0]]))


def test_a_grid_and_its_memo_go_with_their_last_reference():
    """A grid of one tile is its own base without holding itself, so a pass's
    grids, jets and memo are freed as soon as the pass drops them, not at
    the next run of the cyclic collector."""
    gc.disable()
    try:
        points = GRID.points()
        states = list(ho.states_with_n(MODEL, 1))
        _diff(ho.eigenfunction_x(MODEL, states), points.tiled(len(states)), DiffConfig(mode=MODE_EXACT))
        _, jets, _, memo = points.kept
        ladder = memo[(("hermite", MODEL.xi_scale), (0,))]
        kept = [weakref.ref(ladder.terms[1].c), weakref.ref(jets[0].c)]  # the memo's and the jets' arrays
        del ladder, memo, jets
        grid = weakref.ref(points)
        del points
        assert grid() is None and [ref() for ref in kept] == [None, None]
    finally:
        gc.enable()
