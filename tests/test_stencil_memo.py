"""The arguments kept with their grid, and the memo its fields share.

A stencil pass evaluates the field on a (33, n) table of shifted copies of
the base grid, an exact pass on the grid's seed jets.  Either is kept
read-only on the base PointSet with one memo, so the oscillator fields of a
grid build each factor once.  Nothing the memo keeps may serve another
grid, another step table, arguments built elsewhere or another run, or
outlive its grid.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from kgconformal import diffengine, dual
from kgconformal import oscillator as ho
from kgconformal.core import natural_units
from kgconformal.diffengine import MODE_EXACT, MODE_STENCIL, DiffConfig, _diff
from kgconformal.harness import SUITES, Grid, run_suite

MODEL = ho.OscillatorModel(omega=1.0, units=natural_units())
STENCIL = DiffConfig(mode=MODE_STENCIL)


def _counted_hermite(monkeypatch) -> list:
    """The degrees of every Hermite factor the oscillator fields build from now on."""
    calls, hermite = [], ho.hermite

    def counted(l, xi):
        calls.append(l)
        return hermite(l, xi)

    monkeypatch.setattr(ho, "hermite", counted)
    return calls


def _level(n):
    return list(ho.states_with_n(MODEL, n))


def test_a_grid_keeps_one_read_only_table_and_builds_each_factor_once(monkeypatch):
    """Two levels' x-fields on one grid: the second pass reads the first's
    table and ladders, and builds only the degrees the first did not."""
    calls = _counted_hermite(monkeypatch)
    grid = Grid(r_min=0.1, r_max=4.0, shells=4).points()
    first = _diff(ho.eigenfunction_x(MODEL, _level(1)), grid.tiled(3), STENCIL)
    _, rows, _, memo = grid.kept
    assert len(rows) == 4 and all(row.shape == (33, len(grid)) and not row.flags.writeable for row in rows)
    assert sorted(calls) == [0, 0, 0, 1, 1, 1]
    kept = [v for v in memo.values() if isinstance(v, np.ndarray)]
    assert kept and not any(v.flags.writeable for v in kept)
    for ladder in (v for v in memo.values() if isinstance(v, ho.HermiteLadder)):
        assert not ladder.xi.flags.writeable and not any(t.flags.writeable for t in ladder.terms[1:])

    calls.clear()
    _diff(ho.eigenfunction_x(MODEL, _level(2)), grid.tiled(6), STENCIL)
    assert grid.kept[1] is rows and grid.kept[3] is memo
    assert sorted(calls) == [2, 2, 2]  # degrees 0 and 1 were built for level 1
    # and the kept factors give what a fresh grid gives
    again = _diff(ho.eigenfunction_x(MODEL, _level(1)), Grid(r_min=0.1, r_max=4.0, shells=4).points().tiled(3), STENCIL)
    assert np.array_equal(first.value, again.value) and np.array_equal(first.hess, again.hess)


def test_another_step_table_gets_its_own_table_and_memo(monkeypatch):
    """A pass with other steps on the same grid builds a new table and memo,
    and every factor again."""
    calls = _counted_hermite(monkeypatch)
    grid = Grid(r_min=0.1, r_max=4.0, shells=4).points()
    field = ho.eigenfunction_x(MODEL, _level(0))
    _diff(field, grid, STENCIL)
    _, rows, _, memo = grid.kept
    _diff(field, grid, STENCIL, length_scale=2.0)
    assert grid.kept[1][0] is not rows[0] and grid.kept[3] is not memo
    assert calls == [0, 0, 0] * 2


def test_another_singular_locus_gets_its_own_table_and_memo(monkeypatch):
    """The same field declared singular at r = 0, on the same grid at the
    same length scale, builds a new table and memo, and every factor again,
    though on this grid its steps are the same."""
    calls = _counted_hermite(monkeypatch)
    grid = Grid(r_min=0.1, r_max=4.0, shells=4).points()
    field = ho.eigenfunction_x(MODEL, _level(0))
    _diff(field, grid, STENCIL)
    _, rows, steps, memo = grid.kept
    _diff(dataclasses.replace(field, singular_at_origin=True), grid, STENCIL)
    assert np.array_equal(grid.kept[2], steps)
    assert grid.kept[1][0] is not rows[0] and grid.kept[3] is not memo
    assert calls == [0, 0, 0] * 2


def _kept_outside_a_pass(monkeypatch, cfg, copy) -> tuple:
    """The Hermite degrees the field builds when called twice on ``copy`` of
    the arguments a pass in ``cfg`` kept, and twice on the kept arguments
    themselves, outside a pass; and whether the memo is as the pass left it."""
    calls = _counted_hermite(monkeypatch)
    grid = Grid(r_min=0.1, r_max=4.0, shells=4).points()
    field = ho.eigenfunction_x(MODEL, _level(0))
    _diff(field, grid, cfg)
    _, arguments, _, memo = grid.kept
    before = dict(memo)
    calls.clear()
    for args in (copy(arguments), arguments):
        for _ in range(2):
            field(*args)
    return calls, memo == before


def test_a_table_built_elsewhere_keeps_nothing(monkeypatch):
    """The field called on equal copies of a grid's kept rows, outside a
    stencil pass, builds its factors every time, and the memo is untouched."""
    calls, untouched = _kept_outside_a_pass(monkeypatch, STENCIL, lambda rows: [row.copy() for row in rows])
    assert calls == [0, 0, 0] * 4
    assert untouched


def test_seed_jets_used_outside_a_pass_keep_nothing(monkeypatch):
    """The field called on a grid's kept seed jets, or on fresh jets of its
    coordinates, outside an exact pass, builds its factors every time, and
    the memo is untouched."""
    calls, untouched = _kept_outside_a_pass(
        monkeypatch, DiffConfig(MODE_EXACT), lambda jets: dual.variables(*(jet.v for jet in jets))
    )
    assert calls == [0, 0, 0] * 4
    assert untouched


def _recorded_tables(monkeypatch) -> list:
    """(rows, memo) of every stencil field call from now on."""
    tables, call_on = [], dual.call_on

    def recorded(field, rows, memo):
        tables.append((rows, memo))
        return call_on(field, rows, memo)

    monkeypatch.setattr(dual, "call_on", recorded)
    return tables


def _kept(tables) -> set:
    """The ids of every row, memo and kept array or ladder in ``tables`` (a
    kept H_0 is the float 1.0)."""
    out = set()
    for rows, memo in tables:
        kept = [v for v in memo.values() if not isinstance(v, float)]
        out |= {id(memo)} | set(map(id, rows)) | set(map(id, kept))
    return out


def test_two_runs_share_nothing(monkeypatch):
    tables = _recorded_tables(monkeypatch)
    runs = []
    for _ in range(2):
        tables.clear()
        assert run_suite("oscillator-z", {"nmax": 2}, STENCIL).passed
        runs.append(list(tables))
    assert all(memo for _, memo in runs[0]) and len({id(m) for _, m in runs[0]}) == 1  # one grid, one memo
    assert not _kept(runs[0]) & _kept(runs[1])


def _array(x):
    """The array behind a kept value: a jet's coefficients, a ladder's xi's."""
    x = getattr(x, "xi", x)
    return getattr(x, "c", x)


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("suite", SUITES)
def test_every_grid_is_freed_after_a_run(monkeypatch, suite, mode):
    """With no garbage collection: no cycle holds a grid, its kept arguments
    or its memo."""
    refs, sample, jet_pass = [], diffengine._sample, diffengine._jet_pass

    def recorded(pass_, field, pts, *args):
        out = pass_(field, pts, *args)
        _, arguments, _, memo = pts.base.kept
        kept = [v for v in memo.values() if not isinstance(v, float)]  # a kept H_0 is the float 1.0
        refs.extend(weakref.ref(_array(x)) for x in [pts.base, *arguments, *kept])
        return out

    monkeypatch.setattr(diffengine, "_sample", lambda *a: recorded(sample, *a))
    monkeypatch.setattr(diffengine, "_jet_pass", lambda *a: recorded(jet_pass, *a))
    gc.disable()
    try:
        report = run_suite(suite, {}, DiffConfig(mode=mode))
        assert report.passed and refs
        assert [ref for ref in refs if ref() is not None] == []
    finally:
        gc.enable()


# -- the savings, pinned -----------------------------------------------------


def _each_calls(monkeypatch, f) -> tuple:
    """f(), and the calls dual._each made of its per-element function in it."""
    each, calls = dual._each, [0]

    def counted(g, x, *args):
        def h(*a):
            calls[0] += 1
            return g(*a)

        return each(h, x, *args)

    monkeypatch.setattr(dual, "_each", counted)
    return f(), calls[0]


def _factor_builds(monkeypatch, f) -> tuple:
    """f(), and the values dual.cached built (called ``make`` for) in it."""
    cached, builds = dual.cached, [0]

    def counted(args, key, make):
        def m():
            builds[0] += 1
            return make()

        return cached(args, key, m)

    monkeypatch.setattr(dual, "cached", counted)
    return f(), builds[0]


#: in a default stencil run: the calls of log and pow that dual._each makes
#: in coulomb-z, and the factors dual.cached builds in oscillator-x, when
#: each element took its own call and every pass built every factor, and
#: at most now (0.099 and 0.22 of the first)
EACH_CALLS = {"coulomb-z": (25_344, 2_516)}
FACTOR_BUILDS = {"oscillator-x": (119, 26)}


def test_each_calls_once_per_distinct_value_in_a_stencil_run(monkeypatch):
    before, ceiling = EACH_CALLS["coulomb-z"]
    report, calls = _each_calls(monkeypatch, lambda: run_suite("coulomb-z", {}, STENCIL))
    assert report.passed and 0 < calls <= ceiling < 0.1 * before


def test_a_stencil_run_builds_each_factor_once_per_grid(monkeypatch):
    before, ceiling = FACTOR_BUILDS["oscillator-x"]
    report, builds = _factor_builds(monkeypatch, lambda: run_suite("oscillator-x", {}, STENCIL))
    exact, exact_builds = _factor_builds(monkeypatch, lambda: run_suite("oscillator-x", {}, DiffConfig(MODE_EXACT)))
    assert report.passed and exact.passed
    assert 0 < builds <= ceiling < 0.25 * before and builds == exact_builds


def test_a_stencil_run_makes_the_steps_once_per_grid(monkeypatch):
    """oscillator-x differentiates its 8 passes on one grid, one length scale
    and one singular locus: the steps are made once, with the table."""
    passes, steps = [], []
    monkeypatch.setattr(diffengine, "_steps", _recording(steps, diffengine._steps))
    monkeypatch.setattr(diffengine, "_stencil_pass", _recording(passes, diffengine._stencil_pass))
    assert run_suite("oscillator-x", {}, STENCIL).passed
    assert len(passes) == 8 and len(steps) == 1


def _recording(calls, f):
    """``f``, appending the arguments of each call to ``calls``."""

    def recorded(*args):
        calls.append(args)
        return f(*args)

    return recorded
