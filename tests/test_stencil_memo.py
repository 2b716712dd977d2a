"""The stencil table kept with its grid, and the memo its fields share.

A stencil pass evaluates the field on a (33, n) table of shifted copies of
the base grid.  The table is kept read-only on the base PointSet with one
memo, so the oscillator fields of a grid build each factor once, as they do
on the grid's seed jets in exact mode.  Nothing the memo keeps may serve
another grid, another step table, an array built elsewhere or another run,
or outlive its grid.
"""

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
    shifts, rows, memo = grid.table
    assert len(rows) == 4 and all(row.shape == (33, len(grid)) and not row.flags.writeable for row in rows)
    assert sorted(calls) == [0, 0, 0, 1, 1, 1]
    kept = [v for v in memo.values() if isinstance(v, np.ndarray)]
    assert kept and not any(v.flags.writeable for v in kept)
    for ladder in (v for v in memo.values() if isinstance(v, ho.HermiteLadder)):
        assert not ladder.xi.flags.writeable and not any(t.flags.writeable for t in ladder.terms[1:])

    calls.clear()
    _diff(ho.eigenfunction_x(MODEL, _level(2)), grid.tiled(6), STENCIL)
    assert grid.table[1] is rows and grid.table[2] is memo
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
    _, rows, memo = grid.table
    _diff(field, grid, STENCIL, length_scale=2.0)
    assert grid.table[1][0] is not rows[0] and grid.table[2] is not memo
    assert calls == [0, 0, 0] * 2


def test_a_table_built_elsewhere_keeps_nothing(monkeypatch):
    """The field called on equal copies of a grid's kept rows, outside a
    stencil pass, builds its factors every time, and the memo is untouched."""
    calls = _counted_hermite(monkeypatch)
    grid = Grid(r_min=0.1, r_max=4.0, shells=4).points()
    field = ho.eigenfunction_x(MODEL, _level(0))
    _diff(field, grid, STENCIL)
    _, rows, memo = grid.table
    before = dict(memo)
    calls.clear()
    for args in ([row.copy() for row in rows], rows):
        for _ in range(2):
            field(*args)
    assert calls == [0, 0, 0] * 4
    assert memo == before


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


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("suite", SUITES)
def test_every_grid_is_freed_after_a_run(monkeypatch, suite, mode):
    """With no garbage collection: no cycle holds a grid, its table or its memo."""
    grids, sample, jet_pass = [], diffengine._sample, diffengine._jet_pass

    def recorded(pass_, field, pts, *args):
        grids.append(weakref.ref(pts.base))
        return pass_(field, pts, *args)

    monkeypatch.setattr(diffengine, "_sample", lambda *a: recorded(sample, *a))
    monkeypatch.setattr(diffengine, "_jet_pass", lambda *a: recorded(jet_pass, *a))
    report = run_suite(suite, {}, DiffConfig(mode=mode))
    assert report.passed and grids
    assert [ref for ref in grids if ref() is not None] == []


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
