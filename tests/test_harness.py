import math
import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import random

from kgconformal import coulomb as cb
from kgconformal import dual
from kgconformal import harness
from kgconformal import oscillator as ho
from kgconformal.confmap import Sample, evaluate
from kgconformal.core import ComplexField, ConfigError, PointSet
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL, STEP, _diff
from kgconformal.harness import (
    ENERGY_RANGE,
    FIELD_POINTS,
    Grid,
    SUITES,
    _field_sample_points,
    _with_energy,
    default_tolerance,
    generate_test_field,
    run_suite,
)
from kgconformal.specfun import hermite

from conftest import family_energies, field_family, point_rows


def test_grid_shape():
    g = Grid(r_min=0.1, r_max=2.0, shells=5)
    pts = g.points()
    assert len(pts) == 5 * 6 * 2  # shells x directions x times
    radii = sorted({round(r, 12) for r in pts.radii.tolist()})
    assert radii[0] == pytest.approx(0.1)
    assert radii[-1] == pytest.approx(2.0)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(r_min=0.0, r_max=1.0)
    with pytest.raises(ConfigError):
        Grid(r_min=2.0, r_max=1.0)


@pytest.mark.parametrize(
    "bad",
    [{"shells": 2.5}, {"shells": True}, {"shells": np.float64(4.0)}, {"r_min": math.nan}, {"r_max": math.nan},
     {"r_max": math.inf}, {"r_min": -math.inf}, {"times": (math.nan,)}, {"times": (0.0, math.inf)}],
    ids=str,
)
def test_grid_refuses_fractional_shells_and_nonfinite_radii_or_times(bad):
    """A bad grid is refused when it is made, by name: a fractional shell
    count would otherwise fail in numpy, and a non-finite radius or time
    only later, as a field's NonFiniteError."""
    with pytest.raises(ConfigError, match="grid needs"):
        Grid(**{"r_min": 0.1, "r_max": 1.0, **bad})


def test_default_tolerance():
    assert default_tolerance(DiffConfig(mode=MODE_EXACT)) == 1e-10
    assert default_tolerance(DiffConfig(mode=MODE_STENCIL)) == 1e-8


def test_length_scale_scales_x_steps_only():
    """The widest stencil reach is 2 STEP length_scale along x1, x2, x3 and
    2 STEP along t, whatever the length scale: passed to _diff, and from a
    Sample's length scale through evaluate."""
    center = (1.0, -2.0, 3.0, 0.5)
    points = PointSet(*([v] for v in center))
    routes = (
        lambda fld, length_scale: _diff(fld, points, DiffConfig(mode=MODE_STENCIL), length_scale=length_scale),
        lambda fld, length_scale: evaluate("steps", MODE_STENCIL, [Sample(fld, points, (), length_scale)]),
    )
    for route in routes:
        for length_scale in (1.0, 100.0):
            calls = []

            def fn(*args):
                calls.append(args)
                return 0.0 * args[0]

            route(ComplexField(fn=fn), length_scale)
            (args,) = calls  # one call, on (33, 1) arrays of shifted coordinates
            reach = [np.abs(args[axis][:, 0] - center[axis]).max() for axis in range(4)]
            scale = (length_scale,) * 3 + (1.0,)
            assert reach == [pytest.approx(2.0 * STEP * s, rel=1e-9) for s in scale]


def test_generate_test_field_deterministic():
    (a, _), (b, _), (c, _) = field_family([7]), field_family([7]), field_family([8])
    p = (0.4, -0.2, 0.1, 0.3)
    assert complex(a.at(p)) == complex(b.at(p))
    assert complex(a.at(p)) != complex(c.at(p))
    assert np.array_equal(family_energies([7]), family_energies([7]))


def test_generate_test_field_decays_at_boundary():
    fld, _ = field_family([3], r_max=3.0)
    near = abs(complex(fld.at((0.1, 0.1, 0.1, 0.0))))
    far = abs(complex(fld.at((3.0, 0.0, 0.0, 0.0))))
    assert far < 1e-4 * max(near, 1e-30)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite("no-such-suite")


def _resolved(suite, **given):
    """The parameter dict run_suite hands suite ``suite``: ``given``, and every other default."""
    return harness._checked(suite, given, DiffConfig())


class _RecordedReads(dict):
    """A parameter dict that records every key a suite reads."""

    def __init__(self, params):
        super().__init__(params)
        self.keys_read = set()

    def get(self, key, default=None):
        self.keys_read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.keys_read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.keys_read.add(key)
        return super().__contains__(key)


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_reads_exactly_its_declared_parameters(suite):
    """A suite's declaration reads the parameters _DECLARATIONS lists for
    it (run_suite reads ``tolerance``), and run_suite refuses every other
    parameter before anything runs, naming the suite and the key."""
    declare, names = harness._DECLARATIONS[suite]
    params = _RecordedReads(_resolved(suite))
    for _ in declare(params, 1e-10):
        pass
    assert params.keys_read == set(names)
    valid = {"nmax": 1, "seed": 1, "n_fields": 1, "omega": 1.0, "alpha": 0.01, "energy": 1.0,
             "states": [(0, 0)], "branch": "sommerfeld", "grid": Grid(r_min=0.1, r_max=4.0)}
    assert set(valid) | {"tolerance"} == set(harness._PARAMS)
    for key in set(valid) - params.keys_read:
        with pytest.raises(ConfigError, match=f"^suite '{suite}' does not read parameter '{key}'$"):
            run_suite(suite, {key: valid[key]})


def test_readme_parameter_table_matches_the_declarations():
    """README's table of suite parameters lists every parameter of _PARAMS,
    in order, with its default and the suites that read it."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| parameter   | default | read by |")
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        key, default, suites = (cell.strip() for cell in line.strip("|").split("|"))
        rows[key.strip("`")] = (re.findall(r"`([^`]*)`", default), suites)
    assert list(rows) == list(harness._PARAMS)
    for key, (defaults, suites) in rows.items():
        default = harness._PARAMS[key][1]
        if key == "tolerance":
            assert defaults == [repr(default(DiffConfig(mode=mode))) for mode in (MODE_EXACT, MODE_STENCIL)]
            assert suites == "every suite"
        else:
            assert defaults[0] == repr(default)
            assert suites == ", ".join(f"`{name}`" for name, (_, keys) in harness._DECLARATIONS.items() if key in keys)


@pytest.mark.parametrize("suite", ["holomorphy", "map-independence", "reductions"])
def test_cheap_suites_pass_exact(suite):
    rep = run_suite(suite, {}, DiffConfig(mode=MODE_EXACT))
    assert rep.suite == suite
    assert rep.passed
    probes = [c for c in rep.cases if c.is_probe]
    assert probes, "every suite carries at least one fail-probe"
    assert all(not c.passed for c in probes)


def test_suite_reports_are_deterministic():
    kw = ({"nmax": 1}, DiffConfig(mode=MODE_EXACT))
    a = run_suite("oscillator-x", *kw).with_wall_ms(0.0)
    b = run_suite("oscillator-x", *kw).with_wall_ms(0.0)
    assert a.to_json() == b.to_json()


def test_operator_identities_small():
    rep = run_suite("operator-identities", {"n_fields": 3}, DiffConfig(mode=MODE_EXACT))
    assert rep.passed
    names = [c.name for c in rep.cases]
    assert "qprop-oscillator" in names
    assert "d2z-coulomb" in names
    assert "probe:reversed-composition" in names


def test_ladder_suite_small():
    rep = run_suite("ladder", {"nmax": 1}, DiffConfig(mode=MODE_EXACT))
    assert rep.passed
    byname = {c.name: c for c in rep.cases}
    assert byname["annihilate-ground"].max_residual < 1e-12
    assert not byname["probe:number-operator-off-by-one"].passed


def _recorded_tiles(monkeypatch, module, name):
    """The states of each field that ``module.name`` makes, one per tile, by field."""
    tiles, make = {}, getattr(module, name)

    def recording(model, states):
        fld = make(model, states)
        tiles[id(fld)] = [s.ls for s in ((states,) if isinstance(states, ho.OscillatorState) else states)]
        return fld

    monkeypatch.setattr(module, name, recording)
    return tiles


def test_ladder_differentiates_each_state_once(monkeypatch):
    """Every state is one tile of one Sample, each Sample holds states of
    one level, and (1,0,0) is alone in the last Sample, which carries its
    level's read and the closing reads; at nmax 0 it stands alone."""
    tiles = _recorded_tiles(monkeypatch, ho, "eigenfunction_x")
    for nmax in (0, 1, 4, 6):
        samples = [s for s in harness._suite_ladder(_resolved("ladder", nmax=nmax), 1e-10) if isinstance(s, Sample)]
        per_sample = [tiles[id(s.field)] for s in samples]
        assert [s.points.tiles for s in samples] == [len(states) for states in per_sample]
        assert all(len({sum(ls) for ls in states}) == 1 for states in per_sample)
        states = [ls for each in per_sample for ls in each]
        want = [s.ls for n in range(nmax + 1) for s in ho.states_with_n(ho.OscillatorModel(1.0), n)]
        assert sorted(states) == sorted(set(want) | {(1, 0, 0)}) and len(set(states)) == len(states)
        assert per_sample[-1] == [(1, 0, 0)]
        cases = [read.case for read in samples[-1].reads]
        assert cases == ["number-operator-n1"] * (nmax >= 1) + [
            "lowering-proportionality", "probe:number-operator-off-by-one"]


def _declared_point_sets():
    for name, (declare, _) in harness._DECLARATIONS.items():
        for item in declare(_resolved(name), 1e-10):
            if isinstance(item, Sample):
                yield name, item.points


def test_point_set_radii_are_each_points_r():
    """PointSet's array radii round as math.sqrt(x1^2 + x2^2 + x3^2) does at
    each point, on every suite's default grids and on a family of 1,500
    test fields."""
    _, family = field_family(range(1500), r_max=3.0 * GROUND.r_scale)
    for name, points in list(_declared_point_sets()) + [("family", family)]:
        want = [math.sqrt(x1 * x1 + x2 * x2 + x3 * x3) for x1, x2, x3, _ in point_rows(points)]
        assert points.radii.tolist() == want, name


def test_point_set_radii_are_the_seed_jets_r():
    """PointSet's radii equal the value of dual.norm3 on the grid's own seed
    jets, the r every exact-mode field computes, bit for bit."""
    exact = DiffConfig(mode=MODE_EXACT)
    for name, points in _declared_point_sets():
        _diff(ComplexField(fn=lambda x1, x2, x3, t: x1), points, exact)  # makes the seed jets
        _, (x1, x2, x3, _), _, _ = points.base.kept
        assert np.array_equal(points.radii, np.tile(dual.norm3(x1, x2, x3).v, points.tiles)), name


def _grid_points_per_point(grid):
    """Grid.points made one point at a time: shell, then direction, then time."""
    return [(r * d[0], r * d[1], r * d[2], t) for r in grid.radii() for d in harness.DIRECTIONS for t in grid.times]


def _row_points_per_point(rows):
    """harness._points made one point at a time, one per (x1, x2, x3, t) row."""
    return [tuple(row) for row in rows.reshape(-1, 4).tolist()]


def _holomorphy_points_per_point(t_window, tau_window):
    """The 7 x 7 (t, tau) grid of confmap.holomorphy_residual, made one point at a time."""
    (t_lo, t_hi), (tau_lo, tau_hi) = t_window, tau_window
    return [(t_lo + (t_hi - t_lo) * i / 6, tau_lo + (tau_hi - tau_lo) * j / 6, 0.0, 0.0)
            for i in range(7) for j in range(7)]


def _assert_exact_grid(pts, reference):
    """``pts`` holds the reference points' coordinates, row for row."""
    assert point_rows(pts) == reference


@pytest.mark.parametrize("suite", SUITES)
def test_grid_arrays_equal_the_per_point_construction(suite, monkeypatch):
    """Every grid a suite declares at its default parameters holds, with ==,
    the coordinates its points had when they were made one at a time."""
    made = []  # (point set, its points made one at a time)
    points, rows_points, holomorphy = Grid.points, harness._points, harness.holomorphy_residual

    def grid_points(grid):
        made.append((points(grid), _grid_points_per_point(grid)))
        return made[-1][0]

    def row_points(rows):
        made.append((rows_points(rows), _row_points_per_point(rows)))
        return made[-1][0]

    def holomorphy_sample(f, t_window, tau_window, *args):
        sample = holomorphy(f, t_window, tau_window, *args)
        made.append((sample.points, _holomorphy_points_per_point(t_window, tau_window)))
        return sample

    monkeypatch.setattr(Grid, "points", grid_points)
    monkeypatch.setattr(harness, "_points", row_points)
    monkeypatch.setattr(harness, "holomorphy_residual", holomorphy_sample)
    declared = [item.points for item in harness._DECLARATIONS[suite][0](_resolved(suite), 1e-10) if isinstance(item, Sample)]
    # a tiled grid holds its base grid's coordinates once per tile
    assert made and all(any(pts.base is m for m, _ in made) for pts in declared)
    for pts in declared:
        assert all(np.array_equal(c, np.tile(b, pts.tiles)) for c, b in zip(pts.coords, pts.base.coords))
    for pts, reference in made:
        _assert_exact_grid(pts, reference)


def test_grid_with_other_times_equals_the_per_point_construction():
    grid = Grid(r_min=0.1, r_max=4.0, shells=4, times=(0.0, 0.37))
    _assert_exact_grid(grid.points(), _grid_points_per_point(grid))


def test_empty_or_ragged_grid_is_a_config_error():
    with pytest.raises(ConfigError, match="at least one point"):
        PointSet([], [], [], [])
    with pytest.raises(ConfigError, match="at least one point"):
        Grid(r_min=0.1, r_max=4.0, times=()).points()
    with pytest.raises(ConfigError, match="of one length"):
        PointSet([0.5], [0.1], [0.2], [0.0, 0.3])


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("suite", SUITES)
def test_no_point_object_is_made_on_the_residual_path(suite, mode, monkeypatch):
    """Grids are made, differentiated and read as arrays: a suite run never
    evaluates a field at one point, by ``at`` or on float coordinates."""
    calls, at = [], []
    call = ComplexField.__call__

    def recorded(self, *args):
        calls.append(args)
        return call(self, *args)

    monkeypatch.setattr(ComplexField, "__call__", recorded)
    monkeypatch.setattr(ComplexField, "at", lambda self, p: at.append(p))
    params = {"n_fields": 200} if suite == "operator-identities" else {}
    run_suite(suite, params, DiffConfig(mode=mode))
    assert calls and at == []
    assert not any(isinstance(arg, float) for args in calls for arg in args)


#: the ladder suite's default grid, and the grids the benchmark moves the second time sample of
LADDER_GRIDS = [Grid(r_min=0.1, r_max=4.0, shells=10)] + [
    Grid(r_min=0.1, r_max=4.0, shells=10, times=(0.0, random.Random(v).uniform(0.05, 0.6))) for v in range(16)
]


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_ground_state_on_the_points_is_its_differentiated_value(omega, mode):
    """lowering-proportionality evaluates psi_0 on the grid directly, in place
    of differentiating it: both give the same values bit for bit."""
    model = ho.OscillatorModel(omega=omega)
    psi0 = ho.eigenfunction_x(model, ho.make_state(model, 0, 0, 0))
    for grid in LADDER_GRIDS:
        d = _diff(psi0, grid.points(), DiffConfig(mode=mode))
        assert np.array_equal(psi0(*d.points.coords), d.value)


def test_all_suites_registered():
    assert len(SUITES) == 9
    assert len(set(SUITES)) == 9


# -- test-field families ----------------------------------------------------

GROUND = cb.make_state(cb.CoulombModel(alpha=0.0072973525693), 0, 0)
FAMILIES = {
    "oscillator": ((0, 1, 2, 7, 11, 5000, 12345), 3.0, None),
    "coulomb": (tuple(5000 + s for s in (0, 1, 2, 3, 4, 9, 77)), 3.0 * GROUND.r_scale, GROUND.energy),
}


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_derivatives_equal_each_fields(family, mode):
    """One pass over a family gives, bit for bit, what each field's own
    pass gives on its own points, in both modes."""
    seeds, r_max, energy = FAMILIES[family]
    length_scale = 1.0 if energy is None else GROUND.r_scale

    def differentiated(some):
        fld, points = field_family(some, r_max)
        if energy is not None:
            fld = _with_energy(fld, family_energies(some, r_max), energy)
        return _diff(fld, points, DiffConfig(mode=mode), length_scale=length_scale)

    fam = differentiated(seeds)
    singles = [differentiated([s]) for s in seeds]
    assert point_rows(fam.points) == [p for d in singles for p in point_rows(d.points)]
    for part in ("value", "grad", "hess", "grad_err", "hess_err"):
        want = np.concatenate([getattr(d, part) for d in singles], axis=-1)
        assert np.array_equal(getattr(fam, part), want), part
    assert np.array_equal(family_energies(seeds, r_max),
                          [e for s in seeds for e in family_energies([s], r_max).tolist()])


@pytest.mark.parametrize("seed,r_max", [(7, 3.0), (5003, 3.0 * GROUND.r_scale), (2**62 - 1, 3.0)])
def test_generate_test_field_is_the_seeds_family_of_one(seed, r_max):
    """generate_test_field and _field_sample_points give the field and points
    that the suites' seed-array draw gives for the one seed."""
    seeds = np.array([seed], dtype=np.int64)
    rows, drawn_points = harness._draw(seeds, np.full(1, r_max))
    want, points = harness._family(seeds, rows), point_rows(harness._points(drawn_points))
    got = generate_test_field(seed, r_max)
    assert got.label == want.label == f"testfield-{seed}"
    # the field's phase is exp(-i E t) at its drawn energy E, the row's last entry
    d = _diff(got, harness._points(drawn_points), DiffConfig(mode=MODE_EXACT))
    assert (d.grad[3] / d.value).tolist() == pytest.approx([-1j * rows[0, -1]] * FIELD_POINTS, rel=1e-14)
    assert point_rows(_field_sample_points(seed, r_max)) == points
    assert [complex(got(*p)) for p in points] == [complex(want(*p)) for p in points]


@pytest.mark.parametrize("seed", [-1, 2**62, 2**63 - 10, 2**63])
@pytest.mark.parametrize("draw", [generate_test_field, _field_sample_points])
def test_one_seed_draws_refuse_seeds_outside_the_int64_range(draw, seed):
    """A seed below 0, or past 2^62 - 1 where its point seed (+ 987654321)
    would wrap in int64 or the seed itself would not fit, is a config error
    that names it, not a bare ValueError or OverflowError from numpy."""
    with pytest.raises(ConfigError, match=f"^test-field seed {seed} is outside 0 .. 2\\^62 - 1$"):
        draw(seed)


def test_drawn_widths_round_as_each_centres_norm():
    """1 / (2 sigma^2) of 1,500 fields drawn at once is what np.linalg.norm
    of each field's own centre gives."""
    for r_max in (3.0, 3.0 * GROUND.r_scale):
        params, _ = harness._draw(np.arange(1500), np.full(1500, r_max))
        sigma = np.array([(r_max - np.linalg.norm(row[:3])) / 6.0 for row in params])
        assert np.array_equal(params[:, 10], 1.0 / (2.0 * sigma * sigma))


def _uniform_calls(seed, calls):
    """The draws of successive Generator.uniform(lo, hi, size) calls on one seed."""
    rng = np.random.default_rng(seed)
    out = []
    for lo, hi, size in calls:
        out += [rng.uniform(lo, hi)] if size is None else rng.uniform(lo, hi, size).tolist()
    return out


def test_one_random_call_per_seed_reproduces_uniform_draws():
    """Every field and sample-point draw of the 16 benchmark variants of
    operator-identities (seeds v * 10000 + i and + 5000 + i, i < 1500):
    one random(k) call per seed gives Generator.uniform's draws."""
    for offset, r_max in ((0, 3.0), (5000, 3.0 * GROUND.r_scale)):
        seeds = np.add.outer(np.arange(16) * 10000, offset + np.arange(1500)).ravel()
        radii = np.full(len(seeds), r_max)
        q, e_lo, e_hi = r_max / 4.0, *ENERGY_RANGE
        field_calls = ((-q, q, 3), (-1.0, 1.0, 3), (-0.5, 0.5, 3), (0.5, 1.5, None), (e_lo, e_hi, None))
        rows, drawn_points = harness._draw(seeds, radii)
        got = np.delete(rows, 10, axis=1)
        want = np.array([_uniform_calls(s, field_calls) for s in seeds.tolist()])
        assert np.array_equal(got, want)

        point_calls = ((-r_max / 3.0, r_max / 3.0, 3), (-0.5, 0.5, None)) * FIELD_POINTS
        got = np.array(point_rows(harness._points(drawn_points)))
        want = np.array([_uniform_calls(s + 987654321, point_calls) for s in seeds.tolist()]).reshape(-1, 4)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("suite,params,family_sizes", [
    ("operator-identities", {"n_fields": 7}, (7, 7)),
    ("coulomb-z", {}, (5,)),
])
def test_each_family_is_drawn_in_one_random_call(monkeypatch, suite, params, family_sizes):
    """A family's parameters and points come from one standard_doubles call
    over its seeds and their point seeds."""
    calls, doubles = [], harness.standard_doubles

    def counted(seeds, k):
        calls.append((len(seeds), k))
        return doubles(seeds, k)

    monkeypatch.setattr(harness, "standard_doubles", counted)
    assert run_suite(suite, params).passed
    assert calls == [(2 * n, 4 * FIELD_POINTS) for n in family_sizes]


@pytest.mark.parametrize("seed", [2**62 // 10000, 2**63 // 10000, 2**63 // 10000 + 1,
                                  2**64 // 10000, 2**64 // 10000 + 1])
def test_seeds_past_64_bit_integers_draw_numpys_fields(monkeypatch, seed):
    """operator-identities at seeds whose seed * 10000, + 5000 or point
    seeds cross 2^62, 2^63 and 2^64 draws no field from a wrapped seed: the
    seed is past MAX_SEED and is refused before any draw."""
    drawn = []
    monkeypatch.setattr(harness, "_draw", lambda seeds, r_max: drawn.append(seeds))
    assert seed > harness.MAX_SEED
    with pytest.raises(ConfigError, match="^bad value for suite parameter 'seed'"):
        run_suite("operator-identities", {"seed": seed, "n_fields": 3})
    assert drawn == []


def test_the_largest_seed_draws_numpys_fields(monkeypatch):
    """operator-identities at MAX_SEED, whose field seeds seed * 10000 + 5000
    + i and point seeds take two 32-bit words: every field and point draw
    is numpy's, from the unwrapped seed."""
    seed = harness.MAX_SEED
    drawn, draw = [], harness._draw

    def recorded(seeds, r_max):
        drawn.append((seeds, r_max, draw(seeds, r_max)))
        return drawn[-1][2]

    monkeypatch.setattr(harness, "_draw", recorded)
    assert run_suite("operator-identities", {"seed": seed, "n_fields": 3}).passed
    want_seeds = [[seed * 10000 + offset + i for i in range(3)] for offset in (0, 5000)]
    assert [[int(s) for s in seeds] for seeds, _, _ in drawn] == want_seeds
    for seeds, r_max, (rows, points) in drawn:
        q, e_lo, e_hi = r_max[0] / 4.0, *ENERGY_RANGE
        field_calls = ((-q, q, 3), (-1.0, 1.0, 3), (-0.5, 0.5, 3), (0.5, 1.5, None), (e_lo, e_hi, None))
        point_calls = ((-r_max[0] / 3.0, r_max[0] / 3.0, 3), (-0.5, 0.5, None)) * FIELD_POINTS
        assert np.array_equal(np.delete(rows, 10, axis=1), [_uniform_calls(int(s), field_calls) for s in seeds])
        assert np.array_equal(points, [_uniform_calls(int(s) + 987654321, point_calls) for s in seeds])


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
def test_operator_identities_report_does_not_depend_on_chunking(monkeypatch, mode):
    """Families of PASS_POINTS // FIELD_POINTS fields, and a last family of
    one, report what one field per pass reports."""
    per_pass = harness.PASS_POINTS // FIELD_POINTS
    params, cfg = {"n_fields": per_pass + 1, "seed": 2}, DiffConfig(mode=mode)
    chunked = run_suite("operator-identities", params, cfg).with_wall_ms(0.0).to_json()
    monkeypatch.setattr(harness, "PASS_POINTS", FIELD_POINTS)
    assert run_suite("operator-identities", params, cfg).with_wall_ms(0.0).to_json() == chunked


#: stencil-mode cases whose estimate is propagated through d_z
STENCIL_ESTIMATED = {
    "ladder": ("annihilate-ground", "lowering-proportionality"),
    "map-independence": ("oscillator-map-ds/dz", "coulomb-map-ds/dz", "identity-map-ds/dz", "probe:detuned-map"),
}


@pytest.mark.parametrize("suite", sorted(STENCIL_ESTIMATED))
def test_stencil_estimates_bound_the_distance_to_exact(suite):
    """Each of these cases reports its own stencil estimate: positive, and
    at least the distance between its stencil and exact residuals."""
    stencil = {c.name: c for c in run_suite(suite, {}, DiffConfig(mode=MODE_STENCIL)).cases}
    exact = {c.name: c for c in run_suite(suite, {}, DiffConfig(mode=MODE_EXACT)).cases}
    for name in STENCIL_ESTIMATED[suite]:
        got, truth = stencil[name], exact[name]
        assert truth.error_estimate == 0.0
        assert got.error_estimate > 0.0, name
        assert got.error_estimate >= abs(got.max_residual - truth.max_residual), name


def test_no_factor_is_reused_across_runs(monkeypatch):
    """The oscillator factors are kept with a run's grid only: a second run
    of oscillator-x computes every Hermite factor again, once per degree
    and axis (7 x 3 at nmax 6)."""
    calls = []

    def counted(l, xi):
        calls.append(l)
        return hermite(l, xi)

    monkeypatch.setattr(ho, "hermite", counted)
    for _ in range(2):
        calls.clear()
        assert run_suite("oscillator-x", {"nmax": 6}, DiffConfig(mode=MODE_EXACT)).passed
        assert len(calls) == 21


def test_no_stencil_factor_is_reused_across_runs(monkeypatch):
    """In stencil mode the factors are kept with a run's grid too, on its
    shifted coordinate table: each run of oscillator-x computes every
    Hermite factor once per degree and axis (4 x 3 at nmax 3)."""
    calls = []

    def counted(l, xi):
        calls.append(l)
        return hermite(l, xi)

    monkeypatch.setattr(ho, "hermite", counted)
    for _ in range(2):
        calls.clear()
        assert run_suite("oscillator-x", {"nmax": 3}, DiffConfig(mode=MODE_STENCIL)).passed
        assert sorted(calls) == sorted(list(range(4)) * 3)


#: the suites that read the spring constant Omega
OMEGA_SUITES = ("oscillator-x", "oscillator-z", "ladder", "map-independence", "operator-identities")


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("omega", [0.01, 0.1, 10.0, 100.0])
@pytest.mark.parametrize("suite", OMEGA_SUITES)
def test_oscillator_suites_pass_across_omega(suite, omega, mode):
    """Off Omega = 1 the oscillator grids and steps follow the oscillator's
    own length: every regular case passes and every probe fails."""
    report = run_suite(suite, {"omega": omega}, DiffConfig(mode=mode))
    assert [c.name for c in report.cases if not c.behaved] == []
    assert any(c.is_probe for c in report.cases) and report.passed


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("omega", [1e-6, 0.01, 1e4, 1e10, 1e12, 1e20, 1e30])
def test_map_independence_passes_from_tiny_to_huge_omega(omega, mode):
    """The oscillator map is checked on a grid in oscillator lengths: on a
    fixed grid of r in [0.2, 3], ds/dz failed from Omega = 1e12 on (1e10 in
    stencil mode), 0.25 at 1e30.  The detuned-map probe fails at every Omega."""
    report = run_suite("map-independence", {"omega": omega}, DiffConfig(mode=mode))
    assert [c.name for c in report.cases if not c.behaved] == []
    assert [c.name for c in report.cases if c.is_probe] == ["probe:detuned-map"] and report.passed


@pytest.mark.parametrize("omega", [1e10, 1e30])
@pytest.mark.parametrize("suite", ["oscillator-x", "oscillator-z", "ladder"])
def test_oscillator_probes_fail_at_large_omega(suite, omega):
    """The probes shift E_0 by 5% of itself, not by a fixed 0.1 that
    vanishes against E_0 ~ Omega^(1/2), and the default grid's times are in
    the oscillator's own time unit, so E t stays of order 1: in exact mode
    every regular case passes and the probe fails, far above its tolerance."""
    report = run_suite(suite, {"omega": omega}, DiffConfig(mode=MODE_EXACT))
    assert [c.name for c in report.cases if not c.behaved] == [] and report.passed
    (probe,) = (c for c in report.cases if c.is_probe)
    assert probe.max_residual > 0.01


def test_oscillator_probe_energy_at_omega_one_is_e0_plus_a_tenth():
    """At Omega = 1, E_0 = 2 and the probes' E_0 + 0.05 E_0 is E_0 + 0.1
    exactly, the fixed shift they read before, so no default report moves."""
    e0 = ho.energy(ho.OscillatorModel(omega=1.0), 0)
    assert e0 == 2.0
    assert e0 + 0.05 * e0 == e0 + 0.1


def _two_amplitudes(energy):
    """A gaussian at energy ``energy`` on two tiles, the second twice the first."""

    def fn(x1, x2, x3, t):
        g = dual.exp(-0.5 * (x1 * x1 + x2 * x2 + x3 * x3) - 1j * energy * t)
        return dual.join_tiles([g, 2.0 * g])

    return ComplexField(fn=fn, label="two-amplitudes")


def _scaled_operators():
    """Every operator whose scale is a factor times max|psi|, by name."""
    osc, cmodel = ho.OscillatorModel(omega=1.0), cb.CoulombModel(alpha=0.3)
    state = cb.make_state(cmodel, 0, 0)
    e_osc = ho.energy(osc, 0)
    return e_osc, {
        "oscillator.kg_residual_x": partial(ho.kg_residual_x, osc, e_osc),
        "oscillator.kg_residual_z": partial(ho.kg_residual_z, osc, e_osc),
        "oscillator.energy_operator_residual": partial(ho.energy_operator_residual, osc, e_osc),
        "coulomb.kg_residual_x": partial(cb.kg_residual_x, cmodel, state.energy),
        "coulomb.kg_residual_z": partial(cb.kg_residual_z, cmodel, state, state.energy),
        "coulomb.ground_state_flatness": partial(cb.ground_state_flatness, cmodel, state),
        "harness._annihilation_residual": partial(harness._annihilation_residual, osc, e_osc),
        "harness._number_residual": partial(harness._number_residual, osc, e_osc, 1, 1),
    }


@pytest.mark.parametrize("name", sorted(_scaled_operators()[1]))
def test_every_scale_reads_its_own_tile(name):
    """On a 2-tile grid whose second tile is twice the first, each tile's
    scale is the operator's factor times that tile's own max|psi|."""
    energy, operators = _scaled_operators()
    points = Grid(r_min=0.5, r_max=2.0, shells=3).points().tiled(2)
    d = _diff(_two_amplitudes(energy), points, DiffConfig(mode=MODE_EXACT))
    scale = np.broadcast_to(operators[name](d)[2], (len(points),)).reshape(2, -1)
    assert (scale == scale[:, :1]).all()
    assert scale[1, 0] == 2.0 * scale[0, 0]
