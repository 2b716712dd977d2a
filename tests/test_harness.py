import math

import numpy as np
import pytest

import random

from kgconformal import coulomb as cb
from kgconformal import harness
from kgconformal import oscillator as ho
from kgconformal.confmap import Sample, evaluate
from kgconformal.core import ComplexField, ConfigError, SpaceTimePoint
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL, STEP, _diff
from kgconformal.harness import (
    ENERGY_RANGE,
    FIELD_POINTS,
    Grid,
    SUITES,
    TestFieldSpec,
    _family_points,
    _field_bounds,
    _field_sample_points,
    _uniform,
    _with_energy,
    default_tolerance,
    generate_test_family,
    generate_test_field,
    run_suite,
)


def test_grid_shape():
    g = Grid(r_min=0.1, r_max=2.0, shells=5)
    pts = g.points()
    assert len(pts) == 5 * 6 * 2  # shells x directions x times
    radii = sorted({round(p.r, 12) for p in pts})
    assert radii[0] == pytest.approx(0.1)
    assert radii[-1] == pytest.approx(2.0)


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid(r_min=0.0, r_max=1.0)
    with pytest.raises(ConfigError):
        Grid(r_min=2.0, r_max=1.0)


def test_default_tolerance():
    assert default_tolerance(DiffConfig(mode=MODE_EXACT)) == 1e-10
    assert default_tolerance(DiffConfig(mode=MODE_STENCIL)) == 1e-8


def test_length_scale_scales_x_steps_only():
    """The widest stencil reach is 2 STEP length_scale along x1, x2, x3 and
    2 STEP along t, whatever the length scale: from a DiffConfig, and from a
    Sample's length scale through evaluate."""
    center = (1.0, -2.0, 3.0, 0.5)
    points = [SpaceTimePoint(x=center[:3], t=center[3])]
    routes = (
        lambda fld, length_scale: _diff(fld, points, DiffConfig(mode=MODE_STENCIL, length_scale=length_scale)),
        lambda fld, length_scale: evaluate("steps", MODE_STENCIL, [Sample(fld, points, (), length_scale)]),
    )
    for route in routes:
        for length_scale in (1.0, 100.0):
            calls = []

            def fn(*args):
                calls.append(args)
                return 0.0 * args[0]

            route(ComplexField(fn=fn), length_scale)
            reach = [max(abs(float(args[axis][0]) - center[axis]) for args in calls) for axis in range(4)]
            scale = (length_scale,) * 3 + (1.0,)
            assert reach == [pytest.approx(2.0 * STEP * s, rel=1e-9) for s in scale]


def test_generate_test_field_deterministic():
    a = generate_test_field(TestFieldSpec(seed=7))
    b = generate_test_field(TestFieldSpec(seed=7))
    c = generate_test_field(TestFieldSpec(seed=8))
    p = SpaceTimePoint(x=(0.4, -0.2, 0.1), t=0.3)
    assert complex(a.at(p)) == complex(b.at(p))
    assert complex(a.at(p)) != complex(c.at(p))
    assert a.energy_hint == b.energy_hint


def test_generate_test_field_decays_at_boundary():
    spec = TestFieldSpec(seed=3, r_max=3.0)
    fld = generate_test_field(spec)
    near = abs(complex(fld.at(SpaceTimePoint(x=(0.1, 0.1, 0.1), t=0.0))))
    far = abs(complex(fld.at(SpaceTimePoint(x=(3.0, 0.0, 0.0), t=0.0))))
    assert far < 1e-4 * max(near, 1e-30)


def test_unknown_suite_rejected():
    with pytest.raises(ConfigError):
        run_suite("no-such-suite")


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
    "oscillator": ([TestFieldSpec(seed=s, r_max=3.0) for s in (0, 1, 2, 7, 11, 5000, 12345)], None),
    "coulomb": ([TestFieldSpec(seed=5000 + s, r_max=3.0 * GROUND.r_scale) for s in (0, 1, 2, 3, 4, 9, 77)],
                GROUND.energy),
}


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_family_derivatives_equal_each_fields(family, mode):
    """One pass over a family gives, bit for bit, what each field's own
    pass gives on its own points, in both modes."""
    specs, energy = FAMILIES[family]
    cfg = DiffConfig(mode=mode) if energy is None else DiffConfig(mode=mode, length_scale=GROUND.r_scale)

    def energized(fld):
        return fld if energy is None else _with_energy(fld, energy)

    fam = _diff(energized(generate_test_family(specs)), _family_points(specs), cfg)
    singles = [_diff(energized(generate_test_field(s)), _field_sample_points(s), cfg) for s in specs]
    assert list(fam.points) == [p for d in singles for p in d.points]
    for part in ("value", "grad", "hess", "grad_err", "hess_err"):
        want = np.concatenate([getattr(d, part) for d in singles], axis=-1)
        assert np.array_equal(getattr(fam, part), want), part
    assert np.array_equal(np.broadcast_to(fam.field.energy_hint, len(fam.points)),
                          [d.field.energy_hint for d in singles for _ in d.points])


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
        specs = [TestFieldSpec(seed=v * 10000 + offset + i, r_max=r_max) for v in range(16) for i in range(1500)]
        q, e_lo, e_hi = r_max / 4.0, *ENERGY_RANGE
        field_calls = ((-q, q, 3), (-1.0, 1.0, 3), (-0.5, 0.5, 3), (0.5, 1.5, None), (e_lo, e_hi, None))
        lo, hi = (np.array(rows) for rows in zip(*map(_field_bounds, specs)))
        got = _uniform([s.seed for s in specs], lo, hi)
        want = np.array([_uniform_calls(s.seed, field_calls) for s in specs])
        assert np.array_equal(got, want)

        point_calls = ((-r_max / 3.0, r_max / 3.0, 3), (-0.5, 0.5, None)) * FIELD_POINTS
        got = np.array([p.x + (p.t,) for p in _family_points(specs)])
        want = np.array([_uniform_calls(s.seed + 987654321, point_calls) for s in specs]).reshape(-1, 4)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("mode", [MODE_EXACT, MODE_STENCIL])
def test_operator_identities_report_does_not_depend_on_chunking(monkeypatch, mode):
    """Families of FAMILY_SIZE fields, and a last family of one, report what
    one field per pass reports."""
    params, cfg = {"n_fields": harness.FAMILY_SIZE + 1, "seed": 2}, DiffConfig(mode=mode)
    chunked = run_suite("operator-identities", params, cfg).with_wall_ms(0.0).to_json()
    monkeypatch.setattr(harness, "FAMILY_SIZE", 1)
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
