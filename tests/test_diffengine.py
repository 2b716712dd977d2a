import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kgconformal import coulomb as cb
from kgconformal import dual
from kgconformal import oscillator as ho
from kgconformal.core import (
    ComplexField, ConfigError, DomainError, NonFiniteError, PointSet, natural_units,
)
from kgconformal.diffengine import STEP, DiffConfig, MODE_EXACT, MODE_STENCIL, T_AXIS, _clamped_step, _diff
from kgconformal.harness import Grid, _with_energy

import per_shift_stencil
from conftest import field_family

GAUSS = ComplexField(fn=lambda x1, x2, x3, t: dual.exp(-(x1 * x1) / 2.0), label="gauss")


def _at_x1_one() -> PointSet:
    """The grid of the one point x = (1, 0, 0), t = 0."""
    return PointSet([1.0], [0.0], [0.0], [0.0])


coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def _wave():
    def fn(x1, x2, x3, t):
        return dual.exp(1j * (0.4 * x1 - 0.7 * x2 + 0.2 * x3 - 1.3 * t))

    return ComplexField(fn=fn, label="wave")


def test_gaussian_first_derivative_oracle(exact_cfg):
    # d/dx exp(-x^2/2) at x = 1 is -exp(-1/2) = -0.6065306597...
    d = _diff(GAUSS, _at_x1_one(), exact_cfg)
    assert d.grad[0, 0] == pytest.approx(-0.6065306597126334, abs=1e-15)
    assert d.value[0] == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_gaussian_second_derivative_oracle(exact_cfg):
    # (x^2 - 1) exp(-x^2/2) vanishes at x = 1; nothing depends on x2, x3, t
    d = _diff(GAUSS, _at_x1_one(), exact_cfg)
    assert abs(d.hess[0, 0]) < 1e-15
    assert (d.grad[1:] == 0).all() and (d.hess[1:] == 0).all()


def test_stencil_matches_exact(stencil_cfg, exact_cfg):
    fld = _wave()
    points = PointSet([0.3], [-0.2], [0.9], [0.1])
    a = _diff(fld, points, exact_cfg)
    b = _diff(fld, points, stencil_cfg)
    for axis in (0, 1, 2, T_AXIS):
        assert abs(a.grad[axis, 0] - b.grad[axis, 0]) < 1e-10, axis
    assert abs(a.hess[1, 0] - b.hess[1, 0]) < 1e-10
    assert a.value[0] == b.value[0]


def test_exact_mode_error_is_zero(exact_cfg):
    d = _diff(GAUSS, _at_x1_one(), exact_cfg)
    assert (d.grad_err == 0.0).all() and (d.hess_err == 0.0).all()


def test_stencil_error_estimate_converges():
    """Refining the x step by 10x, where truncation dominates (x steps 1.0
    and 0.1 on a wave of wavelength 16), must shrink the estimate by >= 10x."""
    points = PointSet([0.5], [0.1], [-0.3], [0.0])
    coarse = _diff(_wave(), points, DiffConfig(mode=MODE_STENCIL, length_scale=200.0))
    fine = _diff(_wave(), points, DiffConfig(mode=MODE_STENCIL, length_scale=20.0))
    assert fine.hess_err[0, 0] < coarse.hess_err[0, 0] / 10.0


def test_error_estimate_bounds_true_error(stencil_cfg, exact_cfg):
    points = PointSet([0.5], [0.1], [-0.3], [0.2])
    truth = _diff(_wave(), points, exact_cfg)
    got = _diff(_wave(), points, stencil_cfg)
    assert (np.abs(got.grad - truth.grad) <= got.grad_err).all()
    assert (np.abs(got.hess - truth.hess) <= got.hess_err).all()


@given(coords, coords, st.floats(min_value=-1.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_linearity(x, y, lam):
    """_diff(f + lam g) = _diff(f) + lam _diff(g), on every axis."""
    cfg = DiffConfig(mode=MODE_EXACT)
    f = _wave()
    g = GAUSS
    combo = ComplexField(
        fn=lambda x1, x2, x3, t: f.fn(x1, x2, x3, t) + lam * g.fn(x1, x2, x3, t)
    )
    p = PointSet([x], [y], [0.2], [0.1])
    dc, df, dg = (_diff(fld, p, cfg) for fld in (combo, f, g))
    assert dc.grad[:, 0] == pytest.approx(df.grad[:, 0] + lam * dg.grad[:, 0], rel=1e-12, abs=1e-12)
    assert dc.hess[:, 0] == pytest.approx(df.hess[:, 0] + lam * dg.hess[:, 0], rel=1e-12, abs=1e-12)


def test_singular_field_step_clamped():
    """Stencil reach must stay inside r > 0 for origin-singular fields."""
    fld = ComplexField(
        fn=lambda x1, x2, x3, t: 1.0 / dual.norm3(x1, x2, x3),
        singular_at_origin=True,
    )
    # 2h = 1e-2 would hit r = 0 at the first point; the second keeps the full step
    points = PointSet([0.01, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    d = _diff(fld, points, DiffConfig(mode=MODE_STENCIL))
    # accuracy is limited this close to the pole; the point is that the
    # clamped stencil never touches r <= 0 and the sign/magnitude are right
    assert d.grad[0, 0] == pytest.approx(-1.0 / 0.01**2, rel=1e-4)
    assert d.grad[0, 1] == pytest.approx(-1.0 / 2.0**2, rel=1e-10)


def test_singular_field_at_origin_raises():
    fld = ComplexField(fn=lambda *a: 1.0, singular_at_origin=True)
    with pytest.raises(DomainError):  # at the grid's second point, x = 0
        _diff(fld, PointSet([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]), DiffConfig(mode=MODE_STENCIL))


def test_nonfinite_sample_raises(stencil_cfg, exact_cfg):
    fld = ComplexField(fn=lambda x1, x2, x3, t: math.inf)
    for cfg in (stencil_cfg, exact_cfg):
        with pytest.raises(NonFiniteError):
            _diff(fld, _at_x1_one(), cfg)
    # overflow inside the field is reported the same way
    big = ComplexField(fn=lambda x1, x2, x3, t: dual.exp(800.0 * x1))
    for cfg in (stencil_cfg, exact_cfg):
        with pytest.raises(NonFiniteError):
            _diff(big, _at_x1_one(), cfg)


def test_config_validation():
    with pytest.raises(ConfigError):
        DiffConfig(mode="backward")
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ConfigError):
            DiffConfig(length_scale=bad)


def test_one_field_call_per_grid_in_both_modes(exact_cfg, stencil_cfg):
    calls = []

    def fn(x1, x2, x3, t):
        calls.append((x1, x2, x3, t))
        return _wave().fn(x1, x2, x3, t)

    points = Grid(r_min=0.1, r_max=2.0, shells=3).points()
    _diff(ComplexField(fn=fn), points, exact_cfg)
    assert len(calls) == 1
    calls.clear()
    _diff(ComplexField(fn=fn), points, stencil_cfg)
    # one call on a table of rows: the centre, then +-2h, +-h, +-h/2, +-h/4
    # along each of the four axes
    (args,) = calls
    assert [np.shape(x) for x in args] == [(1 + 4 * 8, len(points))] * 4


# -- the stencil estimate bounds the stencil's error -----------------------

OSC = ho.OscillatorModel(omega=1.0, units=natural_units())
COULOMB = cb.CoulombModel(alpha=0.0072973525693, units=natural_units())
OSC_POINTS = Grid(r_min=0.1, r_max=4.0, shells=10).points()
COULOMB_GROUND = cb.make_state(COULOMB, 0, 0)


def _oscillator_case(draw):
    n = draw(st.integers(min_value=0, max_value=6))
    l1 = draw(st.integers(min_value=0, max_value=n))
    l2 = draw(st.integers(min_value=0, max_value=n - l1))
    state = ho.make_state(OSC, l1, l2, n - l1 - l2)
    make = draw(st.sampled_from((ho.eigenfunction_x, ho.eigenfunction_z)))
    return make(OSC, state), OSC_POINTS, DiffConfig(mode=MODE_STENCIL)


def _coulomb_case(draw):
    n, l = draw(st.sampled_from(((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))))
    k = draw(st.integers(min_value=-l, max_value=l))
    state = cb.make_state(COULOMB, n, l, k)
    make = draw(st.sampled_from((cb.eigenfunction_x, cb.eigenfunction_z)))
    points = Grid(r_min=0.1 * state.r_scale, r_max=20.0 * state.r_scale, shells=8).points()
    return make(COULOMB, state), points, DiffConfig(mode=MODE_STENCIL, length_scale=state.r_scale)


def _test_field_case(draw):
    seed = draw(st.integers(min_value=0, max_value=10**6))
    if draw(st.booleans()):
        return (*field_family([seed], r_max=3.0), DiffConfig(mode=MODE_STENCIL))
    fld, points = field_family([seed], r_max=3.0 * COULOMB_GROUND.r_scale)
    fld = _with_energy(fld, COULOMB_GROUND.energy)
    return fld, points, DiffConfig(mode=MODE_STENCIL, length_scale=COULOMB_GROUND.r_scale)


@st.composite
def stencil_cases(draw):
    return draw(st.sampled_from((_oscillator_case, _coulomb_case, _test_field_case)))(draw)


@given(stencil_cases())
@settings(max_examples=30, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
def test_stencil_estimate_bounds_error_everywhere(case):
    """On the eigen suites' grids and on seeded test fields, every stencil
    error estimate is at least the distance to the exact-mode derivative."""
    fld, points, cfg = case
    got = _diff(fld, points, cfg)
    truth = _diff(fld, points, DiffConfig(mode=MODE_EXACT))
    assert (np.abs(got.grad - truth.grad) <= got.grad_err).all()
    assert (np.abs(got.hess - truth.hess) <= got.hess_err).all()


def _test_family():
    return (*field_family(range(40, 52), r_max=3.0), DiffConfig(mode=MODE_STENCIL))


def _clamped_coulomb():
    state = cb.make_state(COULOMB, 1, 1, 1)
    # the points with r < 4 STEP r_scale take a step of r / 4 of their own
    points = Grid(r_min=0.002 * state.r_scale, r_max=5.0 * state.r_scale, shells=6).points()
    cfg = DiffConfig(mode=MODE_STENCIL, length_scale=state.r_scale)
    fld = cb.eigenfunction_x(COULOMB, state)
    h = _clamped_step(fld, points, cfg, 0)
    assert 0 < (h < STEP * state.r_scale).sum() < len(points)
    return fld, points, cfg


@pytest.mark.parametrize(
    "case",
    [
        lambda: (ho.eigenfunction_x(OSC, ho.make_state(OSC, 2, 1, 0)), OSC_POINTS, DiffConfig(mode=MODE_STENCIL)),
        lambda: (ho.eigenfunction_z(OSC, ho.make_state(OSC, 0, 1, 3)), OSC_POINTS, DiffConfig(mode=MODE_STENCIL)),
        _clamped_coulomb,
        _test_family,
    ],
    ids=["oscillator-x", "oscillator-z", "coulomb-clamped", "test-field-family"],
)
def test_stencil_table_equals_per_shift_sampling(case):
    """One call on the stacked table gives, bit for bit, what one call per
    shifted grid gave: values, derivatives and both estimates."""
    fld, points, cfg = case()
    got = _diff(fld, points, cfg)
    want = per_shift_stencil.stencil_pass(fld, points, cfg)
    for name, ref in zip(("value", "grad", "hess", "grad_err", "hess_err"), want):
        assert np.array_equal(getattr(got, name), ref), name
