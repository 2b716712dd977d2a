import cmath
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgconformal import coulomb as cb
from kgconformal import dual
from kgconformal import oscillator as ho
from kgconformal.confmap import (
    ConformalMap,
    Read,
    Sample,
    d_z,
    d_zstar,
    dz_dzstar,
    ds_dz,
    dzstar_dz,
    evaluate,
    forward,
    holomorphy_residual,
    independence_check,
    inverse,
    time_field,
)
from kgconformal.core import ComplexField, ConfigError, DomainError, SpaceTimePoint, natural_units
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL, _diff
from kgconformal.harness import Grid
from kgconformal.report import CaseResult

U = natural_units()
OSC_MAP = ConformalMap(a=0.0, b=1.0, lam=2.0, E=2.0, units=U)       # oscillator-shaped
COU_MAP = ConformalMap(a=0.001, b=137.0, lam=1.0, E=1.0, units=U)   # coulomb-shaped

radii = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)
times = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def test_map_validation():
    with pytest.raises(ConfigError):
        ConformalMap(a=0.0, b=-1.0, lam=2.0, E=1.0, units=U)
    with pytest.raises(ConfigError):
        ConformalMap(a=0.0, b=1.0, lam=2.0, E=0.0, units=U)
    with pytest.raises(ConfigError):
        ConformalMap(a=0.0, b=1.0, lam=-2.0, E=1.0, units=U)


def test_identity_map():
    ident = ConformalMap.identity()
    assert ident.is_identity
    p = SpaceTimePoint(x=(0.3, -0.1, 0.7), t=1.5)
    q = forward(ident, p)
    assert q.z == p.x
    assert q.s == complex(1.5)
    assert ident.time_coupling(p.x, p.r) == (0.0, 0.0, 0.0)
    assert ident.time_coupling_divergence(p.r) == 0.0


def test_forward_oracle_oscillator_shape():
    # a = 0, lam = 2: s = t - i (hbar/E) (r/b)^2
    p = SpaceTimePoint(x=(1.0, 0.0, 0.0), t=0.5)
    q = forward(OSC_MAP, p)
    assert q.z == p.x
    assert q.s == pytest.approx(0.5 - 0.5j, abs=1e-15)


def test_forward_oracle_log_term():
    # a ln r contributes at lam = 1
    p = SpaceTimePoint(x=(0.0, 2.0, 0.0), t=0.0)
    q = forward(COU_MAP, p)
    want = -1j * (0.001 * math.log(2.0) + 2.0 / 137.0)
    assert q.s == pytest.approx(want, abs=1e-15)


@given(radii, radii, radii, times)
@settings(max_examples=60)
def test_roundtrip_inverse(x1, x2, x3, t):
    p = SpaceTimePoint(x=(x1, x2, x3), t=t)
    for cmap in (OSC_MAP, COU_MAP, ConformalMap.identity()):
        back = inverse(cmap, forward(cmap, p))
        assert back.x == p.x
        assert back.t == pytest.approx(t, abs=1e-12)


def test_forward_at_origin():
    p0 = SpaceTimePoint(x=(0.0, 0.0, 0.0), t=0.0)
    with pytest.raises(DomainError):
        forward(COU_MAP, p0)  # ln r blows up when a != 0
    q = forward(OSC_MAP, p0)  # a = 0 is fine: s = t
    assert q.s == 0.0


def test_tau_is_imaginary_part_of_s():
    p = SpaceTimePoint(x=(0.6, -0.3, 0.2), t=0.9)
    q = forward(COU_MAP, p)
    assert q.s.imag == pytest.approx(COU_MAP.tau(p.r), abs=1e-16)


@given(radii)
@settings(max_examples=40)
def test_time_coupling_is_gradient_of_tau(r):
    """A_i must equal -d tau / dx_i (chain rule consistency).

    tau depends on x only through r, so -dtau/dx_i = -(x_i/r) tau'(r);
    checked against the closed form with a hyperdual derivative of tau.
    """
    for cmap in (OSC_MAP, COU_MAP):
        x = (0.6 * r, -0.48 * r, 0.64 * r)  # direction with all components
        rr = math.sqrt(sum(v * v for v in x))
        (r_jet,) = dual.variables(np.array([rr]))
        dtau_dr = cmap.tau(r_jet).g[0, 0]
        a_vec = cmap.time_coupling(x, rr)
        for xi, ai in zip(x, a_vec):
            assert ai == pytest.approx(-(xi / rr) * dtau_dr, rel=1e-12, abs=1e-14)


@given(radii)
@settings(max_examples=40)
def test_divergence_closed_form(r):
    """div A against a hyperdual derivative of the A field itself."""
    for cmap in (OSC_MAP, COU_MAP):
        xs = dual.variables(*(np.array([r / math.sqrt(3.0)]),) * 3)
        a_vec = cmap.time_coupling(xs, dual.norm3(*xs))
        div = sum(a_vec[i].g[i, 0] for i in range(3))
        assert div == pytest.approx(cmap.time_coupling_divergence(r), rel=1e-11)


def test_sq_sum_matches_components():
    p = SpaceTimePoint(x=(0.3, 0.5, -0.1), t=0.0)
    for cmap in (OSC_MAP, COU_MAP):
        a_vec = cmap.time_coupling(p.x, p.r)
        assert sum(v * v for v in a_vec) == pytest.approx(
            cmap.time_coupling_sq_sum(p.r), rel=1e-13
        )


def test_zform_has_no_potential_term():
    """The transformed operator has no term in the field itself: on the
    constant field 1 it is exactly 0 at every point, for the oscillator,
    Coulomb and identity maps, in both modes."""
    one = ComplexField(fn=lambda x1, x2, x3, t: 1.0, label="one")
    osc = ho.OscillatorModel(omega=1.0)
    cou = cb.CoulombModel(alpha=0.0072973525693)
    state = cb.make_state(cou, 1, 0)
    for cmap, r_scale in ((ho.oscillator_map(osc, ho.energy(osc, 0)), 1.0),
                          (cb.coulomb_map(cou, state), state.r_scale),
                          (ConformalMap.identity(), 1.0)):
        points = Grid(r_min=0.1 * r_scale, r_max=20.0 * r_scale, shells=6).points()
        for mode in (MODE_EXACT, MODE_STENCIL):
            value, _ = dzstar_dz(cmap, _diff(one, points, DiffConfig(mode=mode, length_scale=r_scale)))
            assert (value == 0.0).all(), (cmap, mode)


def _phase_field(cmap):
    """exp(-i E s(x, t) / hbar), annihilated by every d_z_i."""
    hbar = cmap.units.hbar

    def fn(x1, x2, x3, t):
        r = dual.norm3(x1, x2, x3)
        s = t + 1j * cmap.tau(r)
        return dual.exp(-1j * cmap.E * s / hbar)

    return ComplexField(fn=fn, label="phase", energy_hint=cmap.E)


def test_dz_annihilates_pure_phase(exact_cfg):
    fld = _phase_field(OSC_MAP)
    d = _diff(fld, [SpaceTimePoint(x=(0.4, 0.6, -0.2), t=0.3)], exact_cfg)
    assert max(abs(v[0]) for v, _ in d_z(OSC_MAP, d)) < 1e-13
    # while d_zstar does not annihilate it
    assert max(abs(v[0]) for v, _ in d_zstar(OSC_MAP, d)) > 1e-3


def test_composition_order(exact_cfg):
    """dzstar_dz - dz_dzstar = 2i (div A) dt, exact by construction."""
    fld = _phase_field(OSC_MAP)
    p = SpaceTimePoint(x=(0.5, 0.1, 0.3), t=0.0)
    d = _diff(fld, [p], exact_cfg)
    fwd, _ = dzstar_dz(OSC_MAP, d)
    rev, _ = dz_dzstar(OSC_MAP, d)
    dt = -1j * OSC_MAP.E * complex(fld.at(p))  # exp field: dt = -iE psi
    want = 2j * OSC_MAP.time_coupling_divergence(p.r) * dt
    assert fwd[0] - rev[0] == pytest.approx(want, rel=1e-12)


def test_dzstar_dz_matches_brute_force(exact_cfg):
    """The analytic expansion against explicit nested first-order ops.

    Nested stencils are inaccurate, so nest analytically instead: the
    inner field applies d_z_i to exact-mode derivatives at whatever points
    the outer stencil samples, then d_zstar_i of each component is summed.
    """
    cmap = OSC_MAP
    fld = _phase_field(cmap)
    p = SpaceTimePoint(x=(0.7, -0.4, 0.5), t=0.2)

    total = 0.0
    for i in range(3):
        def dz_i_field(x1, x2, x3, t, i=i):
            pts = [SpaceTimePoint(x=(a, b, c), t=s) for a, b, c, s in zip(x1, x2, x3, t)]
            return d_z(cmap, _diff(fld, pts, exact_cfg), axis=i)[0]

        inner = ComplexField(fn=dz_i_field)
        value, _ = d_zstar(cmap, _diff(inner, [p], DiffConfig(mode=MODE_STENCIL, length_scale=2.0)), axis=i)
        total += value[0]

    direct, _ = dzstar_dz(cmap, _diff(fld, [p], exact_cfg))
    assert total == pytest.approx(direct[0], rel=1e-8)


def test_independence_check_passes(exact_cfg):
    points = [
        SpaceTimePoint(x=(0.5, 0.2, -0.3), t=0.0),
        SpaceTimePoint(x=(1.0, -0.8, 0.4), t=0.5),
    ]
    rep = evaluate("map-independence", exact_cfg.mode, independence_check(OSC_MAP, points, 1.0, 1e-10, ""))
    assert rep.passed
    assert [c.name for c in rep.cases] == ["ds/dz", "dz/ds"]
    # s(x, t) of a detuned map is not annihilated by d_z
    detuned = ConformalMap(a=0.0, b=1.1, lam=2.0, E=2.0, units=U)
    sample = Sample(time_field(OSC_MAP), points, (Read("detuned", partial(ds_dz, detuned), 1e-10),))
    (case,) = evaluate("detuned", exact_cfg.mode, [sample]).cases
    assert not case.passed


def test_evaluate_reports_regular_cases_before_probes():
    """Regular cases first, then probes, each in order of first appearance,
    whatever order the declaration gives them in."""
    phase = ComplexField(fn=lambda x1, x2, x3, t: dual.exp(-2j * t))
    points = [SpaceTimePoint(x=(0.5, 0.2, -0.3), t=0.1)]

    def read(name):
        return Read(name, partial(ds_dz, OSC_MAP), 1e-10)

    declaration = [
        Sample(phase, points, (read("probe:first"), read("a"))),
        CaseResult("probe:direct", 1.0, 0.0, 1e-10),
        CaseResult("b", 0.0, 0.0, 1e-10),
        Sample(phase, points, (read("c"), read("probe:first"), read("a"))),
    ]
    rep = evaluate("order", MODE_EXACT, declaration)
    assert [c.name for c in rep.cases] == ["a", "b", "c", "probe:first", "probe:direct"]


def _holomorphy(sample, cfg):
    return evaluate("holomorphy", cfg.mode, (s for s in [sample]))


def test_holomorphy_residual(exact_cfg):
    rep = _holomorphy(holomorphy_residual(
        lambda t, tau: dual.exp(-1j * (t + 1j * tau)),
        (-1.0, 1.0), (0.1, 2.0), 1e-10, "phase",
    ), exact_cfg)
    assert rep.passed
    rep_bad = _holomorphy(holomorphy_residual(
        lambda t, tau: t * t, (-1.0, 1.0), (0.1, 2.0), 1e-10, "probe:tsq",
    ), exact_cfg)
    (case,) = rep_bad.cases
    assert case.max_residual > 1e-10
    assert case.behaved  # probe failing its tolerance counts as behaved
    assert not rep_bad.passed  # but a report with no regular case never passes
