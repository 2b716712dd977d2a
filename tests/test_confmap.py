import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgconformal import dual
from kgconformal.confmap import (
    ConformalMap,
    ZFORM_TERMS,
    case_result,
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
    inverse_conjugate,
    time_field,
)
from kgconformal.core import ComplexField, ConfigError, DomainError, SpaceTimePoint, natural_units
from kgconformal.diffengine import DiffConfig, MODE_EXACT, _diff

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


def test_inverse_conjugate_roundtrip():
    p = SpaceTimePoint(x=(0.4, 0.2, 1.1), t=0.7)
    q = forward(COU_MAP, p)
    q_star = type(q)(z=q.z, s=q.s.conjugate())
    back = inverse_conjugate(COU_MAP, q_star)
    assert back.t == pytest.approx(0.7, abs=1e-14)


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
    # structural invariant: the transformed operator is potential-free
    assert ZFORM_TERMS == ("laplacian", "time-coupling-divergence", "time-coupling-squared")
    assert not any("potential" in term for term in ZFORM_TERMS)


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
        value, _ = d_zstar(cmap, _diff(inner, [p], DiffConfig(mode="stencil", base_step=1e-2)), axis=i)
        total += value[0]

    direct, _ = dzstar_dz(cmap, _diff(fld, [p], exact_cfg))
    assert total == pytest.approx(direct[0], rel=1e-8)


def test_independence_check_passes(exact_cfg):
    points = [
        SpaceTimePoint(x=(0.5, 0.2, -0.3), t=0.0),
        SpaceTimePoint(x=(1.0, -0.8, 0.4), t=0.5),
    ]
    rep = evaluate("map-independence", exact_cfg.mode, independence_check(OSC_MAP, exact_cfg, points, 1e-10))
    assert rep.passed
    assert [c.name for c in rep.cases] == ["ds/dz", "dz/ds"]
    # s(x, t) of a detuned map is not annihilated by d_z
    detuned = ConformalMap(a=0.0, b=1.1, lam=2.0, E=2.0, units=U)
    d = _diff(time_field(OSC_MAP), points, exact_cfg)
    assert not case_result("detuned", ds_dz(detuned, d), 1e-10).passed


def _holomorphy(sample, cfg):
    return evaluate("holomorphy", cfg.mode, (s for s in [sample]))


def test_holomorphy_residual(exact_cfg):
    rep = _holomorphy(holomorphy_residual(
        lambda t, tau: dual.exp(-1j * (t + 1j * tau)),
        (-1.0, 1.0), (0.1, 2.0), exact_cfg, 1e-10, name="phase",
    ), exact_cfg)
    assert rep.passed
    rep_bad = _holomorphy(holomorphy_residual(
        lambda t, tau: t * t, (-1.0, 1.0), (0.1, 2.0), exact_cfg, 1e-10, name="probe:tsq",
    ), exact_cfg)
    (case,) = rep_bad.cases
    assert case.max_residual > 1e-10
    assert case.behaved  # probe failing its tolerance counts as behaved
    assert not rep_bad.passed  # but a report with no regular case never passes
