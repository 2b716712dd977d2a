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
from kgconformal.core import ComplexField, ConfigError, DomainError, PointSet, UnitSystem, natural_units
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL, _diff
from kgconformal.harness import Grid
from kgconformal.report import CaseResult

import scalar_confmap as ref
from conftest import grad, point_rows

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
    pts = PointSet([0.3, 1.0], [-0.1, -0.0], [0.7, 0.0], [1.5, -0.0])
    s = forward(ident, pts)
    assert s.tolist() == [complex(1.5), complex(-0.0)]
    assert math.copysign(1.0, s[1].real) == -1.0  # t = -0.0 keeps its sign
    r = pts.radii[0]
    assert ident.time_coupling((0.3, -0.1, 0.7), r) == (0.0, 0.0, 0.0)
    assert ident.second_order_couplings(r)[0] == 0.0


def test_forward_oracle_oscillator_shape():
    # a = 0, lam = 2: s = t - i (hbar/E) (r/b)^2
    s = forward(OSC_MAP, PointSet([1.0], [0.0], [0.0], [0.5]))
    assert s[0] == pytest.approx(0.5 - 0.5j, abs=1e-15)


def test_forward_oracle_log_term():
    # a ln r contributes at lam = 1
    s = forward(COU_MAP, PointSet([0.0], [2.0], [0.0], [0.0]))
    want = -1j * (0.001 * math.log(2.0) + 2.0 / 137.0)
    assert s[0] == pytest.approx(want, abs=1e-15)


@given(radii, radii, radii, times)
@settings(max_examples=60)
def test_roundtrip_inverse(x1, x2, x3, t):
    pts = PointSet([x1], [x2], [x3], [t])
    for cmap in (OSC_MAP, COU_MAP, ConformalMap.identity()):
        back = inverse(cmap, pts, forward(cmap, pts))
        assert back[0] == pytest.approx(t, abs=1e-12)


def test_forward_at_origin():
    p0 = PointSet([1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DomainError, match=r"^forward map undefined at r = 0 when a != 0 \(ln r\)$"):
        forward(COU_MAP, p0)  # ln r blows up when a != 0
    with pytest.raises(DomainError, match=r"^inverse map undefined at r_z = 0 when a != 0$"):
        inverse(COU_MAP, p0, np.zeros(2, dtype=complex))
    assert forward(OSC_MAP, p0)[1] == 0.0  # a = 0 is fine: s = t


def test_tau_is_imaginary_part_of_s():
    pts = PointSet([0.6], [-0.3], [0.2], [0.9])
    assert forward(COU_MAP, pts)[0].imag == pytest.approx(COU_MAP.tau(pts.radii[0]), abs=1e-16)


#: maps of every shape the map command takes: lambda 1, 1.5, 2 and 3, b = inf, a of either sign
SHAPED_MAPS = [
    OSC_MAP, COU_MAP, ConformalMap.identity(E=1.3),
    ConformalMap(a=0.2, b=1.5, lam=3.0, E=2.0, units=U),
    ConformalMap(a=0.0, b=2.0, lam=1.5, E=0.7, units=U),
    ConformalMap(a=-0.3, b=0.8, lam=2.0, E=1.1, units=UnitSystem(hbar=0.7)),
    ConformalMap(a=0.4, b=math.inf, lam=2.0, E=1.3, units=U),
]


@pytest.mark.parametrize("cmap", SHAPED_MAPS, ids=range(len(SHAPED_MAPS)))
def test_forward_and_inverse_equal_the_scalar_map_at_each_point(cmap):
    """s and the round trip's t on a grid equal the per-point scalar map's,
    signed zeros included, and at lambda = 2 on points where (r/b)^2 as a
    product rounds otherwise than libm's pow."""
    rows = point_rows(Grid(r_min=0.01, r_max=50.0, shells=12, times=(-0.0, 0.0, -2.5, 3.75)).points())
    rows += [(-0.0, 0.0, 2.0, -0.0), (1.0, -0.0, -0.0, 0.0)]
    if cmap.lam == 2.0 and not math.isinf(cmap.b):
        r = np.random.default_rng(3).uniform(0.1, 20.0, 20000)
        w = r / cmap.b
        apart = r[w * w != np.array([x**2 for x in w.tolist()])][:3].tolist()
        assert len(apart) == 3
        rows += [(x, 0.0, 0.0, 0.5) for x in apart]
    pts = PointSet(*zip(*rows))
    s = forward(cmap, pts)
    want = [ref.forward(cmap, row) for row in rows]
    assert list(map(repr, s.tolist())) == list(map(repr, want))
    want = [ref.inverse(cmap, row, w) for row, w in zip(rows, want)]
    assert list(map(repr, inverse(cmap, pts, s).tolist())) == list(map(repr, want))


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
        dtau_dr = grad(cmap.tau(r_jet))[0, 0]
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
        div = sum(grad(a_vec[i])[i, 0] for i in range(3))
        assert div == pytest.approx(cmap.second_order_couplings(r)[0], rel=1e-11)


def test_sq_sum_matches_components():
    x = (0.3, 0.5, -0.1)
    r = PointSet(*([v] for v in x), [0.0]).radii[0]
    for cmap in (OSC_MAP, COU_MAP):
        a_vec = cmap.time_coupling(x, r)
        assert sum(v * v for v in a_vec) == pytest.approx(
            cmap.second_order_couplings(r)[1], rel=1e-13
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
            value, _ = dzstar_dz(cmap, _diff(one, points, DiffConfig(mode=mode), length_scale=r_scale))
            assert (value == 0.0).all(), (cmap, mode)


def _phase_field(cmap):
    """exp(-i E s(x, t) / hbar), annihilated by every d_z_i."""
    hbar = cmap.units.hbar

    def fn(x1, x2, x3, t):
        r = dual.norm3(x1, x2, x3)
        s = t + 1j * cmap.tau(r)
        return dual.exp(-1j * cmap.E * s / hbar)

    return ComplexField(fn=fn, label="phase")


def test_dz_annihilates_pure_phase(exact_cfg):
    fld = _phase_field(OSC_MAP)
    d = _diff(fld, PointSet([0.4], [0.6], [-0.2], [0.3]), exact_cfg)
    assert max(abs(v[0]) for v, _ in d_z(OSC_MAP, d)) < 1e-13
    # while d_zstar does not annihilate it
    assert max(abs(v[0]) for v, _ in d_zstar(OSC_MAP, d)) > 1e-3


def test_composition_order(exact_cfg):
    """dzstar_dz - dz_dzstar = 2i (div A) dt, exact by construction."""
    fld = _phase_field(OSC_MAP)
    p = (0.5, 0.1, 0.3, 0.0)
    d = _diff(fld, PointSet(*([v] for v in p)), exact_cfg)
    fwd, _ = dzstar_dz(OSC_MAP, d)
    rev, _ = dz_dzstar(OSC_MAP, d)
    dt = -1j * OSC_MAP.E * complex(fld.at(p))  # exp field: dt = -iE psi
    want = 2j * OSC_MAP.second_order_couplings(d.points.radii[0])[0] * dt
    assert fwd[0] - rev[0] == pytest.approx(want, rel=1e-12)


def test_dzstar_dz_takes_one_power_for_both_coefficients(monkeypatch, exact_cfg):
    """dzstar_dz takes (r/b)^lambda, a per-element CPython pow, once per call
    for both div A and sum A_i^2, which equal the coefficient methods'."""
    pts = Grid(r_min=0.1, r_max=4.0, shells=3).points()
    d = _diff(_phase_field(OSC_MAP), pts, exact_cfg)
    calls = []
    power = ConformalMap._power
    monkeypatch.setattr(ConformalMap, "_power", lambda self, r: calls.append(r) or power(self, r))
    value, _ = dzstar_dz(OSC_MAP, d)
    assert len(calls) == 1
    div_a, sq = OSC_MAP.second_order_couplings(pts.radii)
    want = d.hess[0] + d.hess[1] + d.hess[2] + dual.mul(1j * div_a, d.grad[3]) + sq * d.hess[3]
    assert np.array_equal(value, want)


def test_dzstar_dz_matches_brute_force(exact_cfg):
    """The analytic expansion against explicit nested first-order ops.

    Nested stencils are inaccurate, so nest analytically instead: the
    inner field applies d_z_i to exact-mode derivatives at whatever points
    the outer stencil samples, then d_zstar_i of each component is summed.
    """
    cmap = OSC_MAP
    fld = _phase_field(cmap)
    p = ([0.7], [-0.4], [0.5], [0.2])

    total = 0.0
    for i in range(3):
        def dz_i_field(x1, x2, x3, t, i=i):
            pts = PointSet(*(x.ravel() for x in (x1, x2, x3, t)))
            return d_z(cmap, _diff(fld, pts, exact_cfg), axis=i)[0].reshape(x1.shape)

        inner = ComplexField(fn=dz_i_field)
        value, _ = d_zstar(cmap, _diff(inner, PointSet(*p), DiffConfig(mode=MODE_STENCIL), length_scale=2.0), axis=i)
        total += value[0]

    direct, _ = dzstar_dz(cmap, _diff(fld, PointSet(*p), exact_cfg))
    assert total == pytest.approx(direct[0], rel=1e-8)


def test_independence_check_passes(exact_cfg):
    points = PointSet([0.5, 1.0], [0.2, -0.8], [-0.3, 0.4], [0.0, 0.5])
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
    points = PointSet([0.5], [0.2], [-0.3], [0.1])

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
