"""Verification suites: grids, random test fields, residual aggregation.

Every suite contains at least one deliberate fail-probe (case name
prefixed ``probe:``) that must violate its tolerance; a suite whose
probes pass is reported as failed, so a silently broken differentiation
engine cannot pass by returning zeros.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import coulomb as cb
from . import oscillator as ho
from . import dual
from .confmap import (
    ConformalMap,
    d2z_identity_residual,
    dz_dzstar,
    dzstar_dz,
    d_z,
    forward,
    holomorphy_residual,
    independence_check,
    qprop_identity_residual,
)
from .core import ComplexField, ConfigError, PointSet, SpaceTimePoint, UnitSystem, natural_units, residual_scale
from .diffengine import DiffConfig, MODE_EXACT, _diff
from .report import CaseResult, ResidualReport
from .specfun import HYDRINO, SOMMERFELD

#: fixed, deterministic angular sample set (unit vectors, no axis bias)
DIRECTIONS = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (0.5773502691896258, 0.5773502691896258, 0.5773502691896258),
    (0.3333333333333333, -0.6666666666666666, 0.6666666666666666),
    (-0.6666666666666666, 0.3333333333333333, 0.6666666666666666),
)

DEFAULT_TIMES = (0.0, 0.31)

TOL_EXACT = 1e-10
TOL_STENCIL = 1e-8

SUITES = (
    "oscillator-x",
    "oscillator-z",
    "ladder",
    "coulomb-x",
    "coulomb-z",
    "map-independence",
    "holomorphy",
    "operator-identities",
    "reductions",
)


@dataclass(frozen=True)
class Grid:
    """Log-spaced radial shells x fixed angular directions x time samples."""

    r_min: float
    r_max: float
    shells: int = 12
    directions: tuple = DIRECTIONS
    times: tuple = DEFAULT_TIMES

    def __post_init__(self):
        if self.r_min <= 0 or self.r_max <= self.r_min:
            raise ConfigError("grid needs 0 < r_min < r_max")
        if self.shells < 2:
            raise ConfigError("grid needs at least 2 shells")

    def radii(self):
        return np.geomspace(self.r_min, self.r_max, self.shells)

    def points(self) -> PointSet:
        return PointSet(
            SpaceTimePoint(x=(r * d[0], r * d[1], r * d[2]), t=t)
            for r in self.radii()
            for d in self.directions
            for t in self.times
        )


def default_tolerance(cfg: DiffConfig) -> float:
    return TOL_EXACT if cfg.mode == MODE_EXACT else TOL_STENCIL


def scaled_cfg(cfg: DiffConfig, length_scale: float) -> DiffConfig:
    """Scale the spatial stencil steps to the problem's natural length."""
    if cfg.mode == MODE_EXACT or length_scale == 1.0:
        return cfg
    h = cfg.base_step * length_scale
    return replace(cfg, step_overrides={0: h, 1: h, 2: h})


@dataclass(frozen=True)
class TestFieldSpec:
    """Seeded gaussian-bump x polynomial x phase test field family.

    The generated field is g(x) exp(-i E t / hbar) with g a low-order
    polynomial times a gaussian bump that decays below 1e-6 of its peak
    at the grid boundary; E is stored as the field's energy hint.
    """

    __test__ = False  # keep pytest from collecting this as a test class

    seed: int
    r_max: float = 3.0
    energy_range: tuple = (0.8, 2.0)


def generate_test_field(spec: TestFieldSpec) -> ComplexField:
    rng = np.random.default_rng(spec.seed)
    center = rng.uniform(-spec.r_max / 4.0, spec.r_max / 4.0, size=3)
    margin = spec.r_max - float(np.linalg.norm(center))
    sigma = margin / 6.0  # exp(-18) < 1e-7 at the boundary
    lin = rng.uniform(-1.0, 1.0, size=3)
    quad = rng.uniform(-0.5, 0.5, size=3)
    c0 = rng.uniform(0.5, 1.5)
    e_val = float(rng.uniform(*spec.energy_range))
    cx, cy, cz = (float(v) for v in center)
    l1, l2, l3 = (float(v) for v in lin)
    q1, q2, q3 = (float(v) for v in quad)
    c0 = float(c0)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)

    def fn(x1, x2, x3, t):
        d1, d2, d3 = x1 - cx, x2 - cy, x3 - cz
        bump = dual.exp(-(d1 * d1 + d2 * d2 + d3 * d3) * inv2s2)
        poly = c0 + l1 * x1 + l2 * x2 + l3 * x3 + q1 * x1 * x1 + q2 * x2 * x2 + q3 * x3 * x3
        return poly * bump * dual.exp(-1j * e_val * t)

    return ComplexField(fn=fn, label=f"testfield-{spec.seed}", energy_hint=e_val)


# ---------------------------------------------------------------------------
# suites


def run_suite(name: str, params: dict = None, cfg: DiffConfig = None) -> ResidualReport:
    """Run a named verification suite; deterministic given (params, seed)."""
    cfg = cfg or DiffConfig()
    if name not in SUITES:
        raise ConfigError(f"unknown suite: {name!r}")
    params = _checked(dict(params or {}))
    runner = {
        "oscillator-x": _suite_oscillator_x,
        "oscillator-z": _suite_oscillator_z,
        "ladder": _suite_ladder,
        "coulomb-x": _suite_coulomb_x,
        "coulomb-z": _suite_coulomb_z,
        "map-independence": _suite_map_independence,
        "holomorphy": _suite_holomorphy,
        "operator-identities": _suite_operator_identities,
        "reductions": _suite_reductions,
    }[name]
    t0 = time.perf_counter()
    report = runner(params, cfg)
    wall = (time.perf_counter() - t0) * 1000.0
    return report.with_wall_ms(wall)


def _int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _count(lo):
    return lambda v: _int(v) and v >= lo


def _positive(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) and v > 0


def _states(v) -> bool:
    return isinstance(v, (list, tuple)) and len(v) > 0 and all(
        isinstance(s, (list, tuple)) and len(s) in (2, 3) and all(map(_int, s)) for s in v
    )


#: every parameter a suite reads, with the values it accepts
_PARAMS = {
    "nmax": _count(0),
    "shells": _count(2),
    "seed": _count(0),
    "n_fields": _count(1),
    "identity_fields": _count(1),
    "omega": _positive,
    "alpha": _positive,
    "energy": _positive,
    "tolerance": _positive,
    "tolerance_number": _positive,
    "states": _states,
    "branch": lambda v: v in (SOMMERFELD, HYDRINO),
    "grid": lambda v: isinstance(v, Grid),
    "units": lambda v: isinstance(v, UnitSystem),
}


def _checked(params: dict) -> dict:
    """Reject unknown parameters and out-of-range values with ConfigError."""
    for key, value in params.items():
        if key not in _PARAMS:
            raise ConfigError(f"unknown suite parameter: {key!r}")
        if not _PARAMS[key](value):
            raise ConfigError(f"bad value for suite parameter {key!r}: {value!r}")
    return params


def _osc_model(params) -> ho.OscillatorModel:
    return ho.OscillatorModel(omega=params.get("omega", 1.0), units=params.get("units") or natural_units())


def _osc_grid(params) -> Grid:
    return params.get("grid") or Grid(r_min=0.1, r_max=4.0, shells=params.get("shells", 10))


def _coulomb_model(params) -> cb.CoulombModel:
    return cb.CoulombModel(
        alpha=params.get("alpha", 0.0072973525693),
        units=params.get("units") or natural_units(),
    )


def _coulomb_states(model, params):
    pairs = params.get("states", ((0, 0), (1, 0), (0, 1)))
    branch = params.get("branch", SOMMERFELD)
    out = []
    for pair in pairs:
        n, l = pair[0], pair[1]
        k = pair[2] if len(pair) > 2 else 0
        out.append(cb.make_state(model, n, l, k, branch))
    return out


def _coulomb_grid_points(state, params):
    shells = params.get("shells", 8)
    grid = Grid(r_min=0.1 * state.r_scale, r_max=20.0 * state.r_scale, shells=shells)
    return grid.points()


def _suite_oscillator_x(params, cfg):
    model = _osc_model(params)
    tol = params.get("tolerance", default_tolerance(cfg))
    points = _osc_grid(params).points()
    cases = []
    for n in range(params.get("nmax", 4) + 1):
        for state in ho.states_with_n(model, n):
            cases.append(ho.kg_residual_x(model, state, points, cfg, tol))
    ground = ho.make_state(model, 0, 0, 0)
    cases.append(
        ho.kg_residual_x(
            model, ground, points, cfg, tol,
            name="probe:perturbed-energy",
            energy_override=ground.energy + 0.1,
        )
    )
    return ResidualReport("oscillator-x", cfg.mode, tuple(cases))


def _suite_oscillator_z(params, cfg):
    model = _osc_model(params)
    tol = params.get("tolerance", default_tolerance(cfg))
    points = _osc_grid(params).points()
    report = ResidualReport("oscillator-z", cfg.mode)
    for n in range(params.get("nmax", 4) + 1):
        for state in ho.states_with_n(model, n):
            report = report.merge(ho.kg_residual_z(model, state, points, cfg, tol))
    ground = ho.make_state(model, 0, 0, 0)
    probe = ho.kg_residual_z(
        model, ground, points, cfg, tol,
        name="probe:perturbed-energy",
        energy_override=ground.energy + 0.1,
    )
    # only the equation case of the probe is a mandatory failure; drop the
    # energy-operator sub-case, which is insensitive to the eigenvalue shift
    probe_cases = tuple(c for c in probe.cases if not c.name.endswith("energy-op"))
    return report.merge(ResidualReport("oscillator-z", cfg.mode, probe_cases))


def _suite_ladder(params, cfg):
    model = _osc_model(params)
    tol = params.get("tolerance", default_tolerance(cfg))
    tol_number = params.get("tolerance_number", max(1e-8, tol))
    points = _osc_grid(params).points()
    cases = []

    ground = ho.make_state(model, 0, 0, 0)
    d0 = _diff(ho.eigenfunction_x(model, ground), points, cfg)
    scale0 = residual_scale(dual.modulus(d0.value).max())
    worst = max((dual.modulus(ho.ladder_apply(model, ("lower", i), d0)) / scale0).max() for i in range(3))
    cases.append(CaseResult("annihilate-ground", float(worst), 0.0, tol))

    for n in range(params.get("nmax", 4) + 1):
        worst = 0.0
        err = 0.0
        for state in ho.states_with_n(model, n):
            d = _diff(ho.eigenfunction_x(model, state), points, cfg)
            scale = residual_scale(dual.modulus(d.value).max() * max(n, 1))
            val, e = ho.number_operator_apply(model, d)
            worst = max(worst, (dual.modulus(val - n * d.value) / scale).max())
            err = max(err, (e / scale).max())
        cases.append(CaseResult(f"number-operator-n{n}", float(worst), float(err), tol_number))

    # a_1 applied to (1,0,0) is proportional to the ground state; divide out
    # the E_1 - E_0 phase difference before comparing pointwise ratios
    state1 = ho.make_state(model, 1, 0, 0)
    d1 = _diff(ho.eigenfunction_x(model, state1), points, cfg)
    d_e = state1.energy - ground.energy
    hbar = model.units.hbar
    lowered = ho.ladder_apply(model, ("lower", 0), d1)
    ratios = [
        val / denom * complex(math.cos(d_e * p.t / hbar), math.sin(d_e * p.t / hbar))
        for val, denom, p in zip(lowered.tolist(), d0.value.tolist(), points)
    ]
    mean = sum(ratios) / len(ratios)
    spread = max(abs(q - mean) for q in ratios) / abs(mean)
    cases.append(CaseResult("lowering-proportionality", spread, 0.0, tol_number))

    # probe: the number operator must NOT return n+1
    scale = residual_scale(dual.modulus(d1.value).max())
    val, _ = ho.number_operator_apply(model, d1)
    worst = (dual.modulus(val - 2 * d1.value) / scale).max()
    cases.append(CaseResult("probe:number-operator-off-by-one", float(worst), 0.0, tol_number))
    return ResidualReport("ladder", cfg.mode, tuple(cases))


def _suite_coulomb_x(params, cfg):
    model = _coulomb_model(params)
    tol = params.get("tolerance", default_tolerance(cfg))
    cases = []
    states = _coulomb_states(model, params)
    for state in states:
        points = _coulomb_grid_points(state, params)
        ccfg = scaled_cfg(cfg, state.r_scale)
        cases.append(cb.kg_residual_x(model, state, points, ccfg, tol))
    st = states[0]
    cases.append(
        cb.kg_residual_x(
            model, st, _coulomb_grid_points(st, params), scaled_cfg(cfg, st.r_scale), tol,
            name="probe:perturbed-energy",
            energy_override=st.energy * (1.0 + 1e-4),
        )
    )
    return ResidualReport("coulomb-x", cfg.mode, tuple(cases))


def _suite_coulomb_z(params, cfg):
    model = _coulomb_model(params)
    tol = params.get("tolerance", default_tolerance(cfg))
    branch = params.get("branch", SOMMERFELD)
    cases = []
    states = _coulomb_states(model, params)
    for state in states:
        points = _coulomb_grid_points(state, params)
        ccfg = scaled_cfg(cfg, state.r_scale)
        cases.append(cb.kg_residual_z(model, state, points, ccfg, tol))
    ground = cb.make_state(model, 0, 0, 0, branch)
    gpoints = _coulomb_grid_points(ground, params)
    gcfg = scaled_cfg(cfg, ground.r_scale)
    cases.append(cb.ground_state_flatness(model, gpoints, gcfg, tol, branch))

    # the second-order operator identity, on seeded smooth test fields
    cmap = cb.coulomb_map(model, ground)
    n_fields = params.get("identity_fields", 5)
    worst = 0.0
    err = 0.0
    for seed in range(n_fields):
        spec = TestFieldSpec(seed=params.get("seed", 0) * 1000 + seed, r_max=3.0 * ground.r_scale)
        fld = _with_energy(generate_test_field(spec), ground.energy)
        res, rhs, e = d2z_identity_residual(cmap, _diff(fld, _field_sample_points(spec), gcfg))
        scale = np.maximum(rhs, 1e-30)
        worst = max(worst, (res / scale).max())
        err = max(err, (e / scale).max())
    cases.append(CaseResult("d2z-operator-identity", float(worst), float(err), tol))

    st = states[0]
    cases.append(
        cb.kg_residual_z(
            model, st, _coulomb_grid_points(st, params), scaled_cfg(cfg, st.r_scale), tol,
            name="probe:perturbed-energy",
            energy_override=st.energy * (1.0 + 1e-4),
        )
    )
    return ResidualReport("coulomb-z", cfg.mode, tuple(cases))


def _with_energy(fld: ComplexField, e_val: float) -> ComplexField:
    """Rebind a test field's phase energy so map reductions apply exactly."""
    inner = fld.fn
    old_e = fld.energy_hint

    def fn(x1, x2, x3, t):
        # swap exp(-i old_e t) for exp(-i e_val t)
        return inner(x1, x2, x3, t) * dual.exp(-1j * (e_val - old_e) * t)

    return ComplexField(fn=fn, label=fld.label, energy_hint=e_val)


def _field_sample_points(spec: TestFieldSpec):
    rng = np.random.default_rng(spec.seed + 987654321)
    pts = []
    for _ in range(3):
        x = rng.uniform(-spec.r_max / 3.0, spec.r_max / 3.0, size=3)
        t = float(rng.uniform(-0.5, 0.5))
        pts.append(SpaceTimePoint(x=(float(x[0]), float(x[1]), float(x[2])), t=t))
    return pts


def _suite_map_independence(params, cfg):
    tol = params.get("tolerance", default_tolerance(cfg))
    units = params.get("units") or natural_units()
    osc = _osc_model(params)
    osc_map = ho.oscillator_map(osc, ho.energy(osc, 0))
    osc_points = Grid(r_min=0.2, r_max=3.0, shells=8).points()
    rep = independence_check(osc_map, cfg, osc_points, tol)

    cmodel = _coulomb_model(params)
    cstate = cb.make_state(cmodel, 0, 0, 0)
    cmap = cb.coulomb_map(cmodel, cstate)
    c_points = Grid(r_min=0.2 * cstate.r_scale, r_max=20.0 * cstate.r_scale, shells=8).points()
    rep_c = independence_check(cmap, scaled_cfg(cfg, cstate.r_scale), c_points, tol)
    cases = [
        CaseResult("oscillator-map-" + c.name, c.max_residual, c.error_estimate, c.tolerance)
        for c in rep.cases
    ] + [
        CaseResult("coulomb-map-" + c.name, c.max_residual, c.error_estimate, c.tolerance)
        for c in rep_c.cases
    ]

    ident = ConformalMap.identity(E=1.0, units=units)
    rep_i = independence_check(ident, cfg, osc_points, tol)
    cases += [
        CaseResult("identity-map-" + c.name, c.max_residual, c.error_estimate, c.tolerance)
        for c in rep_i.cases
    ]

    # probe: operating with a detuned map must break ds/dz = 0
    broken = ConformalMap(a=osc_map.a, b=osc_map.b * 1.1, lam=osc_map.lam, E=osc_map.E, units=units)
    s_field = ComplexField(
        fn=lambda x1, x2, x3, t: t + 1j * osc_map.tau(dual.norm3(x1, x2, x3)),
        label="s(x,t)",
    )
    worst = max(dual.modulus(c).max() for c in d_z(broken, _diff(s_field, osc_points, cfg)))
    cases.append(CaseResult("probe:detuned-map", float(worst), 0.0, tol))
    return ResidualReport("map-independence", cfg.mode, tuple(cases))


def _suite_holomorphy(params, cfg):
    tol = params.get("tolerance", default_tolerance(cfg))
    e_val = params.get("energy", 1.0)
    t_win = (-1.0, 1.0)
    tau_win = (0.1, 2.0)

    def phase(t, tau):
        return dual.exp(-1j * e_val * (t + 1j * tau))

    def square(t, tau):
        s = t + 1j * tau
        return s * s

    def not_holo(t, tau):
        return t * t

    rep = holomorphy_residual(phase, t_win, tau_win, cfg, tol, name="phase-exp")
    rep = rep.merge(holomorphy_residual(square, t_win, tau_win, cfg, tol, name="square"))
    rep = rep.merge(
        holomorphy_residual(not_holo, t_win, tau_win, cfg, tol, name="probe:t-squared")
    )
    return rep


def _suite_operator_identities(params, cfg):
    tol = params.get("tolerance", default_tolerance(cfg))
    seed0 = params.get("seed", 0)
    n_fields = params.get("n_fields", 100)
    units = params.get("units") or natural_units()

    osc = _osc_model(params)
    cmodel = _coulomb_model(params)
    cstate = cb.make_state(cmodel, 0, 0, 0)
    ccfg = scaled_cfg(cfg, cstate.r_scale)

    worst_q = err_q = 0.0
    worst_d = err_d = 0.0
    probe = None
    for idx in range(n_fields):
        spec_o = TestFieldSpec(seed=seed0 * 10000 + idx, r_max=3.0)
        fld_o = generate_test_field(spec_o)
        omap = ho.oscillator_map(osc, fld_o.energy_hint)
        d_o = _diff(fld_o, _field_sample_points(spec_o), cfg)
        res, rhs, e = qprop_identity_residual(omap, d_o)
        scale = np.maximum(rhs, 1e-30)
        worst_q = max(worst_q, (res / scale).max())
        err_q = max(err_q, (e / scale).max())
        spec_c = TestFieldSpec(seed=seed0 * 10000 + 5000 + idx, r_max=3.0 * cstate.r_scale)
        fld_c = _with_energy(generate_test_field(spec_c), cstate.energy)
        cmap = cb.coulomb_map(cmodel, cstate)
        res, rhs, e = d2z_identity_residual(cmap, _diff(fld_c, _field_sample_points(spec_c), ccfg))
        scale = np.maximum(rhs, 1e-30)
        worst_d = max(worst_d, (res / scale).max())
        err_d = max(err_d, (e / scale).max())
        if probe is None:
            probe = (omap, d_o)

    cases = [
        CaseResult("qprop-oscillator", float(worst_q), float(err_q), tol),
        CaseResult("d2z-coulomb", float(worst_d), float(err_d), tol),
    ]

    # probe: reversing the composition order must break the identity
    res, rhs, _ = qprop_identity_residual(*probe, operator=dz_dzstar)
    worst = (res / np.maximum(rhs, 1e-30)).max()
    cases.append(CaseResult("probe:reversed-composition", float(worst), 0.0, tol))
    return ResidualReport("operator-identities", cfg.mode, tuple(cases))


def _plane_wave(kvec, e_val) -> ComplexField:
    k1, k2, k3 = kvec

    def fn(x1, x2, x3, t):
        return dual.exp(1j * (k1 * x1 + k2 * x2 + k3 * x3 - e_val * t))

    return ComplexField(fn=fn, label=f"plane-wave{kvec}", energy_hint=e_val)


def _suite_reductions(params, cfg):
    tol = params.get("tolerance", default_tolerance(cfg))
    units = params.get("units") or natural_units()
    hbar, c, m0 = units.hbar, units.c, units.m0
    cases = []

    # the Omega -> 0 map is the identity: forward(p) == p exactly
    osc0 = ho.OscillatorModel(omega=0.0, units=units)
    imap = ho.oscillator_map(osc0, E=units.rest_energy if m0 > 0 else 1.0)
    worst = 0.0
    for p in Grid(r_min=0.1, r_max=3.0, shells=6).points():
        q = forward(imap, p)
        worst = max(
            worst,
            abs(q.s - p.t),
            max(abs(zi - xi) for zi, xi in zip(q.z, p.x)),
        )
    cases.append(CaseResult("identity-map-pointwise", worst, 0.0, tol))

    # free plane waves satisfy the z-form equation under the identity map
    hc2 = (hbar * c) ** 2
    points = Grid(r_min=0.1, r_max=3.0, shells=6).points()

    def zform_residual(kvec, e_val):
        d = _diff(_plane_wave(kvec, e_val), points, cfg)
        cmap = ConformalMap.identity(E=abs(e_val), units=units)
        psi = d.value
        ddz, e = dzstar_dz(cmap, d)
        res = -hc2 * ddz + units.rest_energy**2 * psi - e_val**2 * psi
        return float((dual.modulus(res) / (e_val**2)).max()), float((hc2 * e / e_val**2).max())

    for i, kvec in enumerate(((0.5, 0.0, 0.0), (0.3, -0.4, 0.2), (0.0, 1.0, 0.5))):
        k2 = sum(v * v for v in kvec)
        e_val = math.sqrt(hc2 * k2 + units.rest_energy**2)
        worst, err = zform_residual(kvec, e_val)
        cases.append(CaseResult(f"free-plane-wave-{i}", worst, err, tol))

    # probe: a plane wave off the mass shell must fail
    kvec = (0.5, 0.0, 0.0)
    e_bad = math.sqrt(hc2 * 0.25 + units.rest_energy**2) + 0.2
    worst, err = zform_residual(kvec, e_bad)
    cases.append(CaseResult("probe:off-shell-plane-wave", worst, err, tol))
    return ResidualReport("reductions", cfg.mode, tuple(cases))
