"""Verification suites: grids, random test fields, residual aggregation.

Every suite contains at least one deliberate fail-probe (case name
prefixed ``probe:``) that must violate its tolerance; a suite whose
probes pass is reported as failed, so a silently broken differentiation
engine cannot pass by returning zeros.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import coulomb as cb
from . import oscillator as ho
from . import dual
from .confmap import (
    ConformalMap,
    Read,
    Sample,
    d2z_identity_residual,
    ds_dz,
    dz_dzstar,
    dzstar_dz,
    evaluate,
    forward,
    holomorphy_residual,
    independence_check,
    qprop_identity_residual,
    time_field,
)
from .core import ComplexField, ConfigError, PointSet, SpaceTimePoint, residual_scale
from .diffengine import DiffConfig, MODE_EXACT
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

@dataclass(frozen=True)
class Grid:
    """Log-spaced radial shells x fixed angular directions x time samples."""

    r_min: float
    r_max: float
    shells: int = 12
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
            for d in DIRECTIONS
            for t in self.times
        )


def default_tolerance(cfg: DiffConfig) -> float:
    return TOL_EXACT if cfg.mode == MODE_EXACT else TOL_STENCIL


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


#: range of the phase energy E of a test field
ENERGY_RANGE = (0.8, 2.0)
#: sample points of one test field (see _family_points)
FIELD_POINTS = 3
#: test fields differentiated in one pass, at most.  A pass costs nearly
#: the same for 3 points as for 120, but its jets grow with the point count
#: (about 0.4 MB live at 40 fields); chunks keep memory flat at any number
#: of fields
FAMILY_SIZE = 40


def _uniform(seeds, lo, hi) -> np.ndarray:
    """Generator.uniform(lo[j], hi[j]) for j = 0..k-1 from each seed's
    stream, one row per seed.

    numpy draws a uniform as lo + (hi - lo) u from one standard double u,
    so one ``random(k)`` call per seed gives the same draws bit for bit.
    """
    u = np.array([np.random.default_rng(seed).random(lo.shape[-1]) for seed in seeds])
    return lo + (hi - lo) * u


def _field_bounds(spec: TestFieldSpec):
    """(lo, hi) of the draws of one field: centre, linear and quadratic
    coefficients, constant term and phase energy."""
    q = spec.r_max / 4.0
    e_lo, e_hi = ENERGY_RANGE
    return (-q,) * 3 + (-1.0,) * 3 + (-0.5,) * 3 + (0.5, e_lo), (q,) * 3 + (1.0,) * 3 + (0.5,) * 3 + (1.5, e_hi)


def generate_test_family(specs) -> ComplexField:
    """The test fields of ``specs`` as one field on their sample points.

    Every parameter holds one value per point of ``_family_points(specs)``,
    so one differentiation pass over those points gives each field on its
    own points, rounded as the field alone would round.  A family of one
    keeps its parameters as floats, so it can be evaluated anywhere; its
    energy hint is a float, a larger family's is one energy per point.
    """
    specs = tuple(specs)
    lo, hi = (np.array(rows) for rows in zip(*map(_field_bounds, specs)))
    draws = _uniform([spec.seed for spec in specs], lo, hi)
    center = draws[:, :3]
    # sqrt(c . c) is how np.linalg.norm rounds a 3-vector; a row sum rounds otherwise
    margin = np.array([spec.r_max for spec in specs]) - np.sqrt([c.dot(c) for c in center])
    sigma = margin / 6.0  # exp(-18) < 1e-7 at the boundary
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    params = np.column_stack((draws[:, :10], inv2s2, draws[:, 10]))
    if len(specs) == 1:
        values = params[0].tolist()
        label = f"testfield-{specs[0].seed}"
    else:
        values = np.repeat(params, FIELD_POINTS, axis=0).T
        label = f"testfields-{specs[0].seed}..{specs[-1].seed}"
    cx, cy, cz, l1, l2, l3, q1, q2, q3, c0, inv2s2, e_val = values

    def fn(x1, x2, x3, t):
        d1, d2, d3 = x1 - cx, x2 - cy, x3 - cz
        bump = dual.exp(-(d1 * d1 + d2 * d2 + d3 * d3) * inv2s2)
        poly = c0 + l1 * x1 + l2 * x2 + l3 * x3 + q1 * x1 * x1 + q2 * x2 * x2 + q3 * x3 * x3
        return poly * bump * dual.exp(-1j * e_val * t)

    return ComplexField(fn=fn, label=label, energy_hint=e_val)


def generate_test_field(spec: TestFieldSpec) -> ComplexField:
    """The seeded test field of ``spec``: its family of one."""
    return generate_test_family((spec,))


def _family_points(specs) -> PointSet:
    """FIELD_POINTS sample points per spec, in spec order: x uniform within
    a third of r_max on each axis, t uniform in (-0.5, 0.5)."""
    hi = np.array([((spec.r_max / 3.0,) * 3 + (0.5,)) * FIELD_POINTS for spec in specs])
    draws = _uniform([spec.seed + 987654321 for spec in specs], -hi, hi)
    return PointSet(SpaceTimePoint(x=(x1, x2, x3), t=t) for x1, x2, x3, t in draws.reshape(-1, 4).tolist())


def _field_sample_points(spec: TestFieldSpec) -> PointSet:
    """The sample points of one test field."""
    return _family_points((spec,))


def _with_energy(fld: ComplexField, e_val: float) -> ComplexField:
    """Rebind a test field's phase energy so map reductions apply exactly;
    a family's old energies are per point, the new one is shared."""
    inner = fld.fn
    old_e = fld.energy_hint

    def fn(x1, x2, x3, t):
        # swap exp(-i old_e t) for exp(-i e_val t)
        return inner(x1, x2, x3, t) * dual.exp(-1j * (e_val - old_e) * t)

    return ComplexField(fn=fn, label=fld.label, energy_hint=e_val)


# ---------------------------------------------------------------------------
# suites


def run_suite(name: str, params: dict = None, cfg: DiffConfig = None) -> ResidualReport:
    """Run a named verification suite; deterministic given (params, seed)."""
    cfg = cfg or DiffConfig()
    if name not in SUITES:
        raise ConfigError(f"unknown suite: {name!r}")
    params = _checked(dict(params or {}))
    tol = params.get("tolerance", default_tolerance(cfg))
    t0 = time.perf_counter()
    report = evaluate(name, cfg.mode, _DECLARATIONS[name](params, tol))
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
    "seed": _count(0),
    "n_fields": _count(1),
    "omega": _positive,
    "alpha": _positive,
    "energy": _positive,
    "tolerance": _positive,
    "states": _states,
    "branch": lambda v: v in (SOMMERFELD, HYDRINO),
    "grid": lambda v: isinstance(v, Grid),
}


def _checked(params: dict) -> dict:
    """Reject unknown parameters and out-of-range values with ConfigError."""
    for key, value in params.items():
        if key not in _PARAMS:
            raise ConfigError(f"unknown suite parameter: {key!r}")
        if not _PARAMS[key](value):
            raise ConfigError(f"bad value for suite parameter {key!r}: {value!r}")
    return params


# Each suite is a generator that declares its Samples (a field on a grid,
# and the cases that read it) and its direct CaseResults, checked against
# the suite tolerance ``tol``; run_suite hands it to confmap.evaluate,
# which differentiates each Sample once in the run's mode.


def _osc_model(params) -> ho.OscillatorModel:
    return ho.OscillatorModel(omega=params.get("omega", 1.0))


def _osc_grid(params) -> Grid:
    return params.get("grid") or Grid(r_min=0.1, r_max=4.0, shells=10)


def _coulomb_model(params) -> cb.CoulombModel:
    return cb.CoulombModel(alpha=params.get("alpha", 0.0072973525693))


def _coulomb_states(model, params):
    """The states of the ``states`` parameter, each (n, l) or (n, l, k)."""
    branch = params.get("branch", SOMMERFELD)
    return [cb.make_state(model, *qn, branch=branch) for qn in params.get("states", ((0, 0), (1, 0), (0, 1)))]


def _coulomb_sample(field, state, reads) -> Sample:
    """``field`` on the state's grid, 0.1 to 20 r_nl, with steps on that scale."""
    grid = Grid(r_min=0.1 * state.r_scale, r_max=20.0 * state.r_scale, shells=8)
    return Sample(field, grid.points(), reads, state.r_scale)


def _suite_oscillator_x(params, tol):
    model = _osc_model(params)
    points = _osc_grid(params).points()
    # the probe reads the ground state's sample, the first one declared
    probe = Read("probe:perturbed-energy", partial(ho.kg_residual_x, model, ho.energy(model, 0) + 0.1), tol)
    for n in range(params.get("nmax", 4) + 1):
        for state in ho.states_with_n(model, n):
            reads = (Read(f"osc-x-{state.ls}", partial(ho.kg_residual_x, model, state.energy), tol),)
            yield Sample(ho.eigenfunction_x(model, state), points, reads + ((probe,) if n == 0 else ()))


def _suite_oscillator_z(params, tol):
    model = _osc_model(params)
    points = _osc_grid(params).points()
    # the probe reads the equation only, on the ground state's sample.  Its
    # energy-operator read fails too (0.023 at the default grid), but it
    # would add a case that the reports of earlier versions, and the
    # benchmark's reference, do not have
    probe = Read("probe:perturbed-energy", partial(ho.kg_residual_z, model, ho.energy(model, 0) + 0.1), tol)
    for n in range(params.get("nmax", 4) + 1):
        for state in ho.states_with_n(model, n):
            name = f"osc-z-{state.ls}"
            reads = (
                Read(name, partial(ho.kg_residual_z, model, state.energy), tol),
                Read(name + "-energy-op", partial(ho.energy_operator_residual, model, state.energy), tol),
            )
            yield Sample(ho.eigenfunction_z(model, state), points, reads + ((probe,) if n == 0 else ()))


def _annihilation_residual(model, d):
    """|a_i psi| over the three components, with a_i's estimate, scaled by max|psi|."""
    values, errs = zip(*(ho.ladder_apply(model, ("lower", i), d) for i in range(3)))
    return dual.modulus(np.concatenate(values)), np.concatenate(errs), residual_scale(dual.modulus(d.value).max())


def _number_residual(model, n, eigenvalue, d):
    """|N psi - eigenvalue psi| on a level-n state, scaled by max|psi| max(n, 1)."""
    val, err = ho.number_operator_apply(model, d)
    return dual.modulus(val - eigenvalue * d.value), err, residual_scale(dual.modulus(d.value).max() * max(n, 1))


def _lowering_proportionality(model, ground, state1, d):
    """a_1 applied to (1,0,0) is proportional to the ground state: the spread
    of the pointwise ratios a_1 psi_1 / psi_0 about their mean, relative to
    the mean, with scale 1.  ``d`` holds psi_1; psi_0 is evaluated on its
    points."""
    psi0 = ho.eigenfunction_x(model, ground)(*d.points.coords)
    # divide out the E_1 - E_0 phase difference before comparing ratios
    d_e = state1.energy - ground.energy
    hbar = model.units.hbar
    lowered, lowered_err = ho.ladder_apply(model, ("lower", 0), d)
    ratios = [
        val / denom * complex(math.cos(d_e * p.t / hbar), math.sin(d_e * p.t / hbar))
        for val, denom, p in zip(lowered.tolist(), psi0.tolist(), d.points)
    ]
    mean = sum(ratios) / len(ratios)
    spread = max(abs(q - mean) for q in ratios) / abs(mean)
    # a ratio is off by at most eps = max err / |psi_0|, and so is the mean;
    # to first order the spread then moves by (2 + spread) eps / |mean|
    eps = float((lowered_err / dual.modulus(psi0)).max())
    return spread, (2.0 + spread) * eps / abs(mean), 1.0


def _suite_ladder(params, tol):
    model = _osc_model(params)
    tol_number = max(1e-8, tol)
    points = _osc_grid(params).points()
    for n in range(params.get("nmax", 4) + 1):
        for state in ho.states_with_n(model, n):
            reads = (Read(f"number-operator-n{n}", partial(_number_residual, model, n, n), tol_number),)
            if n == 0:
                reads = (Read("annihilate-ground", partial(_annihilation_residual, model), tol),) + reads
            yield Sample(ho.eigenfunction_x(model, state), points, reads)
    ground, state1 = ho.make_state(model, 0, 0, 0), ho.make_state(model, 1, 0, 0)
    reads = (
        Read("lowering-proportionality", partial(_lowering_proportionality, model, ground, state1), tol_number),
        # probe: the number operator must NOT return n+1
        Read("probe:number-operator-off-by-one", partial(_number_residual, model, 1, 2), tol_number),
    )
    yield Sample(ho.eigenfunction_x(model, state1), points, reads)


def _suite_coulomb_x(params, tol):
    model = _coulomb_model(params)
    states = _coulomb_states(model, params)
    # the probe reads the first state's sample
    st = states[0]
    probe = Read("probe:perturbed-energy", partial(cb.kg_residual_x, model, st.energy * (1.0 + 1e-4)), tol)
    for state in states:
        name = f"coulomb-x-{state.quantum_numbers}-{state.branch}"
        reads = (Read(name, partial(cb.kg_residual_x, model, state.energy), tol),)
        yield _coulomb_sample(cb.eigenfunction_x(model, state), state, reads + ((probe,) if state is st else ()))


def _suite_coulomb_z(params, tol):
    model = _coulomb_model(params)
    branch = params.get("branch", SOMMERFELD)
    states = _coulomb_states(model, params)
    st = states[0]
    probe = Read("probe:perturbed-energy", partial(cb.kg_residual_z, model, st, st.energy * (1.0 + 1e-4)), tol)
    for state in states:
        name = f"coulomb-z-{state.quantum_numbers}-{state.branch}"
        reads = (Read(name, partial(cb.kg_residual_z, model, state, state.energy), tol),)
        yield _coulomb_sample(cb.eigenfunction_z(model, state), state, reads + ((probe,) if state is st else ()))
    ground = cb.make_state(model, 0, 0, 0, branch)
    flat = Read(f"coulomb-z-ground-flat-{branch}", partial(cb.ground_state_flatness, model, ground), tol)
    yield _coulomb_sample(cb.eigenfunction_z(model, ground), ground, (flat,))

    # the second-order operator identity, on a family of seeded smooth test fields
    identity = Read("d2z-operator-identity", partial(d2z_identity_residual, cb.coulomb_map(model, ground)), tol)
    seed0 = params.get("seed", 0) * 1000
    specs = [TestFieldSpec(seed=seed0 + seed, r_max=3.0 * ground.r_scale) for seed in range(5)]
    fld = _with_energy(generate_test_family(specs), ground.energy)
    yield Sample(fld, _family_points(specs), (identity,), ground.r_scale)


def _suite_map_independence(params, tol):
    osc = _osc_model(params)
    osc_map = ho.oscillator_map(osc, ho.energy(osc, 0))
    osc_points = Grid(r_min=0.2, r_max=3.0, shells=8).points()
    yield from independence_check(osc_map, osc_points, 1.0, tol, "oscillator-map-")

    cmodel = _coulomb_model(params)
    cstate = cb.make_state(cmodel, 0, 0, 0)
    c_points = Grid(r_min=0.2 * cstate.r_scale, r_max=20.0 * cstate.r_scale, shells=8).points()
    yield from independence_check(cb.coulomb_map(cmodel, cstate), c_points, cstate.r_scale, tol, "coulomb-map-")

    yield from independence_check(ConformalMap.identity(E=1.0), osc_points, 1.0, tol, "identity-map-")

    # probe: operating with a detuned map must break ds/dz = 0
    broken = ConformalMap(a=osc_map.a, b=osc_map.b * 1.1, lam=osc_map.lam, E=osc_map.E, units=osc_map.units)
    yield Sample(time_field(osc_map), osc_points, (Read("probe:detuned-map", partial(ds_dz, broken), tol),))


def _suite_holomorphy(params, tol):
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

    yield holomorphy_residual(phase, t_win, tau_win, tol, "phase-exp")
    yield holomorphy_residual(square, t_win, tau_win, tol, "square")
    yield holomorphy_residual(not_holo, t_win, tau_win, tol, "probe:t-squared")


def _first_field(operator, d):
    """``operator`` on the first field of a family: its first FIELD_POINTS points."""
    return tuple(part[:FIELD_POINTS] for part in operator(d))


def _suite_operator_identities(params, tol):
    seed0 = params.get("seed", 0) * 10000
    n_fields = params.get("n_fields", 100)
    osc = _osc_model(params)
    cmodel = _coulomb_model(params)
    cstate = cb.make_state(cmodel, 0, 0, 0)
    d2z = Read("d2z-coulomb", partial(d2z_identity_residual, cb.coulomb_map(cmodel, cstate)), tol)

    for start in range(0, n_fields, FAMILY_SIZE):
        chunk = range(start, min(start + FAMILY_SIZE, n_fields))
        specs = [TestFieldSpec(seed=seed0 + idx, r_max=3.0) for idx in chunk]
        points = _family_points(specs)
        family = generate_test_family(specs)
        # each point reads the map of its own field's energy
        cmap = ho.oscillator_map(osc, family.energy_hint)
        reads = (Read("qprop-oscillator", partial(qprop_identity_residual, cmap), tol),)
        if start == 0:
            # probe: reversing the composition order must break the identity
            # on the first field's points
            reversed_order = partial(qprop_identity_residual, cmap, operator=dz_dzstar)
            reads += (Read("probe:reversed-composition", partial(_first_field, reversed_order), tol),)
        yield Sample(family, points, reads)

        specs = [TestFieldSpec(seed=seed0 + 5000 + idx, r_max=3.0 * cstate.r_scale) for idx in chunk]
        family = _with_energy(generate_test_family(specs), cstate.energy)
        yield Sample(family, _family_points(specs), (d2z,), cstate.r_scale)


def _plane_wave(kvec, e_val) -> ComplexField:
    k1, k2, k3 = kvec

    def fn(x1, x2, x3, t):
        return dual.exp(1j * (k1 * x1 + k2 * x2 + k3 * x3 - e_val * t))

    return ComplexField(fn=fn, label=f"plane-wave{kvec}", energy_hint=e_val)


def _suite_reductions(params, tol):
    # natural units throughout: hbar = c = m0 = 1
    # the Omega -> 0 map is the identity: forward(p) == p exactly
    imap = ho.oscillator_map(ho.OscillatorModel(omega=0.0), E=1.0)
    worst = 0.0
    for p in Grid(r_min=0.1, r_max=3.0, shells=6).points():
        q = forward(imap, p)
        worst = max(
            worst,
            abs(q.s - p.t),
            max(abs(zi - xi) for zi, xi in zip(q.z, p.x)),
        )
    yield CaseResult("identity-map-pointwise", worst, 0.0, tol)

    # free plane waves satisfy the z-form equation under the identity map
    points = Grid(r_min=0.1, r_max=3.0, shells=6).points()

    def zform_sample(name, kvec, e_val):
        cmap = ConformalMap.identity(E=abs(e_val))

        def residual(d):
            psi = d.value
            ddz, e = dzstar_dz(cmap, d)
            return dual.modulus(-ddz + psi - e_val**2 * psi), e, e_val**2

        return Sample(_plane_wave(kvec, e_val), points, (Read(name, residual, tol),))

    for i, kvec in enumerate(((0.5, 0.0, 0.0), (0.3, -0.4, 0.2), (0.0, 1.0, 0.5))):
        yield zform_sample(f"free-plane-wave-{i}", kvec, math.sqrt(sum(v * v for v in kvec) + 1.0))

    # probe: a plane wave off the mass shell must fail
    yield zform_sample("probe:off-shell-plane-wave", (0.5, 0.0, 0.0), math.sqrt(0.25 + 1.0) + 0.2)


#: every suite's declaration, by name
_DECLARATIONS = {
    "oscillator-x": _suite_oscillator_x,
    "oscillator-z": _suite_oscillator_z,
    "ladder": _suite_ladder,
    "coulomb-x": _suite_coulomb_x,
    "coulomb-z": _suite_coulomb_z,
    "map-independence": _suite_map_independence,
    "holomorphy": _suite_holomorphy,
    "operator-identities": _suite_operator_identities,
    "reductions": _suite_reductions,
}
SUITES = tuple(_DECLARATIONS)
