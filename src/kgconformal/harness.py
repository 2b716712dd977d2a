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
    evaluate,
    forward,
    holomorphy_residual,
    independence_check,
    qprop_identity_residual,
    time_field,
    zform_residual,
)
from .core import ComplexField, ConfigError, DomainError, PointSet
from .diffengine import DiffConfig, MODE_EXACT
from .report import CaseResult, ResidualReport
from .seeds import standard_doubles
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

#: most test fields operator-identities draws: about 1 kB each while they
#: are drawn, so a run at the cap peaked at 140 MB (31 MB at 1,500 fields)
MAX_FIELDS = 100_000

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
        """Every (shell, direction, time), in that order of nesting."""
        xyz = self.radii()[:, None, None] * np.array(DIRECTIONS)  # (shell, direction, axis)
        shape = xyz.shape[:2] + (len(self.times),)
        x1, x2, x3 = (np.broadcast_to(xyz[..., k, None], shape).ravel() for k in range(3))
        return PointSet(x1, x2, x3, np.broadcast_to(self.times, shape).ravel())


def default_tolerance(cfg: DiffConfig) -> float:
    return TOL_EXACT if cfg.mode == MODE_EXACT else TOL_STENCIL


#: range of the phase energy E of a test field
ENERGY_RANGE = (0.8, 2.0)
#: sample points of one test field (see _draw)
FIELD_POINTS = 3
#: points differentiated in one pass, at most: PASS_POINTS // FIELD_POINTS
#: test fields of a family, or PASS_POINTS // n tiles of an oscillator
#: level on its n-point grid (one field or tile at least).  A pass costs
#: nearly the same for 3 points as for 120, but its jets and stencil tables
#: grow with the point count; chunks keep memory flat at any number of
#: fields or states
PASS_POINTS = 720


def _uniform(seeds, lo, hi) -> np.ndarray:
    """Generator.uniform(lo[j], hi[j]) for j = 0..k-1 from each seed's
    stream, one row per seed: numpy draws a uniform as lo + (hi - lo) u from
    one standard double u, so each seed's ``random(k)`` gives the same draws
    bit for bit, and standard_doubles draws those for all seeds at once."""
    return lo + (hi - lo) * standard_doubles(seeds, lo.shape[-1])


def _family_bounds(r_max: np.ndarray):
    """(lo, hi) of the draws of fields of radii ``r_max``, one row each:
    centre, linear and quadratic coefficients, constant term and energy."""
    q = np.repeat(r_max[:, None] / 4.0, 3, axis=1)
    e_lo, e_hi = ENERGY_RANGE
    lo = np.broadcast_to((-1.0,) * 3 + (-0.5,) * 3 + (0.5, e_lo), (len(q), 8))
    hi = np.broadcast_to((1.0,) * 3 + (0.5,) * 3 + (1.5, e_hi), (len(q), 8))
    return np.hstack((-q, lo)), np.hstack((q, hi))


def _seed_range(first: int, n: int) -> np.ndarray:
    """The seeds first .. first + n - 1: int64 up to 2^62, where they and
    their point seeds (under 2^30 more) fit, else Python ints, so none wraps."""
    return np.arange(first, first + n, dtype=np.int64 if first + n <= 2**62 else object)


def _draw(seeds: np.ndarray, r_max: np.ndarray):
    """(parameters, points) of the fields of ``seeds`` and radii ``r_max``,
    one row each: the draws of _family_bounds with 1 / (2 sigma^2) before the
    energy, and FIELD_POINTS times (x1, x2, x3, t) from seed + 987654321, x
    uniform within a third of r_max on each axis and t in (-0.5, 0.5)."""
    draws = _uniform(seeds, *_family_bounds(r_max))
    center = draws[:, :3]
    # sqrt(c . c) is how np.linalg.norm rounds a 3-vector; a (1, 3) @ (3, 1)
    # product runs the same dot, a row sum rounds otherwise
    margin = r_max - np.sqrt((center[:, None, :] @ center[:, :, None])[:, 0, 0])
    sigma = margin / 6.0  # exp(-18) < 1e-7 at the boundary
    rows = np.column_stack((draws[:, :10], 1.0 / (2.0 * sigma * sigma), draws[:, 10]))
    h = r_max[:, None] / 3.0
    hi = np.tile(np.hstack((h, h, h, np.full_like(h, 0.5))), FIELD_POINTS)
    return rows, _uniform(seeds + 987654321, -hi, hi)


def _family(seeds, rows) -> ComplexField:
    """The fields of seeds ``seeds``, of parameter rows ``rows`` from _draw,
    as one field on their points: each is a low-order polynomial times a
    gaussian bump, below 1e-6 of its peak at r_max, times exp(-i E t / hbar),
    E its energy hint.  Every parameter holds one value per point, so one
    pass over the points gives each field on its own points, rounded
    as the field alone would round.  A family of one keeps floats, so it can
    be evaluated anywhere, and its energy hint is a float."""
    if len(seeds) == 1:
        values = rows[0].tolist()
        label = f"testfield-{seeds[0]}"
    else:
        values = np.repeat(rows, FIELD_POINTS, axis=0).T
        label = f"testfields-{seeds[0]}..{seeds[-1]}"
    cx, cy, cz, l1, l2, l3, q1, q2, q3, c0, inv2s2, e_val = values

    def fn(x1, x2, x3, t):
        d1, d2, d3 = x1 - cx, x2 - cy, x3 - cz
        bump = dual.exp(-(d1 * d1 + d2 * d2 + d3 * d3) * inv2s2)
        poly = c0 + l1 * x1 + l2 * x2 + l3 * x3 + q1 * x1 * x1 + q2 * x2 * x2 + q3 * x3 * x3
        return poly * bump * dual.exp(-1j * e_val * t)

    return ComplexField(fn=fn, label=label, energy_hint=e_val)


def _points(rows) -> PointSet:
    """The sample points of point rows from _draw, in row order."""
    return PointSet(*rows.reshape(-1, 4).T)


def generate_test_field(seed: int, r_max: float = 3.0) -> ComplexField:
    """The test field of ``seed`` drawn for radius ``r_max``: its family of one."""
    seeds = _seed_range(seed, 1)
    return _family(seeds, _draw(seeds, np.full(1, r_max))[0])


def _field_sample_points(seed: int, r_max: float = 3.0) -> PointSet:
    """The sample points of that test field."""
    return _points(_draw(_seed_range(seed, 1), np.full(1, r_max))[1])


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


def _count(lo, hi=math.inf):
    return lambda v: _int(v) and lo <= v <= hi


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
    "n_fields": _count(1, MAX_FIELDS),
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


def _osc_grid(params, model):
    """(points, length) of the oscillator suites: the oscillator's own length
    b / sqrt(2) = (hbar c / Omega)^(1/2), exactly 1.0 at Omega = 1, and the
    ``grid`` parameter's points or r in [0.1, 4] lengths."""
    length = model.b / math.sqrt(2.0)
    return (params.get("grid") or Grid(r_min=0.1 * length, r_max=4.0 * length, shells=10)).points(), length


def _coulomb_model(params) -> cb.CoulombModel:
    return cb.CoulombModel(alpha=params.get("alpha", 0.0072973525693))


def _coulomb_sample(field, state, reads) -> Sample:
    """``field`` on the state's grid, 0.1 to 20 r_nl, with steps on that scale."""
    grid = Grid(r_min=0.1 * state.r_scale, r_max=20.0 * state.r_scale, shells=8)
    return Sample(field, grid.points(), reads, state.r_scale)


def _passes(states, points):
    """``states`` in runs of at most PASS_POINTS points of the grid
    ``points``, each run with its grid tiled once per state."""
    per_pass = max(1, PASS_POINTS // len(points))
    for start in range(0, len(states), per_pass):
        run = states[start : start + per_pass]
        yield run, points.tiled(len(run))


def _oscillator_levels(params, tol, form, eigenfunction, operators):
    """Levels 0 .. nmax of the oscillator in ``form``: each pass of a level's
    states is one Sample of ``eigenfunction``, and each (case suffix,
    operator) in ``operators`` reads it at the level's energy.  The probe
    reads the first operator on the ground state's sample, the first one
    declared, at E_0 off by 5%: a fixed shift would vanish against E_0 at
    large Omega."""
    model = _osc_model(params)
    points, length = _osc_grid(params, model)
    e0 = ho.energy(model, 0)
    probe = Read("probe:perturbed-energy", partial(operators[0][1], model, e0 + 0.05 * e0), tol)
    for n in range(params.get("nmax", 4) + 1):
        # a level's states share their energy: one field and one read per operator and pass
        for states, tiled in _passes(list(ho.states_with_n(model, n)), points):
            reads = tuple(
                Read(tuple(f"osc-{form}-{state.ls}{suffix}" for state in states),
                     partial(operator, model, states[0].energy), tol)
                for suffix, operator in operators
            )
            yield Sample(eigenfunction(model, states), tiled, reads + ((probe,) if n == 0 else ()), length)


def _suite_oscillator_x(params, tol):
    yield from _oscillator_levels(params, tol, "x", ho.eigenfunction_x, (("", ho.kg_residual_x),))


def _suite_oscillator_z(params, tol):
    # the probe reads the equation only.  Its energy-operator read fails too
    # (0.023 at the default grid), but it would add a case that the reports of
    # earlier versions, and the benchmark's reference, do not have
    operators = (("", ho.kg_residual_z), ("-energy-op", ho.energy_operator_residual))
    yield from _oscillator_levels(params, tol, "z", ho.eigenfunction_z, operators)


def _annihilation_residual(model, d):
    """|a_i psi| over the three components, with a_i's estimate, scaled by
    max|psi| over each tile."""
    values, errs = zip(*(ho.ladder_apply(model, ("lower", i), d) for i in range(3)))
    return dual.modulus(np.stack(values)), np.stack(errs), d.scale()


def _number_residual(model, n, eigenvalue, d):
    """|N psi - eigenvalue psi| on level-n states, scaled by max|psi| max(n, 1)
    over each tile."""
    val, err = ho.number_operator_apply(model, d)
    scale = d.scale(max(n, 1))
    return dual.modulus(val - eigenvalue * d.value), err, scale


def _lowering_proportionality(model, ground, state1, d):
    """a_1 applied to (1,0,0) is proportional to the ground state: the spread
    of the pointwise ratios a_1 psi_1 / psi_0 about their mean, relative to
    the mean, with scale 1.  ``d`` holds psi_1; psi_0 is evaluated on its
    points."""
    psi0 = ho.eigenfunction_x(model, ground)(*d.points.coords)
    zero = np.flatnonzero(psi0 == 0.0)
    if zero.size:
        x1, x2, x3, t = (float(c[zero[0]]) for c in d.points.coords)
        raise DomainError(f"lowering-proportionality: psi_0 underflows to 0 at x = ({x1}, {x2}, {x3}), t = {t}")
    # divide out the E_1 - E_0 phase difference before comparing ratios
    d_e = state1.energy - ground.energy
    hbar = model.units.hbar
    lowered, lowered_err = ho.ladder_apply(model, ("lower", 0), d)
    ratios = [
        val / denom * complex(math.cos(d_e * t / hbar), math.sin(d_e * t / hbar))
        for val, denom, t in zip(lowered.tolist(), psi0.tolist(), d.points.coords[3].tolist())
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
    points, length = _osc_grid(params, model)
    ground, state1 = ho.make_state(model, 0, 0, 0), ho.make_state(model, 1, 0, 0)
    closing = (
        Read("lowering-proportionality", partial(_lowering_proportionality, model, ground, state1), tol_number),
        # probe: the number operator must NOT return n+1
        Read("probe:number-operator-off-by-one", partial(_number_residual, model, 1, 2), tol_number),
    )
    for n in range(params.get("nmax", 4) + 1):
        # one case for the level: its tiles fold by max
        reads = (Read(f"number-operator-n{n}", partial(_number_residual, model, n, n), tol_number),)
        if n == 0:
            reads = (Read("annihilate-ground", partial(_annihilation_residual, model), tol),) + reads
        for states, tiled in _passes([state for state in ho.states_with_n(model, n) if state != state1], points):
            yield Sample(ho.eigenfunction_x(model, states), tiled, reads, length)
        if n == 1:  # (1,0,0), the last n = 1 state, is read with the closing reads
            closing = reads + closing
    # declared last and alone, so that every case keeps the place of its
    # first appearance and lowering-proportionality reads one state
    yield Sample(ho.eigenfunction_x(model, state1), points, closing, length)


def _coulomb_states_read(model, params, tol, form, eigenfunction, operator):
    """Each state of the ``states`` parameter, (n, l) or (n, l, k), as one
    Sample of its ``eigenfunction`` in ``form``, read by ``operator(state, E)``
    at its energy.  The probe reads the first state's sample at E off by 1e-4."""
    branch = params.get("branch", SOMMERFELD)
    states = [cb.make_state(model, *qn, branch=branch) for qn in params.get("states", ((0, 0), (1, 0), (0, 1)))]
    first = states[0]
    probe = Read("probe:perturbed-energy", operator(first, first.energy * (1.0 + 1e-4)), tol)
    for state in states:
        name = f"coulomb-{form}-{state.quantum_numbers}-{state.branch}"
        reads = (Read(name, operator(state, state.energy), tol),)
        yield _coulomb_sample(eigenfunction(model, state), state, reads + ((probe,) if state is first else ()))


def _suite_coulomb_x(params, tol):
    model = _coulomb_model(params)
    yield from _coulomb_states_read(model, params, tol, "x", cb.eigenfunction_x,
                                    lambda state, energy: partial(cb.kg_residual_x, model, energy))


def _suite_coulomb_z(params, tol):
    model = _coulomb_model(params)
    yield from _coulomb_states_read(model, params, tol, "z", cb.eigenfunction_z,
                                    lambda state, energy: partial(cb.kg_residual_z, model, state, energy))
    branch = params.get("branch", SOMMERFELD)
    ground = cb.make_state(model, 0, 0, 0, branch)
    flat = Read(f"coulomb-z-ground-flat-{branch}", partial(cb.ground_state_flatness, model, ground), tol)
    yield _coulomb_sample(cb.eigenfunction_z(model, ground), ground, (flat,))

    # the second-order operator identity, on a family of seeded smooth test fields
    identity = Read("d2z-operator-identity", partial(d2z_identity_residual, cb.coulomb_map(model, ground)), tol)
    seeds = _seed_range(params.get("seed", 0) * 1000, 5)
    field_rows, point_rows = _draw(seeds, np.full(5, 3.0 * ground.r_scale))
    fld = _with_energy(_family(seeds, field_rows), ground.energy)
    yield Sample(fld, _points(point_rows), (identity,), ground.r_scale)


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

    # each family's fields and points are drawn once, over all its seeds,
    # and sliced into passes of PASS_POINTS points
    family_size = max(1, PASS_POINTS // FIELD_POINTS)
    osc_seeds, c_seeds = _seed_range(seed0, n_fields), _seed_range(seed0 + 5000, n_fields)
    osc_rows, osc_point_rows = _draw(osc_seeds, np.full(n_fields, 3.0))
    c_rows, c_point_rows = _draw(c_seeds, np.full(n_fields, 3.0 * cstate.r_scale))
    for start in range(0, n_fields, family_size):
        chunk = slice(start, start + family_size)
        family = _family(osc_seeds[chunk], osc_rows[chunk])
        # each point reads the map of its own field's energy
        cmap = ho.oscillator_map(osc, family.energy_hint)
        reads = (Read("qprop-oscillator", partial(qprop_identity_residual, cmap), tol),)
        if start == 0:
            # probe: reversing the composition order must break the identity
            # on the first field's points
            reversed_order = partial(qprop_identity_residual, cmap, operator=dz_dzstar)
            reads += (Read("probe:reversed-composition", partial(_first_field, reversed_order), tol),)
        yield Sample(family, _points(osc_point_rows[chunk]), reads)

        family = _with_energy(_family(c_seeds[chunk], c_rows[chunk]), cstate.energy)
        yield Sample(family, _points(c_point_rows[chunk]), (d2z,), cstate.r_scale)


def _plane_wave(kvec, e_val) -> ComplexField:
    k1, k2, k3 = kvec

    def fn(x1, x2, x3, t):
        return dual.exp(1j * (k1 * x1 + k2 * x2 + k3 * x3 - e_val * t))

    return ComplexField(fn=fn, label=f"plane-wave{kvec}", energy_hint=e_val)


def _suite_reductions(params, tol):
    # natural units throughout: hbar = c = m0 = 1
    points = Grid(r_min=0.1, r_max=3.0, shells=6).points()
    # the Omega -> 0 map is the identity: s == t exactly (z == x for every map)
    imap = ho.oscillator_map(ho.OscillatorModel(omega=0.0), E=1.0)
    worst = np.abs(forward(imap, points) - points.coords[3]).max()
    yield CaseResult("identity-map-pointwise", float(worst), 0.0, tol)

    # free plane waves satisfy the z-form equation under the identity map
    def zform_sample(name, kvec, e_val):
        residual = partial(zform_residual, ConformalMap.identity(E=abs(e_val)), e_val**2, e_val**2)
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
