"""The isometric conformal transformation and its derivative operators.

The map is z_i = x_i, s = t - i (hbar/E) [a ln r + (r/b)^lambda]; its
derivative operators are applied in x-space through their chain-rule
expansions, so the map's role is analytic bookkeeping:

    d_z_i     = d/dx_i + i A_i(x) d/dt
    d_zstar_i = d/dx_i - i A_i(x) d/dt
    A_i(x)    = (x_i / r^2) [a + lambda (r/b)^lambda] (hbar / E)

The composition sum_i d_zstar_i d_z_i (d_z applied first; the order
fixes the sign of the first-order time coupling) expands to

    laplacian + i (div A) d/dt + (sum_i A_i^2) d^2/dt^2

with the mixed x-t terms cancelling, which is what `dzstar_dz` applies.

Every check is one operator applied to one field on one grid.  An
operator maps a field's Derivatives to (|residual|, error estimate,
scale) over the grid; a suite declares Samples (field, grid, the cases
that read it, a length scale), and `evaluate` differentiates each Sample
once in the run's mode and folds max |residual| / scale into each
reading case.  A Sample's grid may be T tiles of a base grid, its field
T fields (the states of one oscillator level) evaluated on the base
points in one pass; a read then names one case per tile, or one case
for all of them, and `evaluate` folds each tile's max into its case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Union

import numpy as np

from . import dual
from .core import ComplexField, ConfigError, DomainError, PointSet, UnitSystem, natural_units
from .diffengine import Derivatives, DiffConfig, T_AXIS, _diff
from .report import CaseResult, ResidualReport


@dataclass(frozen=True)
class ConformalMap:
    """Parameters (a, b, lambda, E) of the transformation.

    b may be math.inf, in which case the power term drops and (with
    a = 0) the map is the identity.  E is the per-eigenstate energy
    constant; the map is state-dependent.  E may also be an (n,) array
    with one energy per point: the maps of a family of fields whose
    energies differ, applied to the family's concatenated points.
    """

    a: float
    b: float
    lam: float
    E: float
    units: UnitSystem

    def __post_init__(self):
        if self.b <= 0:
            raise ConfigError("map scale length b must be positive")
        if np.any(np.asarray(self.E) <= 0):
            raise ConfigError("map energy E must be positive")
        if self.lam <= 0:
            raise ConfigError("map exponent lambda must be positive")

    @classmethod
    def identity(cls, E: float = 1.0, units: UnitSystem = None) -> "ConformalMap":
        return cls(a=0.0, b=math.inf, lam=2.0, E=E, units=units or natural_units())

    @property
    def is_identity(self) -> bool:
        return self.a == 0.0 and math.isinf(self.b)

    def bracket(self, r):
        """a ln r + (r/b)^lambda, generic over floats, arrays and jets."""
        term = self._power(r)
        return term + self.a * dual.log(r) if self.a != 0.0 else term

    def tau(self, r):
        """Imaginary time displacement tau(r) = -(hbar/E) [a ln r + (r/b)^lam]."""
        return -(self.units.hbar / self.E) * self.bracket(r)

    # -- chain-rule coefficients, generic over floats, per-point arrays and jets

    def _power(self, r):
        """(r/b)^lambda through dual.powr (see d_z), 0 for b = inf."""
        return dual.powr(r / self.b, self.lam) if not math.isinf(self.b) else 0.0

    def time_coupling(self, x, r):
        """Per-component A_i = (x_i/r^2)[a + lam (r/b)^lam](hbar/E)."""
        if self.is_identity:
            return (0.0 * r,) * 3
        g = (self.a + self.lam * self._power(r)) / (r * r) * (self.units.hbar / self.E)
        return tuple(xi * g for xi in x)

    def second_order_couplings(self, r):
        """(sum_i dA_i/dx_i, sum_i A_i^2) = ((hbar/E)[a + lam(lam+1)(r/b)^lam] / r^2,
        (hbar/E)^2 [a + lam (r/b)^lam]^2 / r^2), both from one (r/b)^lam."""
        if self.is_identity:
            return 0.0 * r, 0.0 * r
        w, k, r2 = self._power(r), self.units.hbar / self.E, r * r
        return k * (self.a + self.lam * (self.lam + 1.0) * w) / r2, dual.powr(k * (self.a + self.lam * w), 2) / r2


def _bracket_at(cmap: ConformalMap, pts: PointSet, singular: str):
    """a ln r + (r/b)^lambda at every point; ``singular`` names r = 0 when a != 0."""
    if cmap.a != 0.0 and 0.0 in pts.radii:
        raise DomainError(singular)
    return cmap.bracket(pts.radii)


def forward(cmap: ConformalMap, pts: PointSet) -> np.ndarray:
    """s = t - i (hbar/E) [a ln r + (r/b)^lam] at every point, as a complex
    array; z = x is ``pts.coords[:3]`` itself, so |z| = |x| exactly."""
    bracket = _bracket_at(cmap, pts, "forward map undefined at r = 0 when a != 0 (ln r)")
    return pts.coords[3] - 1j * (cmap.units.hbar / cmap.E) * bracket


def inverse(cmap: ConformalMap, pts: PointSet, s) -> np.ndarray:
    """t = s + i (hbar/E) [a ln r_z + (r_z/b)^lam] at every point, as a
    float array; ``pts`` holds z = x and so r_z."""
    bracket = _bracket_at(cmap, pts, "inverse map undefined at r_z = 0 when a != 0")
    return (s + 1j * (cmap.units.hbar / cmap.E) * bracket).real


def _require_off_origin(cmap, pts):
    if not cmap.is_identity and 0.0 in pts.base.radii:
        raise DomainError("operator coefficients singular at r = 0")


# The operators below act on a field's Derivatives (see diffengine._diff) at
# every point of its grid; ``cmap`` may hold one energy per point (see
# ConformalMap).  Each computes its map coefficients once per call, as float
# arrays over the grid, and each result equals the point-by-point scalar
# expression in its docstring bit for bit.  Sums, products and quotients
# round alike in numpy and CPython, so they run on whole arrays, in the
# scalar expression's left-to-right order.  Powers go through dual.powr:
# r^2, squares of coefficients and (r/b)^2 as products, (r/b)^1 as r/b,
# any other (r/b)^lambda per element in CPython's pow (numpy's rounds
# otherwise), and integer powers of jets (in time_field) as products.
# Complex products go through dual.mul.


def d_z(cmap: ConformalMap, d: Derivatives, axis=None):
    """d/dz_i = d/dx_i + i A_i d/dt as (value, error estimate), per
    component or as a 3-tuple of them."""
    return _first_order(cmap, d, axis, +1.0)


def d_zstar(cmap: ConformalMap, d: Derivatives, axis=None):
    """d/dz_i* = d/dx_i - i A_i d/dt (sign of the imaginary term flipped)."""
    return _first_order(cmap, d, axis, -1.0)


def _first_order(cmap, d, axis, sign):
    pts = d.points
    _require_off_origin(cmap, pts)
    a_coef = cmap.time_coupling(pts.coords[:3], pts.radii)
    dt, dt_err = d.grad[T_AXIS], d.grad_err[T_AXIS]

    def component(i):
        err = np.abs(a_coef[i]) * dt_err + d.grad_err[i]
        return d.grad[i] + dual.mul(sign * 1j * a_coef[i], dt), err

    if axis is not None:
        return component(axis)
    return tuple(component(i) for i in range(3))


def dzstar_dz(cmap: ConformalMap, d: Derivatives):
    """sum_i d_zstar_i (d_z_i f), returned as (value, error_estimate)."""
    pts = d.points
    _require_off_origin(cmap, pts)
    lap, err = _laplacian(d)
    dt, dtt = d.grad[T_AXIS], d.hess[T_AXIS]
    # the same on every tile: the tiles of a grid share their energy
    div_a, sq = pts.radial(cmap.second_order_couplings)
    value = lap + dual.mul(1j * div_a, dt) + sq * dtt
    return value, err + np.abs(div_a) * d.grad_err[T_AXIS] + np.abs(sq) * d.hess_err[T_AXIS]


def dz_dzstar(cmap: ConformalMap, d: Derivatives):
    """Reversed composition sum_i d_z_i (d_zstar_i f), for the order-sensitivity
    probe: dzstar_dz less 2i (div A) df/dt, with the same estimate."""
    value, err = dzstar_dz(cmap, d)
    div_a, _ = d.points.radial(cmap.second_order_couplings)
    return value - dual.mul(2j * div_a, d.grad[T_AXIS]), err


def kg_residual(units: UnitSystem, second, potential, scale, d: Derivatives):
    """Operator |-hbar^2 c^2 D psi + m0^2 c^4 psi + sum_k w_k psi|, scaled by ``scale``,
    of the Klein-Gordon equation in either form: ``second`` is (D psi, its estimate),
    _laplacian(d) or dzstar_dz(cmap, d), and ``potential`` the terms w_k, numbers or
    arrays over the grid, added left to right."""
    psi = d.value
    hc2 = (units.hbar * units.c) ** 2
    value, err = second
    res = -hc2 * value + units.rest_energy**2 * psi
    for w in potential:
        res = res + w * psi
    return dual.modulus(res), hc2 * err, scale


def zform_residual(cmap: ConformalMap, eig, scale, d: Derivatives):
    """Operator of the z-form equation under ``cmap``, free of any potential term:
    kg_residual of sum_i d_zstar_i d_z_i psi with the one term -eig."""
    return kg_residual(cmap.units, dzstar_dz(cmap, d), (-eig,), scale, d)


def _laplacian(d: Derivatives):
    """(laplacian, error estimate): the pure second partials summed over x1, x2, x3."""
    return d.hess[0] + d.hess[1] + d.hess[2], d.hess_err[0] + d.hess_err[1] + d.hess_err[2]


# ---------------------------------------------------------------------------
# the residual loop


class Read(NamedTuple):
    """A case's reading of a sample: ``operator`` maps the sample's
    Derivatives to (|residual|, error estimate, scale) over the grid, the
    points on the last axis.  ``case`` names one case, or one case per
    tile of the sample's grid; a repeated name folds its tiles by max."""

    case: Union[str, tuple]
    operator: Callable
    tolerance: float


class Sample(NamedTuple):
    """One field on one grid, differentiated once for every case that reads it.

    The field may be a family of many fields, each on its own points: its
    parameters then hold one value per point, and ``points`` concatenates
    the fields' grids, so one pass differentiates them all.  Or it may give
    one field per tile of a tiled grid (see core.PointSet), all on the same
    base points.  In stencil mode the spatial steps scale with
    ``length_scale`` (see diffengine._diff).
    """

    field: ComplexField
    points: PointSet
    reads: tuple = ()
    length_scale: float = 1.0


def _tile_max(values, tiles: int) -> list:
    """The max of ``values`` over each tile, the points on the last axis; a
    scalar is every tile's."""
    values = np.asarray(values)
    if not values.ndim:
        return [float(values)] * tiles
    by_tile = values.reshape(values.shape[:-1] + (tiles, -1))
    return by_tile.max(axis=(*range(values.ndim - 1), -1)).tolist()


def _scaled_max(residual, tiles: int):
    """Per tile, (max |residual| / scale, max error / scale) of one operator result."""
    res, err, scale = residual
    return zip(_tile_max(res / scale, tiles), _tile_max(err / scale, tiles))


def _readings(item: Sample, mode: str) -> list:
    """(case, max |residual| / scale, max error / scale, tolerance) of every
    read of one Sample, tile by tile and within a tile read by read.  The
    Sample's derivatives are dropped on return, before the next pass."""
    d = _diff(item.field, item.points, DiffConfig(mode), length_scale=item.length_scale)
    tiles = item.points.tiles
    per_read = []
    for read in item.reads:
        names = (read.case,) * tiles if isinstance(read.case, str) else read.case
        if len(names) != tiles:
            raise ConfigError(f"{len(names)} cases read a grid of {tiles} tiles")
        maxima = _scaled_max(read.operator(d), tiles)
        per_read.append([(name, worst, err, read.tolerance) for name, (worst, err) in zip(names, maxima)])
    return [reading for tile in zip(*per_read) for reading in tile]


def evaluate(suite: str, mode: str, declaration) -> ResidualReport:
    """Run a suite declaration, an iterable of Samples and CaseResults.

    Each Sample's field is differentiated once in ``mode`` (one pass for a
    family of fields, or for every tile of a tiled grid, too); every case
    that reads it folds the result into its running max, tile by tile and
    within a tile read by read.  A CaseResult is reported as it is.
    Regular cases are reported before probes, each in order of first
    appearance.
    """
    cases = {}
    for item in declaration:
        if isinstance(item, CaseResult):
            cases[item.name] = item
            continue
        for name, worst, err, tolerance in _readings(item, mode):
            if name in cases:
                old = cases[name]
                worst, err = max(old.max_residual, worst), max(old.error_estimate, err)
            cases[name] = CaseResult(name, worst, err, tolerance)
    return ResidualReport(suite, mode, tuple(sorted(cases.values(), key=lambda c: c.is_probe)))


def _identity_residual(d: Derivatives, ddz, ddz_err, a, b):
    """(|(ddz + a psi) - (laplacian + b psi)|, error estimate, |laplacian + b psi| floored at 1e-30)."""
    lap, lap_err = _laplacian(d)
    rhs = lap + b * d.value
    return dual.modulus(ddz + a * d.value - rhs), ddz_err + lap_err, np.maximum(dual.modulus(rhs), 1e-30)


def qprop_identity_residual(cmap: ConformalMap, d: Derivatives, operator=None):
    """Oscillator operator identity on an energy eigenfield:

        -sum_i d_zstar_i d_z_i + 3 Omega/(hbar c) = -laplacian + (Omega/(hbar c))^2 x^2

    with Omega/(hbar c) = 2/b^2 for the lambda = 2, a = 0 map, as an
    operator with both sides negated, which rounds alike.  ``cmap`` may hold
    one energy per point, each its field's.  ``operator`` replaces
    dzstar_dz on the left; the reversed-order probe passes dz_dzstar.
    """
    omega_hc = 2.0 / (cmap.b * cmap.b)
    ddz, err = (operator or dzstar_dz)(cmap, d)
    return _identity_residual(d, ddz, err, -3.0 * omega_hc, -(omega_hc**2) * d.points.radial(dual.powr, 2))


def d2z_identity_residual(cmap: ConformalMap, d: Derivatives):
    """Coulomb operator identity on an energy eigenfield (lambda = 1 map):

        sum_i d_zstar_i d_z_i = laplacian + a(1-a)/r^2 + 2(1-a)/(b r) - 1/b^2
    """
    a, b = cmap.a, cmap.b
    ddz, err = dzstar_dz(cmap, d)
    r = d.points.radii
    return _identity_residual(d, ddz, err, 0.0, a * (1.0 - a) / (r * r) + 2.0 * (1.0 - a) / (b * r) - 1.0 / (b * b))


def time_field(cmap: ConformalMap) -> ComplexField:
    """The complex time s(x, t) = t + i tau(r) of the map, as a field."""
    return ComplexField(
        fn=lambda x1, x2, x3, t: t + 1j * cmap.tau(dual.norm3(x1, x2, x3)),
        label="s(x,t)",
        singular_at_origin=cmap.a != 0.0,
    )


def ds_dz(cmap: ConformalMap, d: Derivatives):
    """Operator: |d_z_i s| over the three components, with d_z's estimate;
    0 when d holds s(x, t)."""
    values, errs = zip(*d_z(cmap, d))
    return dual.modulus(np.stack(values)), np.stack(errs), 1.0


def _dz_ds(d: Derivatives):
    return dual.modulus(d.grad[T_AXIS]), d.grad_err[T_AXIS], 1.0


def independence_check(cmap: ConformalMap, pts: PointSet, length_scale: float, tolerance: float, prefix: str,
                       probes=()):
    """Samples verifying ds/dz_i = 0 and dz_i/ds = 0 on the given points.

    ds/dz_i applies the d_z operator to the field s(x, t); dz_i/ds
    applies d/ds = d/dt to the coordinate fields z_i(x, t) = x_i, the tiles
    of one Sample.  Each case reports its own derivative's error estimate.
    Case names carry ``prefix``.  The reads ``probes`` read s(x, t) too.
    """
    reads = (Read(prefix + "ds/dz", partial(ds_dz, cmap), tolerance),) + tuple(probes)
    yield Sample(time_field(cmap), pts, reads, length_scale)
    z_fields = ComplexField(fn=lambda x1, x2, x3, t: dual.join_tiles([x1, x2, x3]), label="z1..z3")
    yield Sample(z_fields, pts.tiled(3), (Read(prefix + "dz/ds", _dz_ds, tolerance),), length_scale)


def holomorphy_residual(
    f_of_t_tau,
    t_window: tuple[float, float],
    tau_window: tuple[float, float],
    tolerance: float,
    name: str,
) -> Sample:
    """The sample checking |d2f/dt2 + d2f/dtau2| / max|f| on a 7 x 7 grid
    over a (t, tau) rectangle.

    ``f_of_t_tau`` is a callable (t, tau) -> complex, generic over
    arrays and jets so both differentiation modes apply.
    """
    wrapped = ComplexField(fn=lambda u, v, _x3, _t: f_of_t_tau(u, v), label=name)
    t_lo, t_hi = t_window
    tau_lo, tau_hi = tau_window
    steps = np.arange(7.0)  # t runs over the outer loop, tau over the inner
    u, v = np.repeat(t_lo + (t_hi - t_lo) * steps / 6, 7), np.tile(tau_lo + (tau_hi - tau_lo) * steps / 6, 7)
    points = PointSet(u, v, np.zeros(49), np.zeros(49))

    def laplace(d):
        max_f = float(dual.modulus(d.value).max())
        scale = max_f if max_f > 0.0 else 1.0
        return dual.modulus(d.hess[0] + d.hess[1]), d.hess_err[0] + d.hess_err[1], scale

    return Sample(wrapped, points, (Read(name, laplace, tolerance),))
