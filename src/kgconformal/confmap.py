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
reading case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import dual
from .core import (
    ComplexField,
    ComplexPoint,
    DomainError,
    SpaceTimePoint,
    UnitSystem,
    as_points,
    natural_units,
    ConfigError,
)
from .diffengine import Derivatives, DiffConfig, T_AXIS, _diff
from .report import CaseResult, ResidualReport


def _pow_lam(w, lam: float):
    if float(lam).is_integer():
        return w ** int(lam)
    return dual.powr(w, lam)


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
        term = _pow_lam(r / self.b, self.lam) if not math.isinf(self.b) else 0.0
        if self.a != 0.0:
            term = term + self.a * dual.log(r)
        return term

    def tau(self, r):
        """Imaginary time displacement tau(r) = -(hbar/E) [a ln r + (r/b)^lam]."""
        return -(self.units.hbar / self.E) * self.bracket(r)

    # -- chain-rule coefficients, generic over floats, per-point arrays and jets

    def _power(self, r):
        """(r/b)^lambda, per element in CPython arithmetic (see d_z)."""
        return dual.powr(r / self.b, self.lam) if not math.isinf(self.b) else 0.0

    def time_coupling(self, x, r):
        """Per-component A_i = (x_i/r^2)[a + lam (r/b)^lam](hbar/E)."""
        if self.is_identity:
            return (0.0 * r,) * 3
        g = (self.a + self.lam * self._power(r)) / (r * r) * (self.units.hbar / self.E)
        return tuple(xi * g for xi in x)

    def time_coupling_divergence(self, r):
        """sum_i dA_i/dx_i = (hbar/E)[a + lam(lam+1)(r/b)^lam] / r^2."""
        if self.is_identity:
            return 0.0 * r
        return (self.units.hbar / self.E) * (self.a + self.lam * (self.lam + 1.0) * self._power(r)) / (r * r)

    def time_coupling_sq_sum(self, r):
        """sum_i A_i^2 = (hbar/E)^2 [a + lam (r/b)^lam]^2 / r^2."""
        if self.is_identity:
            return 0.0 * r
        return dual.powr((self.units.hbar / self.E) * (self.a + self.lam * self._power(r)), 2) / (r * r)


def forward(cmap: ConformalMap, p: SpaceTimePoint) -> ComplexPoint:
    """z = x, s = t - i (hbar/E) [a ln r + (r/b)^lam]; |z| = |x| exactly."""
    r = p.r
    if r == 0.0 and cmap.a != 0.0:
        raise DomainError("forward map undefined at r = 0 when a != 0 (ln r)")
    s = p.t - 1j * (cmap.units.hbar / cmap.E) * cmap.bracket(r) if not cmap.is_identity else complex(p.t)
    return ComplexPoint(z=p.x, s=s)


def inverse(cmap: ConformalMap, q: ComplexPoint) -> SpaceTimePoint:
    """x = z, t = s + i (hbar/E) [a ln r_z + (r_z/b)^lam]."""
    r = q.r
    if r == 0.0 and cmap.a != 0.0:
        raise DomainError("inverse map undefined at r_z = 0 when a != 0")
    t = q.s + 1j * (cmap.units.hbar / cmap.E) * cmap.bracket(r)
    return SpaceTimePoint(x=q.z, t=t.real)


def _require_off_origin(cmap, pts):
    if not cmap.is_identity and 0.0 in pts.radii:
        raise DomainError("operator coefficients singular at r = 0")


# The operators below act on a field's Derivatives (see diffengine._diff) at
# every point of its grid; ``cmap`` may hold one energy per point (see
# ConformalMap).  Each computes its map coefficients once per call, as float
# arrays over the grid, and each result equals the point-by-point scalar
# expression in its docstring bit for bit.  Sums, products and quotients
# round alike in numpy and CPython, so they run on whole arrays, in the
# scalar expression's left-to-right order.  Powers do not: numpy's ** takes
# fast paths (a square for x**2, a square root for x**0.5) that round
# otherwise than CPython's libm pow, so (r/b)^lambda, r^2 and squares of
# coefficients go through dual.powr, per element in CPython.  Complex
# products go through dual.mul.


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


def dzstar_dz(cmap: ConformalMap, d: Derivatives, reverse: bool = False):
    """sum_i d_zstar_i (d_z_i f), returned as (value, error_estimate).

    With ``reverse`` it is the reversed composition sum_i d_z_i (d_zstar_i f),
    whose first-order time coupling has the opposite sign: the value less
    2i (div A) df/dt, with the same estimate.
    """
    pts = d.points
    _require_off_origin(cmap, pts)
    lap, err = _laplacian(d)
    dt, dtt = d.grad[T_AXIS], d.hess[T_AXIS]
    div_a = cmap.time_coupling_divergence(pts.radii)
    sq = cmap.time_coupling_sq_sum(pts.radii)
    value = lap + dual.mul(1j * div_a, dt) + sq * dtt
    err = err + np.abs(div_a) * d.grad_err[T_AXIS] + np.abs(sq) * d.hess_err[T_AXIS]
    if reverse:
        value = value - dual.mul(2j * div_a, dt)
    return value, err


def dz_dzstar(cmap: ConformalMap, d: Derivatives):
    """Reversed composition sum_i d_z_i (d_zstar_i f); the sign of the
    first-order time coupling flips.  Kept for the order-sensitivity probe."""
    return dzstar_dz(cmap, d, reverse=True)


def _laplacian(d: Derivatives):
    """(laplacian, error estimate): the pure second partials summed over x1, x2, x3."""
    return d.hess[0] + d.hess[1] + d.hess[2], d.hess_err[0] + d.hess_err[1] + d.hess_err[2]


# ---------------------------------------------------------------------------
# the residual loop


class Read(NamedTuple):
    """A case's reading of a sample: ``operator`` maps the sample's
    Derivatives to (|residual|, error estimate, scale) over the grid."""

    case: str
    operator: Callable
    tolerance: float


class Sample(NamedTuple):
    """One field on one grid, differentiated once for every case that reads it.

    The field may be a family of many fields, each on its own points: its
    parameters then hold one value per point, and ``points`` concatenates
    the fields' grids, so one pass differentiates them all.  In stencil
    mode the spatial steps scale with ``length_scale`` (see DiffConfig).
    """

    field: ComplexField
    points: Sequence
    reads: tuple = ()
    length_scale: float = 1.0


def _scaled_max(residual):
    """(max |residual| / scale, max error / scale) of one operator result."""
    res, err, scale = residual
    return float(np.asarray(res / scale).max()), float(np.asarray(err / scale).max())


def evaluate(suite: str, mode: str, declaration) -> ResidualReport:
    """Run a suite declaration, an iterable of Samples and CaseResults.

    Each Sample's field is differentiated once in ``mode`` (one pass for a
    family of fields too); every case that reads it folds the result into
    its running max.  A CaseResult is reported as it is.  Regular cases
    are reported before probes, each in order of first appearance.
    """
    cases = {}
    for item in declaration:
        if isinstance(item, CaseResult):
            cases[item.name] = item
            continue
        d = _diff(item.field, item.points, DiffConfig(mode, item.length_scale))
        for read in item.reads:
            worst, err = _scaled_max(read.operator(d))
            if read.case in cases:
                old = cases[read.case]
                worst, err = max(old.max_residual, worst), max(old.error_estimate, err)
            cases[read.case] = CaseResult(read.case, worst, err, read.tolerance)
    return ResidualReport(suite, mode, tuple(sorted(cases.values(), key=lambda c: c.is_probe)))


def qprop_identity_residual(cmap: ConformalMap, d: Derivatives, operator=None):
    """Oscillator operator identity on an energy eigenfield:

        -sum_i d_zstar_i d_z_i + 3 Omega/(hbar c) = -laplacian + (Omega/(hbar c))^2 x^2

    with Omega/(hbar c) = 2/b^2 for the lambda = 2, a = 0 map, as an
    operator: (|lhs - rhs|, error estimate, |rhs|) at every point, the
    scale floored at 1e-30.  ``cmap`` may hold one energy per point, each
    its field's.  ``operator`` replaces dzstar_dz on the left; the
    reversed-order probe passes dz_dzstar.
    """
    omega_hc = 2.0 / (cmap.b * cmap.b)
    f = d.value
    ddz, e1 = (operator or dzstar_dz)(cmap, d)
    lap, e2 = _laplacian(d)
    lhs = -ddz + 3.0 * omega_hc * f
    rhs = -lap + omega_hc**2 * dual.powr(d.points.radii, 2) * f
    return dual.modulus(lhs - rhs), e1 + e2, np.maximum(dual.modulus(rhs), 1e-30)


def d2z_identity_residual(cmap: ConformalMap, d: Derivatives):
    """Coulomb operator identity on an energy eigenfield (lambda = 1 map):

        sum_i d_zstar_i d_z_i = laplacian + a(1-a)/r^2 + 2(1-a)/(b r) - 1/b^2

    as an operator: (|lhs - rhs|, error estimate, |rhs|) at every point,
    the scale floored at 1e-30.
    """
    a, b = cmap.a, cmap.b
    ddz, e1 = dzstar_dz(cmap, d)
    lap, e2 = _laplacian(d)
    r = d.points.radii
    coef = a * (1.0 - a) / (r * r) + 2.0 * (1.0 - a) / (b * r) - 1.0 / (b * b)
    rhs = lap + coef * d.value
    return dual.modulus(ddz - rhs), e1 + e2, np.maximum(dual.modulus(rhs), 1e-30)


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
    return dual.modulus(np.concatenate(values)), np.concatenate(errs), 1.0


def _dz_ds(d: Derivatives):
    return dual.modulus(d.grad[T_AXIS]), d.grad_err[T_AXIS], 1.0


def independence_check(cmap: ConformalMap, points, length_scale: float, tolerance: float, prefix: str):
    """Samples verifying ds/dz_i = 0 and dz_i/ds = 0 on the given points.

    ds/dz_i applies the d_z operator to the field s(x, t); dz_i/ds
    applies d/ds = d/dt to the coordinate fields z_i(x, t) = x_i.  Each
    case reports the error estimate of its own derivative.  Case names
    carry ``prefix``.
    """
    pts = as_points(points)
    yield Sample(time_field(cmap), pts, (Read(prefix + "ds/dz", partial(ds_dz, cmap), tolerance),), length_scale)
    for i in range(3):
        z_field = ComplexField(fn=lambda x1, x2, x3, t, _i=i: (x1, x2, x3)[_i], label=f"z{i + 1}")
        yield Sample(z_field, pts, (Read(prefix + "dz/ds", _dz_ds, tolerance),), length_scale)


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
    points = [
        SpaceTimePoint(x=(t_lo + (t_hi - t_lo) * i / 6, tau_lo + (tau_hi - tau_lo) * j / 6, 0.0), t=0.0)
        for i in range(7)
        for j in range(7)
    ]

    def laplace(d):
        max_f = float(dual.modulus(d.value).max())
        scale = max_f if max_f > 0.0 else 1.0
        return dual.modulus(d.hess[0] + d.hess[1]), d.hess_err[0] + d.hess_err[1], scale

    return Sample(wrapped, points, (Read(name, laplace, tolerance),))
