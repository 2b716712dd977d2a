"""Reference for the map and potential coefficients: one point at a time.

This is how the package computed the coefficients of its residual
operators before it computed them as arrays over a grid: every
coefficient in scalar CPython arithmetic at one point, the point's map
taken at that point's energy, and the results collected with
``np.array``.  The operators below are the package's operators as they
ran on those per-point coefficients.  The tests require the package to
give the same numbers, compared with ``==``.

Squares are products and square roots ``math.sqrt``, both correctly
rounded; every other power is CPython's ``**``, libm's pow.
"""

import math

import numpy as np

from kgconformal import dual
from kgconformal.diffengine import T_AXIS


def _pow_lam(w, lam):
    if lam == 2:
        return w * w
    if lam == 0.5:
        return math.sqrt(w)
    return w**lam


def _power(cmap, r):
    return _pow_lam(r / cmap.b, cmap.lam) if not np.isinf(cmap.b) else 0.0


def time_coupling(cmap, E, x, r):
    """A_i = (x_i/r^2)[a + lam (r/b)^lam](hbar/E) at one point."""
    if cmap.is_identity:
        return (0.0, 0.0, 0.0)
    g = (cmap.a + cmap.lam * _power(cmap, r)) / (r * r) * (cmap.units.hbar / E)
    return tuple(xi * g for xi in x)


def time_coupling_divergence(cmap, E, r):
    if cmap.is_identity:
        return 0.0
    return (cmap.units.hbar / E) * (cmap.a + cmap.lam * (cmap.lam + 1.0) * _power(cmap, r)) / (r * r)


def time_coupling_sq_sum(cmap, E, r):
    if cmap.is_identity:
        return 0.0
    base = (cmap.units.hbar / E) * (cmap.a + cmap.lam * _power(cmap, r))
    return base * base / (r * r)


def _r(x):
    x1, x2, x3 = x
    return math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)


def forward(cmap, row):
    """s at one (x1, x2, x3, t) row: t - i (hbar/E) [a ln r + (r/b)^lam]."""
    if cmap.is_identity:
        return complex(row[3])
    return row[3] - 1j * (cmap.units.hbar / cmap.E) * cmap.bracket(_r(row[:3]))


def inverse(cmap, row, s):
    """t at one row from its s: s + i (hbar/E) [a ln r_z + (r_z/b)^lam]."""
    return (s + 1j * (cmap.units.hbar / cmap.E) * cmap.bracket(_r(row[:3]))).real


def energies(cmap, n):
    """The map's energy at each of n points, as Python floats."""
    return np.broadcast_to(cmap.E, n).tolist()


def per_point(coefficient, cmap, pts):
    """``coefficient(cmap, E, r)`` at every point of ``pts``."""
    return np.array([coefficient(cmap, e, r) for e, r in zip(energies(cmap, len(pts)), pts.radii.tolist())])


def _laplacian(d):
    return d.hess[0] + d.hess[1] + d.hess[2], d.hess_err[0] + d.hess_err[1] + d.hess_err[2]


def first_order(cmap, d, axis, sign):
    pts = d.points
    xs = zip(*(c.tolist() for c in pts.coords[:3]))
    a_coef = [time_coupling(cmap, e, x, r) for e, x, r in zip(energies(cmap, len(pts)), xs, pts.radii.tolist())]
    coef = np.array([sign * 1j * a[axis] for a in a_coef])
    err = np.abs(np.array([a[axis] for a in a_coef])) * d.grad_err[T_AXIS] + d.grad_err[axis]
    return d.grad[axis] + dual.mul(coef, d.grad[T_AXIS]), err


def dzstar_dz(cmap, d):
    lap, err = _laplacian(d)
    dt, dtt = d.grad[T_AXIS], d.hess[T_AXIS]
    div_a = per_point(time_coupling_divergence, cmap, d.points)
    sq = per_point(time_coupling_sq_sum, cmap, d.points)
    value = lap + dual.mul(1j * div_a, dt) + sq * dtt
    err = err + np.abs(div_a) * d.grad_err[T_AXIS] + np.abs(sq) * d.hess_err[T_AXIS]
    return value, err


def dz_dzstar(cmap, d):
    value, err = dzstar_dz(cmap, d)
    div_a = per_point(time_coupling_divergence, cmap, d.points)
    return value - dual.mul(2j * div_a, d.grad[T_AXIS]), err


def qprop_identity_residual(cmap, d, operator=dzstar_dz):
    omega_hc = [2.0 / (cmap.b * cmap.b)] * len(d.points)
    f = d.value
    ddz, e1 = operator(cmap, d)
    lap, e2 = _laplacian(d)
    lhs = -ddz + 3.0 * np.array(omega_hc) * f
    rhs = -lap + np.array([w**2 * (r * r) for w, r in zip(omega_hc, d.points.radii.tolist())]) * f
    return dual.modulus(lhs - rhs), e1 + e2, np.maximum(dual.modulus(rhs), 1e-30)


def d2z_identity_residual(cmap, d):
    a, b = cmap.a, cmap.b
    ddz, e1 = dzstar_dz(cmap, d)
    lap, e2 = _laplacian(d)
    coef = np.array([a * (1.0 - a) / (r * r) + 2.0 * (1.0 - a) / (b * r) - 1.0 / (b * b) for r in d.points.radii.tolist()])
    rhs = lap + coef * d.value
    return dual.modulus(ddz - rhs), e1 + e2, np.maximum(dual.modulus(rhs), 1e-30)


def coulomb_potential(model, E, pts):
    """E + hbar c alpha / r at every point, as coulomb.kg_residual_x takes it."""
    hc = model.units.hbar * model.units.c
    return np.array([E + hc * model.alpha / r for r in pts.radii.tolist()])


def oscillator_kg_residual_x(model, E, d):
    u = model.units
    psi = d.value
    hc2 = (u.hbar * u.c) ** 2
    lap, e_sum = _laplacian(d)
    potential = np.array([(model.omega * r) * (model.omega * r) for r in d.points.radii.tolist()])
    res = -hc2 * lap + u.rest_energy**2 * psi + potential * psi - E * E * psi
    return dual.modulus(res), hc2 * e_sum, E * E * dual.modulus(psi).max()


def coulomb_kg_residual_x(model, E, d):
    u = model.units
    psi = d.value
    hc = u.hbar * u.c
    lap, e_sum = _laplacian(d)
    pot = coulomb_potential(model, E, d.points)
    res = -hc * hc * lap + u.rest_energy**2 * psi - pot * pot * psi
    return dual.modulus(res), hc * hc * e_sum, E * E * dual.modulus(psi).max()
