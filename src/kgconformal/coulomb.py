"""Klein-Gordon Coulomb sector.

Fine-structure exponent, Sommerfeld spectrum, radial scale, map
coefficients, radial eigenfunctions in both representations and their
residuals.

Transformed radial function: composing exp(-i E s / hbar) with the
lambda = 1 map contributes r^{-eta_0} exp(-r/b), so pointwise
consistency with the untransformed eigenfunction forces

    R(r_z) = N exp(+ (n - eta_l + eta_0)/(1 - eta_0) * r_z/r_nl)
               * r_z^{eta_0 - eta_l} * p_n(r_z / r_nl)

i.e. a growing exponential factor for excited states; the bookkeeping
identity (n+1-eta_l)/(1-eta_0) - (n-eta_l+eta_0)/(1-eta_0) = 1 then
reproduces exp(-r/r_nl) exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual
from .core import ComplexField, ConfigError, QuantumNumberError, UnitSystem, natural_units, residual_scale
from .confmap import ConformalMap, _laplacian, dzstar_dz
from .diffengine import Derivatives
from .specfun import (
    SOMMERFELD,
    eta_exponent,
    radial_polynomial,
    sph_harm_cartesian,
)


@dataclass(frozen=True)
class CoulombModel:
    """Dimensionless coupling alpha plus the unit convention.

    alpha must be positive; the alpha -> 0 limit is exercised through the
    closed-form operations only (the map scale b diverges).
    """

    alpha: float
    units: UnitSystem = None

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ConfigError("alpha must be positive (b diverges as alpha -> 0)")
        if self.units is None:
            object.__setattr__(self, "units", natural_units())


@dataclass(frozen=True)
class CoulombState:
    n: int
    l: int
    k: int
    branch: str
    eta: float
    energy: float
    r_scale: float  # r_nl

    @property
    def quantum_numbers(self):
        return (self.n, self.l, self.k)


def eta(model: CoulombModel, l: int, branch: str = SOMMERFELD) -> float:
    return eta_exponent(l, model.alpha, branch)


def make_state(model: CoulombModel, n: int, l: int, k: int = 0, branch: str = SOMMERFELD) -> CoulombState:
    if n < 0 or l < 0:
        raise QuantumNumberError("n and l must be non-negative")
    if abs(k) > l:
        raise QuantumNumberError(f"|k| = {abs(k)} exceeds l = {l}")
    eta_l = eta_exponent(l, model.alpha, branch)
    u = model.units
    nu = n + 1.0 - eta_l
    if nu <= 0.0:
        # the hydrino branch has eta_l near l + 1, so n < l leaves no positive radial scale
        raise QuantumNumberError(
            f"(n, l) = ({n}, {l}) has no state on the {branch} branch: nu = n + 1 - eta_l = {nu:.6g} <= 0"
        )
    e_nl = u.rest_energy / math.sqrt(1.0 + model.alpha**2 / nu**2)
    r_nl = u.hbar * u.c * nu / (model.alpha * e_nl)
    return CoulombState(n=n, l=l, k=k, branch=branch, eta=eta_l, energy=e_nl, r_scale=r_nl)


def nonrelativistic_binding(model: CoulombModel, n: int, l: int) -> float:
    """Leading-order binding -alpha^2 m0 c^2 / (2 N^2), N = n + l + 1."""
    big_n = n + l + 1
    return -model.alpha**2 * model.units.rest_energy / (2.0 * big_n**2)


def coulomb_map(model: CoulombModel, state: CoulombState) -> ConformalMap:
    """The lambda = 1 map with a = eta_0 and b = hbar c (1 - eta_0) / (alpha E_nl);
    a(1-a) = alpha^2."""
    eta0 = eta_exponent(0, model.alpha, state.branch)
    u = model.units
    b = u.hbar * u.c * (1.0 - eta0) / (model.alpha * state.energy)
    return ConformalMap(a=eta0, b=b, lam=1.0, E=state.energy, units=model.units)


def transformed_eigenvalue(model: CoulombModel, state: CoulombState, E: float) -> float:
    """E^2 [1 + alpha^2 / (1 - eta_0)^2], the z-form eigenvalue on ``state``'s
    branch; E is E_nl, or a perturbed energy for a probe."""
    eta0 = eta_exponent(0, model.alpha, state.branch)
    return E**2 * (1.0 + model.alpha**2 / (1.0 - eta0) ** 2)


def eigenfunction_x(model: CoulombModel, state: CoulombState) -> ComplexField:
    """psi = r^{-eta_l} exp(-r/r_nl) p_n(r/r_nl) Y_lk exp(-i E t / hbar)."""
    poly = radial_polynomial(state.n, state.l, model.alpha, state.branch)
    hbar = model.units.hbar
    E = state.energy
    r_nl = state.r_scale
    eta_l = state.eta
    l, k = state.l, state.k

    def fn(x1, x2, x3, t):
        r = dual.norm3(x1, x2, x3)
        rho = r / r_nl
        radial = dual.powr(r, -eta_l) * dual.exp(-rho) * poly(rho)
        return radial * sph_harm_cartesian(l, k, x1, x2, x3) * dual.exp(-1j * E * t / hbar)

    return ComplexField(
        fn=fn,
        label=f"coulomb-x({state.n},{state.l},{state.k})[{state.branch}]",
        energy_hint=E,
        singular_at_origin=True,
    )


def transformed_decay_rate(state: CoulombState, eta0: float) -> float:
    """(n - eta_l + eta_0) / (1 - eta_0); zero for the ground state."""
    return (state.n - state.eta + eta0) / (1.0 - eta0)


def eigenfunction_z(model: CoulombModel, state: CoulombState) -> ComplexField:
    """R(r_z) Y_lk exp(-i E s / hbar), evaluated through s(x, t)."""
    poly = radial_polynomial(state.n, state.l, model.alpha, state.branch)
    cmap = coulomb_map(model, state)
    eta0 = cmap.a
    c1 = transformed_decay_rate(state, eta0)
    hbar = model.units.hbar
    E = state.energy
    r_nl = state.r_scale
    power = eta0 - state.eta
    l, k = state.l, state.k

    def fn(x1, x2, x3, t):
        r = dual.norm3(x1, x2, x3)
        rho = r / r_nl
        s = t + 1j * cmap.tau(r)
        radial = dual.exp(c1 * rho) * dual.powr(r, power) * poly(rho)
        return radial * sph_harm_cartesian(l, k, x1, x2, x3) * dual.exp(-1j * E * s / hbar)

    return ComplexField(
        fn=fn,
        label=f"coulomb-z({state.n},{state.l},{state.k})[{state.branch}]",
        energy_hint=E,
        singular_at_origin=True,
    )


def kg_residual_x(model: CoulombModel, E: float, d: Derivatives):
    """Operator of -hbar^2 c^2 lap psi + m0^2 c^4 psi - (E + hbar c alpha / r)^2 psi,
    with scale E^2 max|psi| over the grid."""
    u = model.units
    psi = d.value
    hc = u.hbar * u.c
    scale = residual_scale(E * E * dual.modulus(psi).max())
    lap, e_sum = _laplacian(d)
    pot = np.array([E + hc * model.alpha / r for r in d.points.radii])
    res = -hc * hc * lap + u.rest_energy**2 * psi - pot * pot * psi
    return dual.modulus(res), hc * hc * e_sum, scale


def kg_residual_z(model: CoulombModel, state: CoulombState, E: float, d: Derivatives):
    """Operator of the transformed equation of ``state``'s map,
    -hbar^2 c^2 sum_i d_zstar_i d_z_i psi + m0^2 c^4 psi = E^2 [1 + alpha^2/(1-eta_0)^2] psi,
    with scale E_nl^2 max|psi| over the grid."""
    u = model.units
    cmap = coulomb_map(model, state)
    eig = transformed_eigenvalue(model, state, E)
    psi = d.value
    hc2 = (u.hbar * u.c) ** 2
    scale = residual_scale(state.energy**2 * dual.modulus(psi).max())
    ddz, e = dzstar_dz(cmap, d)
    res = -hc2 * ddz + u.rest_energy**2 * psi - eig * psi
    return dual.modulus(res), hc2 * e, scale


def ground_state_flatness(model: CoulombModel, state: CoulombState, d: Derivatives):
    """Operator of sum_i d2 psi / dz_i* dz_i = 0 for the ground state
    psi_000 = exp(-i E_0 s / hbar), scaled by max|psi| (E_0 / hbar c)^2."""
    cmap = coulomb_map(model, state)
    scale = residual_scale(dual.modulus(d.value).max() * (state.energy / (model.units.hbar * model.units.c)) ** 2)
    ddz, e = dzstar_dz(cmap, d)
    return dual.modulus(ddz), e, scale
