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

from . import dual
from .core import ComplexField, ConfigError, QuantumNumberError, UnitSystem, natural_units
from .confmap import ConformalMap, _laplacian, dzstar_dz, kg_residual, zform_residual
from .diffengine import Derivatives
from .specfun import (
    SOMMERFELD,
    eta_exponent,
    radial_polynomial,
    sph_harm_cartesian,
)

#: the fine-structure constant: alpha when none is given
FINE_STRUCTURE = 0.0072973525693


@dataclass(frozen=True)
class CoulombModel:
    """Dimensionless coupling alpha plus the unit convention.

    alpha must be positive and finite; the alpha -> 0 limit is exercised through the
    closed-form operations only (the map scale b diverges).
    """

    alpha: float
    units: UnitSystem = None

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ConfigError(f"alpha must be positive and finite (b diverges as alpha -> 0), not {self.alpha!r}")
        if self.units is None:
            object.__setattr__(self, "units", natural_units())
        if self.units.rest_energy == 0.0:
            # E_nl scales with m0 c^2, and r_nl = hbar c nu / (alpha E_nl) has no massless limit
            raise ConfigError(f"the coulomb system needs a rest energy m0 c^2 > 0, not {self.units.rest_energy!r}")


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


def _eigenfunction(model: CoulombModel, state: CoulombState, form: str, rate: float, power: float, cmap=None):
    """exp(rate rho - i E s / hbar) r^power p_n(rho) Y_lk, rho = r / r_nl,
    with s = t, or with s(x, t) of ``cmap``.  One exp: on the hydrino branch
    exp(rate rho) alone overflows where exp(-i E s / hbar) cancels it."""
    poly = radial_polynomial(state.n, state.l, model.alpha, state.branch)
    hbar, E, r_nl, l, k = model.units.hbar, state.energy, state.r_scale, state.l, state.k

    def fn(x1, x2, x3, t):
        r = dual.norm3(x1, x2, x3)
        rho = r / r_nl
        s = t if cmap is None else t + 1j * cmap.tau(r)
        exponential = dual.exp(rate * rho - 1j * E * s / hbar)
        return exponential * dual.powr(r, power) * poly(rho) * sph_harm_cartesian(l, k, x1, x2, x3)

    label = f"coulomb-{form}({state.n},{state.l},{state.k})[{state.branch}]"
    return ComplexField(fn=fn, label=label, singular_at_origin=True)


def eigenfunction_x(model: CoulombModel, state: CoulombState) -> ComplexField:
    """psi = r^{-eta_l} exp(-r/r_nl) p_n(r/r_nl) Y_lk exp(-i E t / hbar)."""
    return _eigenfunction(model, state, "x", -1.0, -state.eta)


def transformed_decay_rate(state: CoulombState, eta0: float) -> float:
    """(n - eta_l + eta_0) / (1 - eta_0); zero for the ground state."""
    return (state.n - state.eta + eta0) / (1.0 - eta0)


def eigenfunction_z(model: CoulombModel, state: CoulombState) -> ComplexField:
    """R(r_z) Y_lk exp(-i E s / hbar), evaluated through s(x, t)."""
    cmap = coulomb_map(model, state)  # a = eta_0
    return _eigenfunction(model, state, "z", transformed_decay_rate(state, cmap.a), cmap.a - state.eta, cmap)


def kg_residual_x(model: CoulombModel, E: float, d: Derivatives):
    """Operator of -hbar^2 c^2 lap psi + m0^2 c^4 psi - (E + hbar c alpha / r)^2 psi
    (confmap.kg_residual), with scale E^2 max|psi| over each tile of the grid."""
    pot = E + model.units.hbar * model.units.c * model.alpha / d.points.radii
    return kg_residual(model.units, _laplacian(d), (-(pot * pot),), d.scale(E * E), d)


def kg_residual_z(model: CoulombModel, state: CoulombState, E: float, d: Derivatives):
    """confmap.zform_residual under ``state``'s map, eigenvalue E^2 [1 + alpha^2/(1-eta_0)^2]
    and scale E_nl^2 max|psi| over each tile."""
    cmap = coulomb_map(model, state)
    eig = transformed_eigenvalue(model, state, E)
    return zform_residual(cmap, eig, d.scale(state.energy**2), d)


def ground_state_flatness(model: CoulombModel, state: CoulombState, d: Derivatives):
    """Operator of sum_i d2 psi / dz_i* dz_i = 0 for the ground state
    psi_000 = exp(-i E_0 s / hbar), scaled by max|psi| (E_0 / hbar c)^2
    over each tile."""
    cmap = coulomb_map(model, state)
    scale = d.scale((state.energy / (model.units.hbar * model.units.c)) ** 2)
    ddz, e = dzstar_dz(cmap, d)
    return dual.modulus(ddz), e, scale
