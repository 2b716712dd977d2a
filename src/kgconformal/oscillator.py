"""Relativistic harmonic oscillator sector.

Spectrum, eigenfunctions in both coordinate systems, Klein-Gordon
residuals in both representations, ladder operators and the
number-operator identity.

Convention note: the Hermite argument is scaled as xi_j = x_j
sqrt(Omega/(hbar c)), the unique choice dimensionally consistent with
the ladder scale sqrt(hbar c / 2 Omega) and b = sqrt(2 hbar c / Omega);
the Klein-Gordon residual oracle confirms it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dual
from .core import ComplexField, ConfigError, QuantumNumberError, UnitSystem, natural_units, residual_scale
from .confmap import ConformalMap, _laplacian, d_z, d_zstar, dzstar_dz
from .diffengine import Derivatives, T_AXIS
from .specfun import hermite


@dataclass(frozen=True)
class OscillatorModel:
    """Spring constant Omega (the positive constant multiplying x^2 in the
    potential term Omega^2 x^2) plus the unit convention."""

    omega: float
    units: UnitSystem = None

    def __post_init__(self):
        if self.omega < 0:
            raise ConfigError("omega must be non-negative")
        if self.units is None:
            object.__setattr__(self, "units", natural_units())

    @property
    def xi_scale(self) -> float:
        """Hermite argument scale sqrt(Omega / (hbar c))."""
        return math.sqrt(self.omega / (self.units.hbar * self.units.c))

    @property
    def b(self) -> float:
        """Map scale length sqrt(2 hbar c / Omega)."""
        if self.omega == 0.0:
            return math.inf
        return math.sqrt(2.0 * self.units.hbar * self.units.c / self.omega)


@dataclass(frozen=True)
class OscillatorState:
    l1: int
    l2: int
    l3: int
    energy: float

    @property
    def n(self) -> int:
        return self.l1 + self.l2 + self.l3

    @property
    def ls(self) -> tuple[int, int, int]:
        return (self.l1, self.l2, self.l3)


def energy(model: OscillatorModel, n: int) -> float:
    """E_n = sqrt(2 hbar c Omega (3/2 + n) + m0^2 c^4), strictly increasing."""
    if n < 0:
        raise QuantumNumberError("n must be non-negative")
    u = model.units
    return math.sqrt(2.0 * u.hbar * u.c * model.omega * (1.5 + n) + u.rest_energy**2)


def make_state(model: OscillatorModel, l1: int, l2: int, l3: int) -> OscillatorState:
    if min(l1, l2, l3) < 0:
        raise QuantumNumberError("quantum numbers l_j must be non-negative")
    return OscillatorState(l1, l2, l3, energy(model, l1 + l2 + l3))


def states_with_n(model: OscillatorModel, n: int):
    """All component splits (l1, l2, l3) with l1 + l2 + l3 = n."""
    for l1 in range(n + 1):
        for l2 in range(n - l1 + 1):
            yield make_state(model, l1, l2, n - l1 - l2)


def oscillator_map(model: OscillatorModel, E: float) -> ConformalMap:
    """The lambda = 2, a = 0 map with b = sqrt(2 hbar c / Omega)."""
    if model.omega == 0.0:
        return ConformalMap.identity(E=E, units=model.units)
    return ConformalMap(a=0.0, b=model.b, lam=2.0, E=E, units=model.units)


def eigenfunction_x(model: OscillatorModel, state: OscillatorState) -> ComplexField:
    """psi(x, t) = prod_j H_l(xi_j) exp(-xi_j^2/2) * exp(-i E_n t / hbar), unnormalised."""
    scale = model.xi_scale
    hbar = model.units.hbar
    E = state.energy
    ls = state.ls

    def fn(x1, x2, x3, t):
        out = dual.exp(-1j * E * t / hbar)
        for l, xj in zip(ls, (x1, x2, x3)):
            xi = scale * xj
            out = out * (hermite(l, xi) * dual.exp(-0.5 * (xi * xi)))
        return out

    return ComplexField(fn=fn, label=f"osc-x{state.ls}", energy_hint=E)


def eigenfunction_z(model: OscillatorModel, state: OscillatorState) -> ComplexField:
    """theta(z) exp(-i E_n s / hbar), evaluated through s(x, t).

    theta carries no gaussian factor; composing exp(-i E s / hbar) with
    the map regenerates it, so this field equals eigenfunction_x
    pointwise as a function of (x, t).
    """
    cmap = oscillator_map(model, state.energy)
    scale = model.xi_scale
    hbar = model.units.hbar
    E = state.energy
    ls = state.ls

    def fn(x1, x2, x3, t):
        r = dual.norm3(x1, x2, x3)
        s = t + 1j * cmap.tau(r)
        out = dual.exp(-1j * E * s / hbar)
        for l, xj in zip(ls, (x1, x2, x3)):
            out = out * hermite(l, scale * xj)
        return out

    return ComplexField(fn=fn, label=f"osc-z{state.ls}", energy_hint=E)


def kg_residual_x(model: OscillatorModel, E: float, d: Derivatives):
    """Operator of the x-representation Klein-Gordon equation at energy E:

    | -hbar^2 c^2 laplacian(psi) + m0^2 c^4 psi + Omega^2 r^2 psi - E^2 psi |
    with scale E^2 max|psi| over the grid.
    """
    u = model.units
    psi = d.value
    hc2 = (u.hbar * u.c) ** 2
    scale = residual_scale(E * E * dual.modulus(psi).max())
    lap, e_sum = _laplacian(d)
    r2 = np.array([r**2 for r in d.points.radii])
    res = -hc2 * lap + u.rest_energy**2 * psi + model.omega**2 * r2 * psi - E * E * psi
    return dual.modulus(res), hc2 * e_sum, scale


def kg_residual_z(model: OscillatorModel, E: float, d: Derivatives):
    """Operator of the z-representation equation at energy E.

    The transformed equation reads
    -hbar^2 c^2 sum_i d_zstar_i d_z_i psi + m0^2 c^4 psi = (E^2 - 3 hbar c Omega) psi
    and carries no potential term; the map is the one of energy E and the
    scale is E^2 max|psi|.
    """
    u = model.units
    cmap = oscillator_map(model, E)
    psi = d.value
    hc2 = (u.hbar * u.c) ** 2
    eig = E * E - 3.0 * u.hbar * u.c * model.omega
    scale = residual_scale(E * E * dual.modulus(psi).max())
    ddz, e = dzstar_dz(cmap, d)
    res = -hc2 * ddz + u.rest_energy**2 * psi - eig * psi
    return dual.modulus(res), hc2 * e, scale


def energy_operator_residual(model: OscillatorModel, E: float, d: Derivatives):
    """Operator of E psi = i hbar d psi / ds, checked through d/ds = d/dt;
    scale E^2 max|psi| as for kg_residual_z."""
    u = model.units
    psi = d.value
    scale = residual_scale(E * E * dual.modulus(psi).max())
    eop = dual.mul(1j * u.hbar, d.grad[T_AXIS]) - E * psi
    return dual.modulus(eop), u.hbar * d.grad_err[T_AXIS], scale


def _map_for(model: OscillatorModel, d: Derivatives) -> ConformalMap:
    if d.field.energy_hint is None:
        raise ConfigError("ladder operators need the field's energy hint")
    return oscillator_map(model, d.field.energy_hint)


def ladder_apply(model: OscillatorModel, which, d: Derivatives):
    """Apply a single lowering or raising operator component on the grid,
    as (value, error estimate).

    ``which`` is ("lower", i) or ("raise", i) with i in {0, 1, 2}:
    a_i = sqrt(hbar c / 2 Omega) d_z_i, a_i^dag = -sqrt(hbar c / 2 Omega) d_zstar_i.
    The map energy comes from the field's energy hint.
    """
    kind, axis = which
    if kind not in ("lower", "raise") or axis not in (0, 1, 2):
        raise ConfigError(f"bad ladder selector: {which!r}")
    cmap = _map_for(model, d)
    u = model.units
    coef = math.sqrt(u.hbar * u.c / (2.0 * model.omega))
    if kind == "lower":
        value, err = d_z(cmap, d, axis=axis)
        return coef * value, coef * err
    value, err = d_zstar(cmap, d, axis=axis)
    return -coef * value, coef * err


def number_operator_apply(model: OscillatorModel, d: Derivatives):
    """sum_i a_i^dag a_i psi = -(hbar c / 2 Omega) sum_i d_zstar_i d_z_i psi."""
    cmap = _map_for(model, d)
    value, err = dzstar_dz(cmap, d)
    u = model.units
    coef = u.hbar * u.c / (2.0 * model.omega)
    return -coef * value, coef * err
