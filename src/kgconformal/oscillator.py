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
from .core import ComplexField, ConfigError, QuantumNumberError, UnitSystem, natural_units
from .confmap import ConformalMap, _laplacian, d_z, d_zstar, dzstar_dz, kg_residual, zform_residual
from .diffengine import Derivatives, T_AXIS
from .specfun import HermiteLadder, hermite


@dataclass(frozen=True)
class OscillatorModel:
    """Spring constant Omega (the positive constant multiplying x^2 in the
    potential term Omega^2 x^2) plus the unit convention."""

    omega: float
    units: UnitSystem = None

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega >= 0.0):
            raise ConfigError(f"omega must be non-negative and finite, not {self.omega!r}")
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
    """The lambda = 2, a = 0 map with b = sqrt(2 hbar c / Omega); E may be
    one energy per point (see ConformalMap)."""
    if model.omega == 0.0:
        return ConformalMap.identity(E=E, units=model.units)
    return ConformalMap(a=0.0, b=model.b, lam=2.0, E=E, units=model.units)


def _tiles(states) -> tuple:
    """The states of a field's tiles (see core.PointSet), one state or a
    sequence of them, and their one energy."""
    states = (states,) if isinstance(states, OscillatorState) else tuple(states)
    if len({state.energy for state in states}) != 1 or len(set(states)) < len(states):
        raise ConfigError("the tiles of one oscillator field must be distinct states of one level")
    return states, states[0].energy


def _label(prefix: str, states) -> str:
    return prefix + (f"{states[0].ls}" if len(states) == 1 else f"{states[0].ls}..{states[-1].ls}")


def _tiled_product(phase, factors, states, x1, x2, x3):
    """phase * f_1 * f_2 * f_3 in that order, each tile with its own state's
    one-axis factors; ``factors(ls, x_axis)`` maps each distinct
    degree to its factor.  The one phase is broadcast over the tiles, and a
    product array that holds every tile takes the next factor in place."""
    out = dual.reshape_points(phase, (1, -1))
    for axis, xj in enumerate((x1, x2, x3)):
        ls = [state.ls[axis] for state in states]
        made = factors(set(ls), xj)
        factor = dual.reshape_points(dual.join_tiles([made[l] for l in ls]), (len(states), -1))
        if axis and isinstance(out, np.ndarray) and out.shape[-2] == len(states):
            out *= factor
        else:
            out = out * factor
    return dual.reshape_points(out, (-1,), axes=2)


def _ladder(scale, xj):
    """The Hermite ladder of xi_j = scale x_j: kept with the grid's arguments
    (see dual.cached), or shared by the degrees of one field call."""
    return dual.cached((xj,), ("hermite", scale), lambda: HermiteLadder(scale * xj))


def eigenfunction_x(model: OscillatorModel, states) -> ComplexField:
    """psi(x, t) = prod_j H_l(xi_j) exp(-xi_j^2/2) * exp(-i E_n t / hbar), unnormalised.

    ``states`` is one state, or the states of one level, one per tile.
    """
    states, E = _tiles(states)
    scale = model.xi_scale
    hbar = model.units.hbar

    def factors(ls, xj):
        ladder = _ladder(scale, xj)
        gauss = dual.cached((xj,), ("gauss", scale), lambda: dual.exp(-0.5 * (ladder.xi * ladder.xi)))
        return {l: dual.cached((xj,), ("x-factor", scale, l), lambda: hermite(l, ladder) * gauss) for l in ls}

    def fn(x1, x2, x3, t):
        phase = dual.cached((t,), ("phase", E, hbar), lambda: dual.exp(-1j * E * t / hbar))
        return _tiled_product(phase, factors, states, x1, x2, x3)

    return ComplexField(fn=fn, label=_label("osc-x", states))


def eigenfunction_z(model: OscillatorModel, states) -> ComplexField:
    """theta(z) exp(-i E_n s / hbar), evaluated through s(x, t).

    theta carries no gaussian factor; composing exp(-i E s / hbar) with
    the map regenerates it, so this field equals eigenfunction_x
    pointwise as a function of (x, t).  ``states`` is one state, or the
    states of one level, one per tile.
    """
    states, E = _tiles(states)
    cmap = oscillator_map(model, E)
    scale = model.xi_scale
    hbar = model.units.hbar

    def phase(x1, x2, x3, t):
        s = t + 1j * cmap.tau(dual.norm3(x1, x2, x3))
        return dual.exp(-1j * E * s / hbar)

    def factors(ls, xj):
        ladder = _ladder(scale, xj)
        return {l: dual.cached((xj,), ("z-factor", scale, l), lambda: hermite(l, ladder)) for l in ls}

    def fn(x1, x2, x3, t):
        out = dual.cached((x1, x2, x3, t), ("z-phase", E, hbar, cmap), lambda: phase(x1, x2, x3, t))
        return _tiled_product(out, factors, states, x1, x2, x3)

    return ComplexField(fn=fn, label=_label("osc-z", states))


def kg_residual_x(model: OscillatorModel, E: float, d: Derivatives):
    """Operator of the x-representation Klein-Gordon equation at energy E:

    | -hbar^2 c^2 laplacian(psi) + m0^2 c^4 psi + (Omega r)^2 psi - E^2 psi |
    (confmap.kg_residual) with scale E^2 max|psi| over each tile of the grid.
    (Omega r)^2 is one square, finite on the grids of r ~ Omega^(-1/2) at
    any Omega; Omega^2 alone overflows past Omega ~ 1.3e154.
    """
    potential = (d.points.radial(lambda r: dual.powr(model.omega * r, 2)), -(E * E))
    return kg_residual(model.units, _laplacian(d), potential, d.scale(E * E), d)


def kg_residual_z(model: OscillatorModel, E: float, d: Derivatives):
    """confmap.zform_residual under the map of energy E, eigenvalue
    E^2 - 3 hbar c Omega and scale E^2 max|psi| over each tile."""
    u = model.units
    eig = E * E - 3.0 * u.hbar * u.c * model.omega
    return zform_residual(oscillator_map(model, E), eig, d.scale(E * E), d)


def energy_operator_residual(model: OscillatorModel, E: float, d: Derivatives):
    """Operator of E psi = i hbar d psi / ds, checked through d/ds = d/dt;
    scale E^2 max|psi| over each tile, as for kg_residual_z."""
    u = model.units
    scale = d.scale(E * E)
    eop = dual.mul(1j * u.hbar, d.grad[T_AXIS]) - E * d.value
    return dual.modulus(eop), u.hbar * d.grad_err[T_AXIS], scale


def ladder_apply(model: OscillatorModel, which, E: float, d: Derivatives):
    """Apply a single lowering or raising operator component on the grid,
    as (value, error estimate).

    ``which`` is ("lower", i) or ("raise", i) with i in {0, 1, 2}:
    a_i = sqrt(hbar c / 2 Omega) d_z_i, a_i^dag = -sqrt(hbar c / 2 Omega) d_zstar_i,
    under the map of energy E, the field's.
    """
    kind, axis = which
    if kind not in ("lower", "raise") or axis not in (0, 1, 2):
        raise ConfigError(f"bad ladder selector: {which!r}")
    coef = math.sqrt(model.units.hbar * model.units.c / (2.0 * model.omega))
    value, err = (d_z if kind == "lower" else d_zstar)(oscillator_map(model, E), d, axis=axis)
    return (coef if kind == "lower" else -coef) * value, coef * err


def number_operator_apply(model: OscillatorModel, E: float, d: Derivatives):
    """sum_i a_i^dag a_i psi = -(hbar c / 2 Omega) sum_i d_zstar_i d_z_i psi,
    under the map of energy E, the field's."""
    value, err = dzstar_dz(oscillator_map(model, E), d)
    coef = model.units.hbar * model.units.c / (2.0 * model.omega)
    return -coef * value, coef * err
