"""Shared domain types, unit conventions and elementary geometry.

Everything here is an immutable value; all operations are pure and safe
for unrestricted concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np


class KgcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KgcError):
    """Evaluation requested at (or across) a singular locus, e.g. r = 0."""


class NonFiniteError(KgcError):
    """A field value or derivative on the grid was NaN or infinite."""


class QuantumNumberError(KgcError):
    """Invalid quantum-number combination (e.g. |k| > l)."""


class BranchError(KgcError):
    """The fine-structure exponent radicand is negative for this (l, alpha)."""


class NoTerminationError(KgcError):
    """The radial series recurrence failed to terminate at the quantized energy."""


class ConfigError(KgcError):
    """Invalid configuration (unknown suite, bad parameter, ...)."""


@dataclass(frozen=True)
class UnitSystem:
    """Values of hbar, c and the rest mass m0 fixing the unit convention.

    m0 may be zero (massless edge case); hbar and c must be positive.
    """

    hbar: float = 1.0
    c: float = 1.0
    m0: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.c <= 0:
            raise ConfigError("hbar and c must be strictly positive")
        if self.m0 < 0:
            raise ConfigError("m0 must be non-negative")

    @property
    def rest_energy(self) -> float:
        return self.m0 * self.c**2


def natural_units() -> UnitSystem:
    """hbar = c = m0 = 1."""
    return UnitSystem(1.0, 1.0, 1.0)


@dataclass(frozen=True)
class SpaceTimePoint:
    x: tuple[float, float, float]
    t: float = 0.0

    @property
    def r(self) -> float:
        return radial_norm(self.x)


@dataclass(frozen=True)
class ComplexPoint:
    """Image of a SpaceTimePoint: z_i = x_i (real), complex time s."""

    z: tuple[float, float, float]
    s: complex

    @property
    def r(self) -> float:
        return radial_norm(self.z)


def radial_norm(x) -> float:
    """Euclidean norm of a 3-vector, r = sqrt(x1^2 + x2^2 + x3^2)."""
    x1, x2, x3 = x
    return (x1 * x1 + x2 * x2 + x3 * x3) ** 0.5


class PointSet(tuple):
    """A tuple of SpaceTimePoints that also holds them as arrays.

    ``coords`` is (x1, x2, x3, t), one float array each.  ``radii`` lists
    every point's ``r`` as SpaceTimePoint.r rounds it, so per-point
    geometry computed from it matches a loop over the points bit for bit.
    """

    def __new__(cls, points):
        self = super().__new__(cls, points)
        if not self:
            raise ConfigError("a point set needs at least one point")
        self.coords = tuple(np.array(c, dtype=float) for c in zip(*((p.x[0], p.x[1], p.x[2], p.t) for p in self)))
        self.radii = [p.r for p in self]
        return self


def as_points(points) -> PointSet:
    """``points`` as a PointSet; a PointSet is returned unchanged."""
    return points if isinstance(points, PointSet) else PointSet(points)


def residual_scale(value: float) -> float:
    """Check a residual's normaliser: zero or non-finite leaves nothing to certify."""
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"residual scale is {float(value)!r}: the field vanishes or overflows on the grid")
    return value


@dataclass(frozen=True)
class ComplexField:
    """A deterministic scalar complex-valued function of (x1, x2, x3, t).

    The callable must be generic over its argument type: it is evaluated
    with float arrays in stencil mode, with diagonal jets over a grid in
    exact-forward mode, and with plain floats by ``at``.  ``energy_hint``
    carries the energy eigenvalue for fields with exp(-i E t / hbar) time
    dependence, which several operator reductions rely on; a family of
    fields evaluated on their concatenated points carries one energy per
    point.  ``singular_at_origin`` declares an r = 0 singular locus that
    finite-difference stencils must not cross.
    """

    fn: Callable
    label: str = ""
    energy_hint: Optional[Union[float, np.ndarray]] = None
    singular_at_origin: bool = False

    def __call__(self, x1, x2, x3, t):
        return self.fn(x1, x2, x3, t)

    def at(self, p: SpaceTimePoint):
        return self.fn(p.x[0], p.x[1], p.x[2], p.t)
