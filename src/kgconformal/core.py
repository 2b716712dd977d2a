"""Shared domain types, unit conventions and elementary geometry.

A grid is a PointSet, its four coordinate arrays (x1, x2, x3, t), and its
seed jets and stencil table live on it once made.  A grid may be tiles of
a base grid, for fields that give several values (one per tile) at each
base point.  Everything else here is an immutable value, and all
operations are pure.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import dual


class KgcError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(KgcError):
    """Evaluation requested at (or across) a singular locus, e.g. r = 0."""


class NonFiniteError(DomainError):
    """A field value or derivative on the grid was NaN or infinite."""


class ConfigError(KgcError):
    """Invalid configuration (unknown suite, bad parameter, ...)."""


class QuantumNumberError(ConfigError):
    """Invalid quantum-number combination (e.g. |k| > l)."""


class BranchError(ConfigError):
    """The fine-structure exponent radicand is negative for this (l, alpha)."""


class NoTerminationError(DomainError):
    """The radial series recurrence failed to terminate at the quantized energy."""


@dataclass(frozen=True)
class UnitSystem:
    """Values of hbar, c and the rest mass m0 fixing the unit convention.

    m0 may be zero (massless edge case); hbar and c must be positive, and
    hbar c and m0 c^2 finite.
    """

    hbar: float = 1.0
    c: float = 1.0
    m0: float = 1.0

    def __post_init__(self):
        if self.hbar <= 0 or self.c <= 0:
            raise ConfigError("hbar and c must be strictly positive")
        if self.m0 < 0:
            raise ConfigError("m0 must be non-negative")
        if not (math.isfinite(self.hbar * self.c) and math.isfinite(self.m0 * (self.c * self.c))):
            raise ConfigError(f"units hbar = {self.hbar!r}, c = {self.c!r}, m0 = {self.m0!r}: hbar c or m0 c^2 is not finite")

    @property
    def rest_energy(self) -> float:
        return self.m0 * self.c**2


def natural_units() -> UnitSystem:
    """hbar = c = m0 = 1."""
    return UnitSystem(1.0, 1.0, 1.0)


class PointSet:
    """A grid of n points as its four coordinate arrays.

    ``coords`` is (x1, x2, x3, t), one float array each.  ``radii`` holds
    every point's r = sqrt(x1 x1 + x2 x2 + x3 x3), correctly rounded as
    ``math.sqrt`` takes it at each point, and equal to the r that the
    grid's seed jets compute (``dual.norm3``) bit for bit.  ``jets`` is
    None until an exact-forward pass makes the grid's seed jets, and
    ``table`` until a stencil pass makes its shifted coordinate table (see
    diffengine); every field on the grid then shares them and their memo.

    A grid made by ``tiled`` is ``tiles`` copies of its ``base`` grid, one
    after another: its coordinates and radii are the base's, tiled.  Its
    fields are evaluated on the base's points (and jets) and give one value
    per tile at each, tile-major.  Any other grid is its own base, of one
    tile.  A tiled grid builds its coordinates and radii on first read.
    """

    def __init__(self, x1, x2, x3, t):
        self.coords = tuple(np.array(c, dtype=float) for c in (x1, x2, x3, t))
        if len({c.shape for c in self.coords}) != 1 or self.coords[0].ndim != 1 or not len(self.coords[0]):
            raise ConfigError("a point set needs at least one point, as four 1-d arrays of one length")
        x1, x2, x3, _ = self.coords
        self.radii = dual.norm3(x1, x2, x3)  # the value of the seed jets' r, bit for bit
        self.jets = self.table = None
        self._base, self.tiles = None, 1

    def tiled(self, tiles: int) -> "PointSet":
        """``tiles`` copies of this grid, one after another, as one grid."""
        out = object.__new__(PointSet)
        out.jets = out.table = None  # a tiled grid's fields read its base's
        out._base, out.tiles = self.base, self.tiles * tiles
        return out

    @functools.cached_property
    def coords(self):
        return tuple(np.tile(c, self.tiles) for c in self.base.coords)

    @functools.cached_property
    def radii(self):
        return np.tile(self.base.radii, self.tiles)

    @property
    def base(self) -> "PointSet":
        # not kept on its own base: that cycle would hold the jets' memo until a gc run
        return self if self._base is None else self._base

    def radial(self, f, *args) -> np.ndarray:
        """``f(radii, *args)`` for a coefficient of r alone: taken once on
        the base grid's radii and tiled."""
        return np.tile(f(self.base.radii, *args), self.tiles)

    def tile_max(self, values):
        """The max of ``values``, one per point, over each tile: one value
        for a grid of one tile, else each tile's repeated at its points."""
        if self.tiles == 1:
            return values.max()
        n = len(self.base)
        return np.repeat(values.reshape(self.tiles, n).max(axis=1), n)

    def __len__(self):
        return len(self.base.radii) * self.tiles


def residual_scale(value):
    """Check a residual's normaliser, one value or one per point: zero or
    non-finite leaves nothing to certify."""
    values = np.asarray(value, dtype=float)
    bad = values[~(np.isfinite(values) & (values > 0.0))]
    if bad.size:
        raise DomainError(f"residual scale is {float(bad[0])!r}: the field vanishes or overflows on the grid")
    return value


@dataclass(frozen=True)
class ComplexField:
    """A deterministic scalar complex-valued function of (x1, x2, x3, t).

    The callable must be generic over its argument type: it is evaluated
    with diagonal jets over a grid in exact-forward mode, with plain floats
    by ``at`` on one (x1, x2, x3, t) row, and in stencil mode with (33, n)
    float arrays, one row per shifted copy of an n-point grid.  So it
    must be elementwise: any parameter with one value per point has shape
    (n,) and broadcasts against the rows, and it must not take ``len`` of,
    or ``zip`` over, its arguments' points.  A field of T tiles (see
    PointSet) is evaluated on its grid's base points and returns every
    tile: T n values along the last axis, tile-major.  ``singular_at_origin``
    declares an r = 0 singular locus that finite-difference stencils must
    not cross.  A field carries no energy: operators take it as an argument.
    """

    fn: Callable
    label: str = ""
    singular_at_origin: bool = False

    def __call__(self, x1, x2, x3, t):
        return self.fn(x1, x2, x3, t)

    def at(self, p):
        return self.fn(*p)
