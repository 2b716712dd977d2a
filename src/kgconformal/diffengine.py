"""Derivatives of complex fields on grids of points.

One entry point, ``_diff(field, points, cfg, length_scale)``, gives at
every point of a grid the field's value, its four first partials and its
four pure second partials, each derivative with an error estimate.  Two
interchangeable modes:

* ``exact-forward`` -- one field evaluation on diagonal jets (``dual``)
  over the whole grid; no truncation error, rounding only, and every
  error estimate is exactly 0.  The fields of one grid all read its one
  set of seed jets, kept on the PointSet.  This is the reference mode for
  acceptance runs.
* ``stencil`` -- 4th-order central differences with Richardson
  extrapolation, from the field on shifted copies of the grid, all 33 of
  them in one evaluation on (33, n) coordinate arrays.  That table is kept
  read-only on the PointSet with one memo, as the seed jets are, so the
  fields of a grid share their factors in this mode too.  It is
  shift-major: the centre, then one row per axis for each shift -2h_0,
  -h_0 .. -h_L, +2h_0, +h_0 .. +h_L (h_k = h / 2^k, L = ``LEVELS``).  As
  2h_k is h_(k-1), the samples at -2h_k, -h_k, +2h_k and +h_k of every
  level are four contiguous slices, and the stencils and the Richardson
  extrapolation are array arithmetic over (level, axis, point).  The
  estimate is the last Richardson correction plus a roundoff bound
  carried through the Richardson table.

A grid of T tiles (see core.PointSet) is differentiated in the same one
pass: the field is evaluated on its base grid, on the base's jets or on
the base's (33, n) shift table, and gives all T n values; the jet rows,
or the stencils and Richardson tables, then run on every tile at once.

Axes are indexed 0, 1, 2 for x1, x2, x3 and 3 (``T_AXIS``) for time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from . import dual
from .core import ComplexField, ConfigError, DomainError, NonFiniteError, PointSet, residual_scale

T_AXIS = 3
N_AXES = 4

MODE_EXACT = "exact-forward"
MODE_STENCIL = "stencil"

_EPS = sys.float_info.epsilon
#: stencil step at unit length: 5e-3 balances roundoff (~eps/h^2 on second
#: derivatives) against truncation for the fields at desk scale; 1e-3
#: leaves no margin at n = 6
STEP = 5e-3
#: Richardson levels above the base stencil
LEVELS = 2


@dataclass(frozen=True)
class DiffConfig:
    """The derivative mode."""

    mode: str = MODE_EXACT

    def __post_init__(self):
        if self.mode not in (MODE_EXACT, MODE_STENCIL):
            raise ConfigError(f"unknown differentiation mode: {self.mode!r}")


@dataclass(frozen=True, eq=False)
class Derivatives:
    """A field's value and derivatives at every point of a grid.

    ``value`` has shape (n,); ``grad`` and ``hess`` have shape (4, n) and
    hold the first and the pure second partials along x1, x2, x3 and t;
    ``grad_err`` and ``hess_err`` are their error estimates.  All are
    complex except the estimates.
    """

    points: PointSet
    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    grad_err: np.ndarray
    hess_err: np.ndarray

    def scale(self, factor=1.0):
        """A residual's scale: ``factor`` max|psi| over each tile of the grid
        (see core.PointSet.tile_max), checked by core.residual_scale."""
        return residual_scale(factor * self.points.tile_max(dual.modulus(self.value)))


def _diff(field: ComplexField, pts: PointSet, cfg: DiffConfig, length_scale: float = 1.0) -> Derivatives:
    """Differentiate ``field`` at every point of the grid ``pts`` in one pass.
    In stencil mode the spatial steps are ``STEP * length_scale``, the time
    step is ``STEP``.

    Raises NonFiniteError if any value or derivative is not finite, or if
    evaluating the field overflows or divides by zero.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            parts = _jet_pass(field, pts) if cfg.mode == MODE_EXACT else _stencil_pass(field, pts, length_scale)
    except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteError(f"{field.label or 'field'}: non-finite arithmetic on the grid ({exc})") from None
    if not all(np.isfinite(a).all() for a in parts[:3]):
        raise NonFiniteError(f"{field.label or 'field'}: non-finite value or derivative on the grid")
    return Derivatives(pts, *parts)


def _jet_pass(field: ComplexField, pts: PointSet):
    base = pts.base
    if base.jets is None:  # once per grid: its fields share the jets' memo (see dual)
        base.jets = dual.variables(*base.coords)
    out = field(*base.jets)
    if isinstance(out, dual.HyperDual):
        c = out.c.astype(complex, copy=False)
    else:  # the field ignores its arguments
        c = np.zeros((1 + 2 * N_AXES, len(pts)), dtype=complex)
        c[0] = out
    zeros = np.zeros((N_AXES, len(pts)))
    return c[0], c[1 : 1 + N_AXES], c[1 + N_AXES :], zeros, zeros


def _steps(field: ComplexField, pts: PointSet, length_scale: float):
    """The step along each axis at every point of the base grid: a (4, n)
    table.  The spatial steps are ``STEP * length_scale``, for a field
    singular at r = 0 at most a quarter of the distance to r = 0; the time
    step is ``STEP``."""
    h = np.full((N_AXES, len(pts.base)), STEP)
    h[:T_AXIS] = STEP * length_scale
    if field.singular_at_origin:
        r = pts.base.radii
        if (r == 0.0).any():
            raise DomainError("stencil centered on the singular locus r = 0")
        # widest stencil reach is 2h; keep it at half the distance to r = 0
        h[:T_AXIS] = np.minimum(h[:T_AXIS], 0.25 * r)
    return h


def _sample(field: ComplexField, pts: PointSet, shifts):
    """The field on shifted copies of the grid, in one call: a (rows, n) table.

    Row 0 is the base grid shifted by 0.0 along axis 0; row 1 + 4 s + axis
    is the base grid shifted along that axis by ``shifts[s, axis]``.  The
    field gives every tile of ``pts`` at each base point, so n is
    ``len(pts)``.  The coordinate table is kept read-only on the base grid,
    with a memo its fields share (see dual.cached), until a pass over the
    grid brings other shifts.
    """
    base = pts.base
    if base.table is None or not np.array_equal(base.table[0], shifts):
        coords = base.coords
        args = [np.repeat(x[np.newaxis], 1 + N_AXES * len(shifts), axis=0) for x in coords]
        for axis, x in enumerate(coords):
            args[axis][1 + axis :: N_AXES] = x + shifts[:, axis]
        args[0][0] = coords[0] + 0.0
        base.table = (shifts, tuple(map(dual.frozen, args)), {})
    _, rows, memo = base.table
    return np.broadcast_to(np.asarray(dual.call_on(field, rows, memo), dtype=complex), (len(rows[0]), len(pts)))


def _stencil_pass(field: ComplexField, pts: PointSet, length_scale: float):
    # steps[k, axis] = h_k = h / 2^k at every base point, k = 0 .. LEVELS
    steps = _steps(field, pts, length_scale) / 2.0 ** np.arange(LEVELS + 1)[:, np.newaxis, np.newaxis]
    reach = np.concatenate((2.0 * steps[:1], steps))  # 2h_0, h_0, h_1, ..., h_L; 2h_k is h_(k-1)
    table = _sample(field, pts, np.concatenate((-reach, reach)))
    center, shifted = table[0], table[1:].reshape(-1, N_AXES, len(pts))  # (shift, axis, point)
    # the samples at x - 2h_k, x - h_k, x + 2h_k and x + h_k: (level, axis, point)
    m2, m1, p2, p1 = (shifted[start : start + LEVELS + 1] for start in (0, 1, LEVELS + 2, LEVELS + 3))
    hk = np.tile(steps, pts.tiles)  # at every point of every tile
    # 4th-order central stencils, on every level and axis at once
    first = (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * hk)
    second = (-m2 + 16.0 * m1 - 30.0 * center + 16.0 * p1 - p2) / (12.0 * hk * hk)
    # roundoff of one sample: two ulps of |f|, and of every coordinate the
    # field reads, each weighted by the gradient along it
    f_max = np.abs(table).max(axis=0)
    noise = 2.0 * _EPS * (f_max + sum(np.abs(x) * np.abs(g) for x, g in zip(pts.coords, first[0])))
    grad, grad_err = _richardson(first, 18.0 * noise / (12.0 * hk))
    hess, hess_err = _richardson(second, 64.0 * noise / (12.0 * hk**2))
    return center, grad, hess, grad_err, hess_err


def _richardson(raw, rnd):
    """Extrapolated value and its error estimate from stencil values at
    h / 2^k, stacked along the first axis.

    ``rnd`` bounds each raw value's roundoff; it is carried through the
    table with the same weights, taken in absolute value.
    """
    for j in range(1, len(raw)):
        fac = 2.0 ** (4 + 2 * (j - 1))  # leading error h^4, then h^6, h^8, ...
        prev = raw
        raw = (fac * raw[1:] - raw[:-1]) / (fac - 1.0)
        rnd = (fac * rnd[1:] + rnd[:-1]) / (fac - 1.0)
    return raw[0], np.abs(raw[0] - prev[0]) + rnd[0]
