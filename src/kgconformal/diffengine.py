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
  them in one evaluation on (33, n) coordinate arrays (the +-h and +-2h
  samples serve both derivative orders and neighbouring Richardson
  levels).  Stencils and Richardson tables run on all four axes at once.
  The estimate is the last Richardson correction plus a roundoff bound
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

# 4th-order central stencils
_W1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))          # / 12h
_W2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))  # / 12h^2
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


def _clamped_step(field: ComplexField, pts: PointSet, length_scale: float, axis: int):
    """The axis's step, per point of the base grid for a field singular at r = 0."""
    if axis == T_AXIS:
        return STEP
    h = STEP * length_scale
    if field.singular_at_origin:
        r = pts.base.radii
        if (r == 0.0).any():
            raise DomainError("stencil centered on the singular locus r = 0")
        # widest stencil reach is 2h; keep it at half the distance to r = 0
        h = np.minimum(h, 0.25 * r)
    return h


def _sample(field: ComplexField, pts: PointSet, shifts):
    """The field on shifted copies of the grid, in one call: a (rows, n) table.

    Row 0 is the base grid shifted by 0.0 along axis 0; then, axis by axis,
    the base grid shifted along that axis by each row of ``shifts[axis]``.
    The field gives every tile of ``pts`` at each base point, so n is
    ``len(pts)``.
    """
    per_axis, coords = shifts.shape[1], pts.base.coords
    args = [np.repeat(x[np.newaxis], 1 + N_AXES * per_axis, axis=0) for x in coords]
    for axis, x in enumerate(coords):
        args[axis][1 + axis * per_axis : 1 + (axis + 1) * per_axis] = x + shifts[axis]
    args[0][0] = coords[0] + 0.0
    return np.broadcast_to(np.asarray(field(*args), dtype=complex), (len(args[0]), len(pts)))


#: the shifted rows of the sample table along each axis, as (offset, level)
#: for +-2h_0, +-h_0, +-h_1, +-h_2; x + 2h_k is x + h_(k-1) for k > 0
_ROWS = ((-2, 0), (2, 0), (-1, 0), (1, 0), (-1, 1), (1, 1), (-1, 2), (1, 2))


def _stencil_pass(field: ComplexField, pts: PointSet, length_scale: float):
    h = np.empty((N_AXES, 1, len(pts.base)))
    for axis in range(N_AXES):
        h[axis] = _clamped_step(field, pts, length_scale, axis)
    steps = h / 2.0 ** np.arange(LEVELS + 1)[:, np.newaxis]  # steps[axis, k] = h_k = h / 2^k, at every base point
    offsets, levels = zip(*_ROWS)
    shifts = np.array(offsets, dtype=float)[:, np.newaxis] * steps[:, list(levels)]  # (axis, row, base point)
    table = _sample(field, pts, shifts)
    center, shifted = table[0], table[1:].reshape(N_AXES, len(_ROWS), len(pts))
    steps = np.tile(steps, pts.tiles)  # at every point of every tile

    def at(off, k):  # the samples at x + off h_k, for all four axes
        if off == 0:
            return center
        if abs(off) == 2 and k > 0:
            off, k = off // 2, k - 1
        return shifted[:, _ROWS.index((off, k))]

    hks = steps.swapaxes(0, 1)  # hks[k] is h_k along every axis
    first = [sum(w * at(off, k) for off, w in _W1) / (12.0 * hk) for k, hk in enumerate(hks)]
    second = [sum(w * at(off, k) for off, w in _W2) / (12.0 * hk * hk) for k, hk in enumerate(hks)]
    # roundoff of one sample: two ulps of |f|, and of every coordinate the
    # field reads, each weighted by the gradient along it
    f_max = np.abs(table).max(axis=0)
    noise = 2.0 * _EPS * (f_max + sum(np.abs(x) * np.abs(g) for x, g in zip(pts.coords, first[0])))
    grad, grad_err = _richardson(first, [18.0 * noise / (12.0 * hk) for hk in hks])
    hess, hess_err = _richardson(second, [64.0 * noise / (12.0 * hk**2) for hk in hks])
    return center, grad, hess, grad_err, hess_err


def _richardson(raw, rnd):
    """Extrapolated value and its error estimate from stencil values at h / 2^k.

    ``rnd`` bounds each raw value's roundoff; it is carried through the
    table with the same weights, taken in absolute value.
    """
    table, rtable = [raw], [rnd]
    for j in range(1, len(raw)):
        fac = 2.0 ** (4 + 2 * (j - 1))  # leading error h^4, then h^6, h^8, ...
        prev, rprev = table[-1], rtable[-1]
        table.append([(fac * prev[k + 1] - prev[k]) / (fac - 1.0) for k in range(len(prev) - 1)])
        rtable.append([(fac * rprev[k + 1] + rprev[k]) / (fac - 1.0) for k in range(len(rprev) - 1)])
    return table[-1][0], np.abs(table[-1][0] - table[-2][0]) + rtable[-1][0]
