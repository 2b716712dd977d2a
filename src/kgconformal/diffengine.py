"""Derivatives of complex fields on grids of points.

One entry point, ``_diff(field, points, cfg)``, gives at every point of a
grid the field's value, its four first partials and its four pure second
partials, each derivative with an error estimate.  Two interchangeable
modes:

* ``exact-forward`` -- one field evaluation on diagonal jets (``dual``)
  over the whole grid; no truncation error, rounding only, and every
  error estimate is exactly 0.  This is the reference mode for
  acceptance runs.
* ``stencil`` -- 4th-order central differences with Richardson
  extrapolation, from field evaluations on shifted copies of the grid
  (one evaluation per shifted grid; the +-h and +-2h samples serve both
  derivative orders and neighbouring Richardson levels).  The estimate is
  the last Richardson correction plus a roundoff bound carried through
  the Richardson table.

Axes are indexed 0, 1, 2 for x1, x2, x3 and 3 (``T_AXIS``) for time.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from . import dual
from .core import ComplexField, ConfigError, DomainError, NonFiniteError, PointSet, as_points

T_AXIS = 3
N_AXES = 4

MODE_EXACT = "exact-forward"
MODE_STENCIL = "stencil"

# 4th-order central stencils
_W1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))          # / 12h
_W2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))  # / 12h^2
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class DiffConfig:
    mode: str = MODE_EXACT
    # 5e-3 balances roundoff (~eps/h^2 on second derivatives) against
    # truncation for the fields at desk scale; 1e-3 leaves no margin at n = 6
    base_step: float = 5e-3
    richardson_levels: int = 2
    step_overrides: Optional[Mapping[int, float]] = None

    def __post_init__(self):
        if self.mode not in (MODE_EXACT, MODE_STENCIL):
            raise ConfigError(f"unknown differentiation mode: {self.mode!r}")
        if self.base_step <= 0:
            raise ConfigError("base_step must be positive")
        if not (0 <= self.richardson_levels <= 4):
            raise ConfigError("richardson_levels must be in [0, 4]")

    def step(self, axis: int) -> float:
        if self.step_overrides and axis in self.step_overrides:
            return float(self.step_overrides[axis])
        return self.base_step


@dataclass(frozen=True, eq=False)
class Derivatives:
    """A field's value and derivatives at every point of a grid.

    ``value`` has shape (n,); ``grad`` and ``hess`` have shape (4, n) and
    hold the first and the pure second partials along x1, x2, x3 and t;
    ``grad_err`` and ``hess_err`` are their error estimates.  All are
    complex except the estimates.
    """

    field: ComplexField
    points: PointSet
    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    grad_err: np.ndarray
    hess_err: np.ndarray


def _diff(field: ComplexField, points, cfg: DiffConfig) -> Derivatives:
    """Differentiate ``field`` at every point of ``points`` in one pass.

    Raises NonFiniteError if any value or derivative is not finite, or if
    evaluating the field overflows or divides by zero.
    """
    pts = as_points(points)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
            parts = _jet_pass(field, pts) if cfg.mode == MODE_EXACT else _stencil_pass(field, pts, cfg)
    except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        raise NonFiniteError(f"{field.label or 'field'}: non-finite arithmetic on the grid ({exc})") from None
    if not all(np.isfinite(a).all() for a in parts[:3]):
        raise NonFiniteError(f"{field.label or 'field'}: non-finite value or derivative on the grid")
    return Derivatives(field, pts, *parts)


def _jet_pass(field: ComplexField, pts: PointSet):
    out = field(*dual.variables(*pts.coords))
    if isinstance(out, dual.HyperDual):
        c = out.c.astype(complex, copy=False)
    else:  # the field ignores its arguments
        c = np.zeros((1 + 2 * N_AXES, len(pts)), dtype=complex)
        c[0] = out
    zeros = np.zeros((N_AXES, len(pts)))
    return c[0], c[1 : 1 + N_AXES], c[1 + N_AXES :], zeros, zeros


def _clamped_step(field: ComplexField, pts: PointSet, cfg: DiffConfig, axis: int):
    """The axis's step, per point for a field singular at r = 0."""
    h = cfg.step(axis)
    if axis != T_AXIS and field.singular_at_origin:
        r = np.array(pts.radii)
        if (r == 0.0).any():
            raise DomainError("stencil centered on the singular locus r = 0")
        # widest stencil reach is 2h; keep it at half the distance to r = 0
        h = np.minimum(h, 0.25 * r)
    return h


def _sample(field: ComplexField, pts: PointSet, axis: int, delta):
    """The field on the grid shifted by ``delta`` along ``axis``."""
    args = list(pts.coords)
    args[axis] = args[axis] + delta
    return np.broadcast_to(np.asarray(field(*args), dtype=complex), (len(pts),))


def _stencil_pass(field: ComplexField, pts: PointSet, cfg: DiffConfig):
    levels = cfg.richardson_levels
    n_eval = max(levels, 1) + 1  # always sample one refinement for the estimate
    center = _sample(field, pts, 0, 0.0)
    raw = []  # per axis: (steps, first-derivative stencils, second-derivative stencils)
    f_max = np.abs(center)
    for axis in range(N_AXES):
        h = _clamped_step(field, pts, cfg, axis)
        steps = [h / 2.0**k for k in range(n_eval)]
        samples = {}

        def at(off, k):
            if off == 0:
                return center
            if abs(off) == 2 and k > 0:  # x + 2 h_k is x + h_(k-1): one sample serves both
                off, k = off // 2, k - 1
            if (off, k) not in samples:
                samples[off, k] = _sample(field, pts, axis, off * steps[k])
            return samples[off, k]

        first = [sum(w * at(off, k) for off, w in _W1) / (12.0 * hk) for k, hk in enumerate(steps)]
        second = [sum(w * at(off, k) for off, w in _W2) / (12.0 * hk * hk) for k, hk in enumerate(steps)]
        raw.append((steps, first, second))
        f_max = np.maximum(f_max, np.max(np.abs(np.stack(list(samples.values()))), axis=0))
    # roundoff of one sample: two ulps of |f|, and of every coordinate the
    # field reads, each weighted by the gradient along it
    noise = 2.0 * _EPS * (f_max + sum(np.abs(x) * np.abs(first[0]) for x, (_, first, _) in zip(pts.coords, raw)))
    out = [], [], [], []  # grad, hess, grad_err, hess_err
    for steps, first, second in raw:
        for dst, stencils, weight, order in ((0, first, 18.0, 1), (1, second, 64.0, 2)):
            rnd = [weight * noise / (12.0 * hk**order) for hk in steps]
            value, err = _richardson(stencils, rnd, levels)
            out[dst].append(value)
            out[dst + 2].append(err)
    return (center, *(np.array(part) for part in out))


def _richardson(raw, rnd, levels):
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
    if levels == 0:
        return raw[0], np.abs(raw[1] - raw[0]) + rnd[0]
    return table[levels][0], np.abs(table[levels][0] - table[levels - 1][0]) + rtable[levels][0]
