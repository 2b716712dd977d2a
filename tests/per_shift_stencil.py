"""Reference for stencil mode: one field call per shifted grid.

This is how the package sampled stencils before it evaluated every
shifted grid in one call: the field on the centre, then on each of the
32 shifted copies of the grid in its own call, and the stencils and
Richardson table built axis by axis, level by level, with weights and a
Richardson table of its own.  The tests require ``_diff`` in stencil mode
to give the same numbers, compared with ``==``.
"""

import numpy as np

from kgconformal.core import ComplexField, PointSet
from kgconformal.diffengine import _EPS, LEVELS, N_AXES, _steps

# 4th-order central stencils
_W1 = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))          # / 12h
_W2 = ((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0))  # / 12h^2


def _sample(field: ComplexField, pts: PointSet, axis: int, delta):
    """The field on the grid shifted by ``delta`` along ``axis``."""
    args = list(pts.coords)
    args[axis] = args[axis] + delta
    return np.broadcast_to(np.asarray(field(*args), dtype=complex), (len(pts),))


def stencil_pass(field: ComplexField, pts: PointSet, length_scale: float):
    """(value, grad, hess, grad_err, hess_err), as ``_diff`` returns them."""
    center = _sample(field, pts, 0, 0.0)
    raw = []  # per axis: (steps, first-derivative stencils, second-derivative stencils)
    f_max = np.abs(center)
    for axis in range(N_AXES):
        h = np.tile(_steps(field, pts, length_scale)[axis], pts.tiles)
        steps = [h / 2.0**k for k in range(LEVELS + 1)]
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
    noise = 2.0 * _EPS * (f_max + sum(np.abs(x) * np.abs(first[0]) for x, (_, first, _) in zip(pts.coords, raw)))
    out = [], [], [], []  # grad, hess, grad_err, hess_err
    for steps, first, second in raw:
        for dst, stencils, weight, order in ((0, first, 18.0, 1), (1, second, 64.0, 2)):
            rnd = [weight * noise / (12.0 * hk**order) for hk in steps]
            value, err = _richardson(stencils, rnd)
            out[dst].append(value)
            out[dst + 2].append(err)
    return (center, *(np.array(part) for part in out))


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
