"""Reference for the Coulomb oracle: four eigensolves and a per-column loop.

This is how the oracle worked before it solved once at Ebar = 1 and ran
the shot as prefix products of its step matrices: the eigensolve
repeated until the update of Ebar stood still (at most four solves), and
the Magnus shot stepped each column through STEPS Python-float
multiplications.  The tests compare the oracle with both.
"""

import math
import types

import numpy as np

from kgconformal.core import ConfigError
from kgconformal.shooting import POINTS, _indicial_sigma


def spectral_eps(n: int, l: int, alpha: float, x_hi: float) -> float:
    """eps of the (n, l) level, the fixed point of Ebar <- 1 / sqrt(1 + alpha^2 eps / Ebar^2)."""
    k = np.arange(POINTS)
    t = np.cos(np.pi * k / (POINTS - 1))
    c = np.where((k == 0) | (k == POINTS - 1), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (t[:, None] - t[None, :] + np.eye(POINTS))
    d -= np.diag(d.sum(axis=1))
    x, d = x_hi * (1.0 + t[1:]) / 2.0, d[1:, 1:] * (2.0 / x_hi)
    operator = x[:, None] * (d @ d) + 2.0 * _indicial_sigma(l, alpha) * d
    ebar = 1.0
    for _ in range(4):
        a = operator + 2.0 * ebar * np.eye(len(x))
        s = a[:-1, :-1] - np.outer(a[:-1, -1], a[-1, :-1]) / a[-1, -1]
        eps = np.linalg.eigvals(s / x[None, :-1])
        eps = np.sort(eps[np.isfinite(eps) & (eps.imag == 0.0) & (eps.real > 0.0)].real)[::-1]
        if len(eps) <= n:
            raise ConfigError(f"the eigensolve resolves {len(eps)} levels of l = {l}, not n = {n}")
        new = 1.0 / math.sqrt(1.0 + alpha * alpha * eps[n] / (ebar * ebar))
        if new == ebar:
            break
        ebar = new
    return float(eps[n])


def solve_ivp(q, x, y0):
    """The Magnus shot of ``shooting.solve_ivp``, one column and one step at a time."""
    h = np.diff(x)
    q1, q2 = (q(x[:-1] + g * h) for g in (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0))
    a = (math.sqrt(3.0) / 12.0) * h * h * (q1 - q2)
    c = h * (q1 + q2) / 2.0
    delta = a * a + h * c
    root, grows = np.sqrt(np.abs(delta)), delta > 0.0
    cosh = np.where(grows, np.cosh(root), np.cos(root))
    sinhc = np.divide(np.where(grows, np.sinh(root), np.sin(root)), root, out=np.ones_like(root), where=root > 0.0)
    steps = np.stack((cosh + sinhc * a, sinhc * h, sinhc * c, cosh - sinhc * a), axis=-1)
    k, y = len(y0) // 2, np.empty((len(y0), len(x)))
    for j in range(k):
        u, du = float(y0[j]), float(y0[k + j])
        us, dus = [u], [du]
        for e11, e12, e21, e22 in steps[j].tolist():
            u, du = e11 * u + e12 * du, e21 * u + e22 * du
            us.append(u)
            dus.append(du)
        y[j], y[k + j] = us, dus
    if not np.isfinite(y).all():
        raise ConfigError("shooting integration failed: u is not finite")
    return types.SimpleNamespace(y=y, nfev=q1.size + q2.size)
