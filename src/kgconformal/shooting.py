"""Independent eigenvalue oracle for the Coulomb sector.

Solves the radial Klein-Gordon Coulomb equation as a boundary-value
problem, with no reference to the closed-form spectrum.  With u = r R and
x = alpha r the ODE is u'' = [(l(l+1) - alpha^2)/x^2 - 2 Ebar/x + eps] u,
where Ebar = E / (m0 c^2) and eps = (1 - Ebar^2) / alpha^2 is the binding
parameter (~ 1/N^2 nonrelativistically, N = n + l + 1).  With sigma
(sigma - 1) = l(l+1) - alpha^2, u = x^sigma w gives the eigenproblem
x w'' + 2 sigma w' + 2 Ebar w = eps x w.  Under x -> x / Ebar, eps / Ebar^2
does not depend on Ebar, so one eigensolve at Ebar = 1 (numpy's eigvals at
80 Chebyshev-Gauss-Lobatto points on [0, X] with w(X) = 0; Trefethen,
Spectral Methods in MATLAB, ch. 6 and 13) gives eps_1, and eps = eps_1 /
(1 + alpha^2 eps_1).  The (n+1)-th largest eps_1 is the level with n radial
nodes; against 50-digit Sommerfeld eps is within 1.04e-10 over l <= 3,
n <= 9.  One shot of the regular solution at eps (1 -/+ TAU) confirms it by
Sturm oscillation: a fourth-order Magnus integrator (Blanes, Casas, Oteo
and Ros, Phys. Rep. 470, 2009) over 2000 steps uniform in log(x + 0.01),
whose step matrices are multiplied as prefix products (a Hillis-Steele
scan; Blelloch, CMU-CS-90-190).  Its own root is within 3.5e-9 of
Sommerfeld on the same states, and within 6.1e-9 up to alpha = 0.499 on
l = 0 and alpha = l + 0.49 on l = 1..3.
"""

from __future__ import annotations

import math
import types

import numpy as np

from .core import BranchError, ConfigError, UnitSystem, natural_units

# relative error of the oracle's eps: at most 1.04e-10 over l <= 3, n <= 9 (on
# (7, 3)), while the nonrelativistic eps = 1/N^2 misses by at least 4.75e-7
EPS_RTOL = 2e-9
# the confirming bracket: above the shot's own error (6.1e-9 at worst), below the Bohr miss
TAU = 2.5e-8
POINTS = 80
STEPS = 2000
# every state with n <= 9, l <= 4 meets EPS_RTOL from alpha 0.0073 to l + 0.49; (7, 5)
# misses it by 5.6e-9, and (3, 9), (0, 15) and l = 100 and 150 fail the shot
MAX_N, MAX_L = 9, 4


def binding_parameter(ebar: float, alpha: float) -> float:
    """eps = (1 - Ebar^2) / alpha^2 of an energy Ebar = E / (m0 c^2)."""
    return (1.0 - ebar * ebar) / (alpha * alpha)


def _indicial_sigma(l: int, alpha: float) -> float:
    return 0.5 + math.sqrt((l + 0.5) ** 2 - alpha * alpha)


def _cutoff(big_n: int) -> float:
    """X: at 40 N alone the tail costs (9, 3) 8.6e-8 in eps."""
    return max(40.0 * big_n, 6.0 * big_n * big_n)


def _spectral_eps(n: int, l: int, alpha: float, x_hi: float) -> float:
    k = np.arange(POINTS)
    t = np.cos(np.pi * k / (POINTS - 1))
    c = np.where((k == 0) | (k == POINTS - 1), 2.0, 1.0) * (-1.0) ** k
    d = np.outer(c, 1.0 / c) / (t[:, None] - t[None, :] + np.eye(POINTS))
    d -= np.diag(d.sum(axis=1))
    # x = x_hi (1 + t) / 2; dropping k = 0 drops x = x_hi, where w = 0
    x, d = x_hi * (1.0 + t[1:]) / 2.0, d[1:, 1:] * (2.0 / x_hi)
    a = x[:, None] * (d @ d) + 2.0 * _indicial_sigma(l, alpha) * d + 2.0 * np.eye(len(x))
    # the row at x = 0 only fixes w(0): eliminate it and solve for v = x w (by column)
    s = a[:-1, :-1] - np.outer(a[:-1, -1], a[-1, :-1]) / a[-1, -1]
    eps = np.linalg.eigvals(s / x[None, :-1])
    eps = np.sort(eps[np.isfinite(eps) & (eps.imag == 0.0) & (eps.real > 0.0)].real)[::-1]
    if len(eps) <= n:
        raise ConfigError(f"the eigensolve resolves {len(eps)} levels of l = {l}, not n = {n}")
    # solved at Ebar = 1: eps = eps_1 Ebar^2 = eps_1 (1 - alpha^2 eps)
    return float(eps[n] / (1.0 + alpha * alpha * eps[n]))


def solve_ivp(q, x, y0):
    """Integrate u'' = q(x) u over the grid x from y0 = (u, u') for each
    column of q with a fourth-order Magnus step (two Gauss points), the
    steps' products taken as prefix products for all columns at once.
    Returns y, u at every grid point for each column then u' for each, and
    nfev, the count of q values taken (perfbench/tracing.py reads it)."""
    h = np.diff(x)
    q1, q2 = (q(x[:-1] + g * h) for g in (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0))
    # the step exponent Omega = [[a, h], [c, -a]] has Omega^2 = (a^2 + h c) I
    a = (math.sqrt(3.0) / 12.0) * h * h * (q1 - q2)
    c = h * (q1 + q2) / 2.0
    delta = a * a + h * c
    # exp(Omega) = cosh(r) I + sinh(r) / r Omega, r = sqrt(delta); cos and sin for delta < 0
    root, grows = np.sqrt(np.abs(delta)), delta > 0.0
    cosh = np.where(grows, np.cosh(root), np.cos(root))
    sinhc = np.divide(np.where(grows, np.sinh(root), np.sin(root)), root, out=np.ones_like(root), where=root > 0.0)
    # after the round of span s, m[..., j] = M_j ... M_max(0, j-2s+1): M_j ... M_0 once 2s > j
    m, span = np.stack((cosh + sinhc * a, sinhc * h, sinhc * c, cosh - sinhc * a)), 1
    u0, du0 = np.split(np.asarray(y0, dtype=float)[:, None], 2)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends as the ConfigError below
        while span < m.shape[-1]:
            p, r = m[..., span:], m[..., :-span]
            p[:] = (p[0] * r[0] + p[1] * r[2], p[0] * r[1] + p[1] * r[3],
                    p[2] * r[0] + p[3] * r[2], p[2] * r[1] + p[3] * r[3])
            span *= 2
        y = np.hstack((np.vstack((u0, du0)), np.vstack((m[0] * u0 + m[1] * du0, m[2] * u0 + m[3] * du0))))
    if not np.isfinite(y).all():
        raise ConfigError("shooting integration failed: u is not finite")
    return types.SimpleNamespace(y=y, nfev=q1.size + q2.size)


def _shoot(eps: tuple, l: int, alpha: float, x_hi: float):
    """Integrate the regular solution over [1e-3, x_hi] for every eps in one
    call: sol.y holds u for each eps, then u' for each.  The first steps of
    the grid are short next to 1e-3, which l = 0 needs near alpha = 1/2:
    uniform in log(x + 0.1), the shot misses (2, 0) at alpha 0.45 by 2.5e-7."""
    x_lo, eps = 1e-3, np.asarray(eps, dtype=float)[:, None]
    sigma = _indicial_sigma(l, alpha)
    ll = l * (l + 1) - alpha * alpha
    ebar = np.sqrt(np.maximum(1.0 - eps * alpha * alpha, 0.0))

    def q(x):
        return ll / (x * x) - 2.0 * ebar / x + eps

    # three terms of the Frobenius series u = x^sigma sum_k a_k x^k, where
    # k (2 sigma + k - 1) a_k = -2 Ebar a_{k-1} + eps a_{k-2} and a_0 = 1
    a1 = -ebar / sigma
    a2 = (-2.0 * ebar * a1 + eps) / (2.0 * (2.0 * sigma + 1.0))
    y0 = np.concatenate((x_lo**sigma * (1.0 + x_lo * (a1 + x_lo * a2)),
                         x_lo ** (sigma - 1.0) * (sigma + x_lo * ((sigma + 1.0) * a1 + x_lo * (sigma + 2.0) * a2))))
    x = np.exp(np.linspace(math.log(x_lo + 0.01), math.log(x_hi + 0.01), STEPS + 1)) - 0.01
    return solve_ivp(q, x, y0.ravel())


def _nodes(sol) -> list:
    """Sign changes of each u over the grid of one shot."""
    neg = np.signbit(sol.y[: len(sol.y) // 2])
    return np.count_nonzero(neg[:, 1:] != neg[:, :-1], axis=1).tolist()


def _bracket(n: int, l: int, alpha: float, eps_lo: float, eps_hi: float) -> None:
    """Shoot once at both ends of [eps_lo, eps_hi].  The node count of u
    falls by one across each level as eps grows, so the window holds just
    the level with n radial nodes iff the ends count n + 1 and n (and so
    u(X) changes sign).  Anything else is a ConfigError."""
    counts = _nodes(_shoot((eps_lo, eps_hi), l, alpha, _cutoff(n + l + 1)))
    if counts != [n + 1, n]:
        raise ConfigError(
            f"expected the eps window of (n, l) = ({n}, {l}) to hold exactly that "
            f"level ({n + 1} and {n} nodes at its ends), found {counts[0]} and {counts[1]}"
        )


def shooting_eigenvalue(n: int, l: int, alpha: float, units: UnitSystem = None) -> float:
    """Eigenvalue E of the (n, l) bound state (Sommerfeld-branch ordering).

    Returns the energy in the given unit system.  Raises ConfigError for
    n or l not a non-negative int or past MAX_N or MAX_L, for alpha <= 0
    and for a shot that does not confirm the eigensolve, and BranchError
    for alpha >= l + 1/2.
    """
    for name, q in (("n", n), ("l", l)):
        if not isinstance(q, int) or isinstance(q, bool) or q < 0:
            raise ConfigError(f"{name} must be a non-negative integer, not {q!r}")
    if n > MAX_N or l > MAX_L:
        raise ConfigError(f"the oracle is validated for n <= {MAX_N} and l <= {MAX_L}, not (n, l) = ({n}, {l})")
    if not alpha > 0.0:
        raise ConfigError(f"alpha must be positive, not {alpha!r}")
    if alpha >= l + 0.5:
        raise BranchError(f"alpha = {alpha} >= l + 1/2 = {l + 0.5}: complex exponent")
    units = units or natural_units()
    eps = _spectral_eps(n, l, alpha, _cutoff(n + l + 1))
    _bracket(n, l, alpha, eps * (1.0 - TAU), eps * (1.0 + TAU))
    return math.sqrt(1.0 - eps * alpha * alpha) * units.rest_energy
