"""Independent shooting-method eigenvalue oracle for the Coulomb sector.

Solves the radial reduction of the Klein-Gordon Coulomb equation as a
boundary-value problem, with no reference to the closed-form spectrum.
With u = r R and x = alpha r (natural length of the problem) the ODE is

    u'' = [ (l(l+1) - alpha^2)/x^2 - 2 Ebar / x + eps ] u

where Ebar = E / (m0 c^2) and eps = (1 - Ebar^2) / alpha^2 is the
dimensionless binding parameter (eps ~ 1/N^2 nonrelativistically,
N = n + l + 1).  The regular solution behaves as u ~ x^sigma at the
origin with sigma the positive indicial root of
sigma (sigma - 1) = l(l+1) - alpha^2.  An eigenvalue is a zero of the
large-x miss function u(x_max).  The nodes of u at the two ends of an
eps window check that the window holds exactly the level with n radial
nodes (Sturm oscillation), and Brent's method finds the zero inside it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .core import ConfigError, UnitSystem, natural_units

# relative accuracy of the oracle's eps: at most 4.0e-9 on the l = 0 states
# up to (9, 0) and 4e-11 on the l >= 1 states up to N = 3, while the
# nonrelativistic eps = 1/N^2 is off by at least 1.18e-6 on the six lowest
# states, so a gate at this bound tells the relativistic spectrum from the
# Bohr spectrum
EPS_RTOL = 1e-7


def binding_parameter(ebar: float, alpha: float) -> float:
    """eps = (1 - Ebar^2) / alpha^2 of an energy Ebar = E / (m0 c^2)."""
    return (1.0 - ebar * ebar) / (alpha * alpha)


def _indicial_sigma(l: int, alpha: float) -> float:
    return 0.5 + math.sqrt((l + 0.5) ** 2 - alpha * alpha)


def _window(big_n: int) -> tuple[float, float]:
    """The eps window of the N-th level; nonrelativistic spacing isolates it."""
    return 1.0 / (big_n + 0.49) ** 2, 1.0 / (big_n - 0.49) ** 2


def _shoot(eps: float, l: int, alpha: float, big_n: int):
    """Integrate the regular solution over [1e-3, 40 N]."""
    x_lo, x_hi = 1e-3, 40.0 * big_n
    sigma = _indicial_sigma(l, alpha)
    ll = l * (l + 1) - alpha * alpha
    ebar = math.sqrt(max(1.0 - eps * alpha * alpha, 0.0))

    def rhs(x, y):
        u, up = y
        return (up, (ll / (x * x) - 2.0 * ebar / x + eps) * u)

    # two terms of the Frobenius series u = x^sigma sum_k a_k x^k, where
    # k (2 sigma + k - 1) a_k = -2 Ebar a_{k-1} + eps a_{k-2} and a_0 = 1
    a1 = -ebar / sigma
    y0 = (
        x_lo**sigma * (1.0 + a1 * x_lo),
        x_lo ** (sigma - 1.0) * (sigma + (sigma + 1.0) * a1 * x_lo),
    )
    # t_eval=None keeps every accepted step in sol.y, which _nodes counts on
    sol = solve_ivp(rhs, (x_lo, x_hi), y0, method="DOP853", rtol=1e-12, atol=1e-300)
    if not sol.success:
        raise ConfigError(f"shooting integration failed: {sol.message}")
    return sol


def _nodes(sol) -> int:
    """Sign changes of u over the accepted steps of one shot."""
    neg = np.signbit(sol.y[0])
    return int(np.count_nonzero(neg[1:] != neg[:-1]))


def _bracket(n: int, l: int, alpha: float, eps_lo: float, eps_hi: float):
    """Shoot at both ends of [eps_lo, eps_hi] and return the miss function
    u(x_max) of eps, with the two end shots memoised.

    The node count of u falls by one across each level as eps grows, so
    the window holds exactly one level, the one with n radial nodes, if
    and only if the ends count n + 1 and n nodes.  Anything else is a
    ConfigError.
    """
    big_n = n + l + 1
    ends, counts = {}, []
    for eps in (eps_lo, eps_hi):
        sol = _shoot(eps, l, alpha, big_n)
        ends[eps] = sol.y[0][-1]
        counts.append(_nodes(sol))
    if counts != [n + 1, n]:
        raise ConfigError(
            f"expected the eps window of (n, l) = ({n}, {l}) to hold exactly that "
            f"level ({n + 1} and {n} nodes at its ends), found {counts[0]} and {counts[1]}"
        )

    def miss(eps):
        if eps in ends:
            return ends[eps]
        return _shoot(eps, l, alpha, big_n).y[0][-1]

    return miss


def shooting_eigenvalue(n: int, l: int, alpha: float, units: UnitSystem = None) -> float:
    """Eigenvalue E of the (n, l) bound state (Sommerfeld-branch ordering).

    Returns the energy in the given unit system.
    """
    units = units or natural_units()
    eps_lo, eps_hi = _window(n + l + 1)
    miss = _bracket(n, l, alpha, eps_lo, eps_hi)
    eps_star = brentq(miss, eps_lo, eps_hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    ebar = math.sqrt(1.0 - eps_star * alpha * alpha)
    return ebar * units.rest_energy
