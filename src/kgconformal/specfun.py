"""Special functions for the eigensolutions.

Physicists' Hermite polynomials, orthonormal spherical harmonics
(Condon-Shortley phase) and the Coulomb radial polynomial obtained by
series termination.  Every evaluation path accepts float arrays and
diagonal jets as well as scalars, so both differentiation modes thread
straight through.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import dual
from .core import BranchError, NoTerminationError, QuantumNumberError

SOMMERFELD = "sommerfeld"
HYDRINO = "hydrino"


class HermiteLadder:
    """The read-only terms [H_0(xi), ..., H_k(xi)] of one read-only argument
    ``xi``, from which ``hermite(l, ladder)`` resumes the recurrence."""

    __slots__ = ("xi", "terms")

    def __init__(self, xi):
        self.xi, self.terms = dual.frozen(xi), [1.0]


def hermite(l: int, xi):
    """Physicists' Hermite polynomial H_l via the three-term recurrence.

    H_{k+1}(xi) = 2 xi H_k(xi) - 2 k H_{k-1}(xi) (Abramowitz & Stegun
    22.7).  Works for float, complex, array or jet ``xi``, and returns a
    read-only value.  ``xi`` may be a HermiteLadder: its terms up to H_l are
    then taken, and the missing ones added in place by the same steps.
    """
    if l < 0:
        raise QuantumNumberError("hermite degree must be non-negative")
    xi, h = (xi.xi, xi.terms) if isinstance(xi, HermiteLadder) else (xi, [1.0])
    while len(h) <= l:
        k = len(h) - 1
        h.append(dual.frozen(2.0 * xi if k == 0 else 2.0 * (xi * h[k]) - 2.0 * k * h[k - 1]))
    return h[l]


def _legendre_poly_part(l: int, m: int, u):
    """Associated Legendre P_l^m with the (1-u^2)^{m/2} factor stripped.

    Includes the Condon-Shortley (-1)^m.  Polynomial in u, so it is
    smooth in Cartesian coordinates once combined with
    ((x1 +/- i x2)/r)^m, which supplies the stripped sin^m(theta).
    """
    # P~_m^m = (-1)^m (2m-1)!!
    pmm = 1.0
    for k in range(1, m + 1):
        pmm *= -(2 * k - 1)
    if l == m:
        return pmm
    pm1 = (2 * m + 1) * (u * pmm)
    if l == m + 1:
        return pm1
    for ll in range(m + 2, l + 1):
        pm1, pmm = ((2 * ll - 1) * (u * pm1) - (ll + m - 1) * pmm) * (1.0 / (ll - m)), pm1
    return pm1


def sph_harm_cartesian(l: int, k: int, x1, x2, x3):
    """Y_lk as a smooth function of Cartesian direction (r > 0 required)."""
    if abs(k) > l:
        raise QuantumNumberError(f"|k| = {abs(k)} exceeds l = {l}")
    m = abs(k)
    r = dual.norm3(x1, x2, x3)
    u = x3 / r
    norm = math.sqrt(
        (2 * l + 1) / (4.0 * math.pi) * math.factorial(l - m) / math.factorial(l + m)
    )
    poly = _legendre_poly_part(l, m, u)
    if k > 0:
        azim = ((x1 + 1j * x2) / r) ** m
    elif k < 0:
        azim = (-1.0) ** m * ((x1 - 1j * x2) / r) ** m
    else:
        azim = 1.0
    return norm * poly * azim


@dataclass(frozen=True)
class RadialPolynomial:
    """Degree-n polynomial from the terminating radial series, c0 = 1.

    Coefficients are in the scaled radius rho = r / r_nl of the quantum
    pair (n, l) and branch that produced them.
    """

    coefficients: tuple[float, ...]

    def __call__(self, rho):
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * rho + c
        return acc


def eta_exponent(l: int, alpha: float, branch: str = SOMMERFELD) -> float:
    """Fine-structure exponent 1/2 -/+ sqrt((l+1/2)^2 - alpha^2).

    The minus branch ("sommerfeld") behaves as -l + O(alpha^2); the plus
    branch ("hydrino") as l + 1 - O(alpha^2).
    """
    radicand = (l + 0.5) ** 2 - alpha * alpha
    if radicand < 0.0:
        raise BranchError(f"alpha = {alpha} >= l + 1/2 = {l + 0.5}: complex exponent")
    root = math.sqrt(radicand)
    if branch == SOMMERFELD:
        return 0.5 - root
    if branch == HYDRINO:
        return 0.5 + root
    raise BranchError(f"unknown branch: {branch!r}")


def radial_polynomial(n: int, l: int, alpha: float, branch: str = SOMMERFELD) -> RadialPolynomial:
    """Coefficient recurrence for the terminating radial series.

    Substituting R = r^{-eta} exp(-r/r_nl) p(r/r_nl) into the radial part
    of the Coulomb Klein-Gordon equation, with the quantized energy, the
    1/rho^2 terms cancel through the indicial identity
    eta(eta-1) = l(l+1) - alpha^2 and the constant term vanishes because
    the decay rate equals the bound-state momentum scale.  What remains is

        rho p'' + (2 - 2 eta - 2 rho) p' + 2 nu p = 0,  nu = S + eta - 1

    with S = E alpha r_nl / (hbar c), giving the two-term recurrence

        c_{m+1} = 2 (m - nu) / ((m + 1)(m + 2 - 2 eta)) c_m.

    At the quantized energy S = n + 1 - eta, so nu = n and the series
    terminates at degree n.
    """
    if n < 0 or l < 0:
        raise QuantumNumberError("n and l must be non-negative")
    eta = eta_exponent(l, alpha, branch)
    # quantized values (natural units cancel out of the recurrence)
    nu_q = n + 1.0 - eta
    # S = E alpha r_nl / (hbar c) = n + 1 - eta by the r_nl definition
    s_val = nu_q
    nu = s_val + eta - 1.0  # = n exactly
    coeffs = [1.0]
    for m in range(n):
        denom = (m + 1.0) * (m + 2.0 - 2.0 * eta)
        if abs(denom) < 1e-12:
            raise NoTerminationError(
                f"recurrence denominator vanishes at m = {m} (branch {branch}, l = {l})"
            )
        coeffs.append(2.0 * (m - nu) / denom * coeffs[m])
    # termination check: the (n+1)-th coefficient must vanish
    denom = (n + 1.0) * (n + 2.0 - 2.0 * eta)
    if abs(denom) < 1e-12:
        raise NoTerminationError(f"recurrence denominator vanishes at m = {n}")
    c_next = 2.0 * (n - nu) / denom * coeffs[n]
    if abs(c_next) > 1e-10 * max(abs(c) for c in coeffs):
        raise NoTerminationError(
            f"series does not terminate: c_{n + 1} = {c_next:.3e}"
        )
    return RadialPolynomial(tuple(coeffs))
