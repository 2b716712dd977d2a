import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from kgconformal import dual
from kgconformal.core import QuantumNumberError
from kgconformal.specfun import (
    HYDRINO,
    SOMMERFELD,
    HermiteLadder,
    eta_exponent,
    hermite,
    radial_polynomial,
    sph_harm_cartesian,
)

ALPHA = 0.0072973525693


def hermite_series(l, x):
    """Independent oracle: the explicit Hermite sum, no recurrence."""
    acc = 0.0
    for m in range(l // 2 + 1):
        acc += (-1) ** m / (math.factorial(m) * math.factorial(l - 2 * m)) * (2 * x) ** (l - 2 * m)
    return math.factorial(l) * acc


def test_hermite_low_order_oracles():
    # H4(x) = 16x^4 - 48x^2 + 12, so H4(1) = -20
    assert hermite(4, 1.0) == pytest.approx(-20.0, abs=1e-12)
    assert hermite(0, 0.7) == 1.0
    assert hermite(1, 0.7) == pytest.approx(1.4)
    assert hermite(3, 0.5) == pytest.approx(8 * 0.125 - 12 * 0.5)


@given(st.integers(min_value=0, max_value=10), st.floats(min_value=-3.0, max_value=3.0))
@settings(max_examples=80)
def test_hermite_matches_series_oracle(l, x):
    assert hermite(l, x) == pytest.approx(hermite_series(l, x), rel=1e-10, abs=1e-9)


@given(st.integers(min_value=0, max_value=9), st.floats(min_value=0.0, max_value=3.0))
def test_hermite_parity(l, x):
    assert hermite(l, -x) == pytest.approx((-1.0) ** l * hermite(l, x), rel=1e-12, abs=1e-10)


def _parts(h):
    """The arrays of a Hermite value: a jet's coefficients, or the value."""
    return np.asarray(getattr(h, "c", h))


XI_KINDS = {
    "float": lambda: 0.73,
    "table": lambda: np.linspace(-3.0, 3.0, 33 * 5).reshape(33, 5),
    "jet": lambda: dual.exp(dual.variables(np.linspace(-1.5, 1.2, 7))[0]),
}


@pytest.mark.parametrize("kind", sorted(XI_KINDS))
@pytest.mark.parametrize("order", [range(9), [6, 2, 8, 0, 7, 1, 3, 5, 4]], ids=["rising", "6-then-2"])
def test_a_resumed_ladder_gives_every_degree_of_a_fresh_call(kind, order):
    """Each degree taken from one ladder, in any order, equals with == what
    a fresh recurrence gives, on floats, (33, n) tables and jets."""
    ladder = HermiteLadder(XI_KINDS[kind]())
    for l in order:
        got = hermite(l, ladder)
        assert np.array_equal(_parts(got), _parts(hermite(l, XI_KINDS[kind]()))), l
    assert len(ladder.terms) == 9 and ladder.terms[6] is hermite(6, ladder)


def test_a_ladder_extends_by_the_missing_steps_only():
    ladder = HermiteLadder(np.array([0.5, 1.5]))
    hermite(6, ladder)
    kept = list(ladder.terms)
    hermite(2, ladder)
    assert len(ladder.terms) == 7 and all(a is b for a, b in zip(ladder.terms, kept))
    hermite(7, ladder)
    assert len(ladder.terms) == 8 and all(a is b for a, b in zip(ladder.terms, kept))


@pytest.mark.parametrize("kind", ["table", "jet"])
def test_kept_ladder_terms_are_read_only(kind):
    ladder = HermiteLadder(XI_KINDS[kind]())
    hermite(4, ladder)
    for value in [ladder.xi] + ladder.terms[1:]:
        with pytest.raises(ValueError, match="read-only"):
            _parts(value)[...] = 0.0


def test_a_fresh_call_freezes_its_value_not_its_argument():
    xi = np.array([0.25, 2.0])
    assert not hermite(3, xi).flags.writeable and xi.flags.writeable


def spherical_harmonic(l, k, theta, phi):
    """Y_lk(theta, phi): sph_harm_cartesian at that point of the unit sphere."""
    x1, x2 = math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi)
    return complex(sph_harm_cartesian(l, k, x1, x2, math.cos(theta)))


def test_sph_harm_frozen_oracles():
    # Y00 = 1/sqrt(4 pi); Y11 at theta = pi/2, phi = 0 is -sqrt(3/(8 pi))
    assert spherical_harmonic(0, 0, 1.0, 2.0) == pytest.approx(0.28209479177387814, abs=1e-14)
    assert spherical_harmonic(1, 1, math.pi / 2, 0.0) == pytest.approx(
        -0.34549414947133547, abs=1e-13
    )
    # Y10 = sqrt(3/4pi) cos(theta)
    assert spherical_harmonic(1, 0, 0.3, 1.7) == pytest.approx(
        math.sqrt(3.0 / (4.0 * math.pi)) * math.cos(0.3), abs=1e-13
    )


@pytest.mark.parametrize("l,k", [(1, 1), (2, 0), (2, -1), (3, 2)])
def test_sph_harm_quadrature_normalization(l, k):
    """Unit L2 norm on the sphere, checked by adaptive quadrature."""

    def integrand(phi, theta):
        return abs(spherical_harmonic(l, k, theta, phi)) ** 2 * math.sin(theta)

    norm, est = dblquad(integrand, 0.0, math.pi, 0.0, 2.0 * math.pi, epsabs=1e-10)
    assert norm == pytest.approx(1.0, abs=1e-8)


def test_sph_harm_orthogonality():
    def integrand(phi, theta):
        a = spherical_harmonic(2, 1, theta, phi)
        b = spherical_harmonic(1, 1, theta, phi)
        return (a.conjugate() * b).real * math.sin(theta)

    val, _ = dblquad(integrand, 0.0, math.pi, 0.0, 2.0 * math.pi, epsabs=1e-10)
    assert abs(val) < 1e-8


def test_sph_harm_scale_invariance():
    # depends only on direction
    a = sph_harm_cartesian(2, 1, 0.3, -0.4, 0.8)
    b = sph_harm_cartesian(2, 1, 3.0, -4.0, 8.0)
    assert complex(a) == pytest.approx(complex(b), rel=1e-12)


def test_eta_exponent_branches():
    eta_s = eta_exponent(0, ALPHA, SOMMERFELD)
    eta_h = eta_exponent(0, ALPHA, HYDRINO)
    # the two indicial roots of eta(1 - eta) = alpha^2 sum to 1
    assert eta_s + eta_h == pytest.approx(1.0, abs=1e-14)
    assert eta_s == pytest.approx(0.5 - math.sqrt(0.25 - ALPHA**2), abs=1e-16)
    assert 0.0 < eta_s < 1e-4
    assert eta_s * (1.0 - eta_s) == pytest.approx(ALPHA**2, abs=1e-16)


def test_eta_exponent_bad_alpha():
    with pytest.raises(Exception):
        eta_exponent(0, 0.6, SOMMERFELD)  # sqrt argument negative at l = 0


@pytest.mark.parametrize("n,l", [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2)])
def test_radial_polynomial_recurrence_and_termination(n, l):
    poly = radial_polynomial(n, l, ALPHA, SOMMERFELD)
    c = poly.coefficients
    assert len(c) == n + 1
    assert c[0] == 1.0
    eta = eta_exponent(l, ALPHA, SOMMERFELD)
    for m in range(n):
        want = 2.0 * (m - n) / ((m + 1) * (m + 2 - 2 * eta))
        assert c[m + 1] / c[m] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("n,l", [(1, 0), (2, 0), (0, 1), (2, 1)])
def test_radial_polynomial_ode_residual(n, l):
    """p solves rho p'' + (2 - 2 eta - 2 rho) p' + 2 n p = 0."""
    poly = radial_polynomial(n, l, ALPHA, SOMMERFELD)
    eta = eta_exponent(l, ALPHA, SOMMERFELD)
    c = np.array(poly.coefficients)
    dp = np.polynomial.polynomial.polyder(c)
    ddp = np.polynomial.polynomial.polyder(c, 2)
    pv = np.polynomial.polynomial.polyval
    for rho in (0.1, 0.7, 1.3, 2.9):
        res = (
            rho * pv(rho, ddp)
            + (2.0 - 2.0 * eta - 2.0 * rho) * pv(rho, dp)
            + 2.0 * n * pv(rho, c)
        )
        assert abs(res) < 1e-11 * max(1.0, abs(pv(rho, c)))


def test_radial_polynomial_callable_matches_coefficients():
    poly = radial_polynomial(2, 1, ALPHA, SOMMERFELD)
    got = poly(0.8)
    want = sum(ci * 0.8**i for i, ci in enumerate(poly.coefficients))
    assert got == pytest.approx(want, rel=1e-14)


def test_hydrino_branch_recurrence():
    """The other indicial branch also terminates, with amplified c_m.

    For l >= 1 the denominator m + 2 - 2 eta passes within O(alpha^2) of
    zero near m = 2l, so the coefficients blow up by ~1/alpha^2 but the
    series still terminates exactly at degree n (nu = n holds on both
    branches).
    """
    poly = radial_polynomial(3, 1, ALPHA, HYDRINO)
    assert len(poly.coefficients) == 4
    eta = eta_exponent(1, ALPHA, HYDRINO)
    c = poly.coefficients
    for m in range(3):
        want = 2.0 * (m - 3) / ((m + 1) * (m + 2 - 2 * eta))
        assert c[m + 1] / c[m] == pytest.approx(want, rel=1e-12)
    # the near-resonant step m = 2l amplifies by about (2l+1)/alpha^2
    assert abs(c[3] / c[2]) > 1e4


def test_quantum_number_validation():
    with pytest.raises(QuantumNumberError):
        radial_polynomial(-1, 0, ALPHA, SOMMERFELD)
    with pytest.raises(QuantumNumberError):
        spherical_harmonic(1, 2, 0.5, 0.5)
