"""Jet arithmetic against closed-form derivative oracles, and its array
primitives against CPython's scalar arithmetic.

A jet seeded with ``dual.variables`` carries f(x), f'(x) and f''(x) in
its value, first-partial and second-partial rows; every oracle below is
an independently known derivative.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgconformal import dual

xs = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
xs_pos = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def jet(x):
    (out,) = dual.variables(np.array([x]))
    return out


def d2(f, x):
    out = f(jet(x))
    return out.v[0], out.g[0, 0], out.h[0, 0]


def test_exp_derivatives():
    v, d1, dd = d2(dual.exp, 0.7)
    e = math.exp(0.7)
    assert v == pytest.approx(e, rel=1e-15)
    assert d1 == pytest.approx(e, rel=1e-15)
    assert dd == pytest.approx(e, rel=1e-15)


def test_log_derivatives():
    v, d1, dd = d2(dual.log, 2.0)
    assert v == pytest.approx(math.log(2.0), rel=1e-15)
    assert d1 == pytest.approx(0.5, rel=1e-15)
    assert dd == pytest.approx(-0.25, rel=1e-15)


def test_sqrt_derivatives():
    v, d1, dd = d2(dual.sqrt, 4.0)
    assert v == pytest.approx(2.0, rel=1e-15)
    assert d1 == pytest.approx(0.25, rel=1e-15)
    assert dd == pytest.approx(-1.0 / 32.0, rel=1e-15)


def test_trig_derivatives():
    # exp(i x) = cos x + i sin x: its derivatives carry the trig oracles
    v, d1, dd = d2(lambda x: dual.exp(1j * x), 1.1)
    assert v == pytest.approx(complex(math.cos(1.1), math.sin(1.1)), rel=1e-14)
    assert d1 == pytest.approx(complex(-math.sin(1.1), math.cos(1.1)), rel=1e-14)
    assert dd == pytest.approx(complex(-math.cos(1.1), -math.sin(1.1)), rel=1e-14)


def test_powr_noninteger():
    p = 1.5
    v, d1, dd = d2(lambda x: dual.powr(x, p), 2.0)
    assert v == pytest.approx(2.0**p, rel=1e-15)
    assert d1 == pytest.approx(p * 2.0 ** (p - 1), rel=1e-15)
    assert dd == pytest.approx(p * (p - 1) * 2.0 ** (p - 2), rel=1e-15)


def test_int_pow_matches_repeated_product():
    x = jet(1.3)
    assert (x**5).h[0, 0] == pytest.approx((x * x * x * x * x).h[0, 0], rel=1e-14)
    assert (x**5).g[0, 0] == pytest.approx(5 * 1.3**4, rel=1e-14)


def test_complex_coefficients():
    # d/dx exp(i x) = i exp(i x)
    out = dual.exp(1j * jet(0.4))
    assert out.g[0, 0] == pytest.approx(1j * cmath.exp(0.4j), rel=1e-15)


def test_norm3_gradient():
    # d r / d x_i = x_i / r, every axis from one evaluation
    x1, x2, x3 = dual.variables(np.array([1.0]), np.array([2.0]), np.array([2.0]))
    out = dual.norm3(x1, x2, x3)
    assert out.v[0] == pytest.approx(3.0, rel=1e-15)
    assert out.g[:, 0] == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], rel=1e-15)


@given(xs, xs)
def test_product_rule(a, b):
    x = jet(a)
    f = dual.exp(0.3 * x)
    g = x * x + (2.0 + b)
    fg = f * g
    assert fg.g[0, 0] == pytest.approx(f.g[0, 0] * g.v[0] + f.v[0] * g.g[0, 0], rel=1e-12, abs=1e-12)
    # second derivative: f''g + 2f'g' + fg''
    want = f.h[0, 0] * g.v[0] + 2.0 * f.g[0, 0] * g.g[0, 0] + f.v[0] * g.h[0, 0]
    assert fg.h[0, 0] == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(xs_pos)
def test_exp_log_roundtrip(x):
    out = dual.exp(dual.log(jet(x)))
    assert out.v[0] == pytest.approx(x, rel=1e-13)
    assert out.g[0, 0] == pytest.approx(1.0, rel=1e-12, abs=1e-12)
    assert abs(out.h[0, 0]) < 1e-10 * max(1.0, 1.0 / x)


def test_reciprocal_and_division():
    x = jet(2.0)
    inv = 1.0 / x
    assert inv.v[0] == pytest.approx(0.5)
    assert inv.g[0, 0] == pytest.approx(-0.25)
    assert inv.h[0, 0] == pytest.approx(0.25)  # 2/x^3 at x=2


# -- array primitives round as CPython's scalar arithmetic ------------------

RNG = np.random.default_rng(20101)
REALS = RNG.normal(size=2000) * 3.0
POSITIVE = np.abs(REALS) + 1e-3
COMPLEX = REALS + 1j * RNG.normal(size=2000) * 3.0
COMPLEX2 = RNG.normal(size=2000) * 3.0 + 1j * RNG.normal(size=2000)


def test_complex_product_is_cpython_exact():
    want = [a * b for a, b in zip(COMPLEX.tolist(), COMPLEX2.tolist())]
    assert dual.mul(COMPLEX, COMPLEX2).tolist() == want
    scalar = 0.3 - 1.7j
    assert dual.mul(scalar, COMPLEX).tolist() == [scalar * b for b in COMPLEX.tolist()]


def test_reciprocal_is_cpython_exact():
    x, y = dual.variables(REALS, COMPLEX2.imag)
    for z, values in ((x, REALS), (x + 1j * y, REALS + 1j * COMPLEX2.imag)):
        assert (1.0 / z).v.tolist() == [1.0 / v for v in values.tolist()]


def test_exp_log_pow_are_cpython_exact():
    assert dual.exp(REALS).tolist() == [math.exp(v) for v in REALS.tolist()]
    assert dual.exp(COMPLEX).tolist() == [cmath.exp(v) for v in COMPLEX.tolist()]
    assert dual.log(POSITIVE).tolist() == [math.log(v) for v in POSITIVE.tolist()]
    assert dual.log(COMPLEX).tolist() == [cmath.log(v) for v in COMPLEX.tolist()]
    for p in (-0.3, 0.5, 2.0, 2.7):
        assert dual.powr(POSITIVE, p).tolist() == [v**p for v in POSITIVE.tolist()]
        assert dual.powr(COMPLEX, p).tolist() == [v**p for v in COMPLEX.tolist()]
    assert dual.modulus(COMPLEX).tolist() == [abs(v) for v in COMPLEX.tolist()]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_array_constant_is_each_points_scalar(kind):
    """A jet combined with an (n,) array constant equals, point by point,
    the jet combined with that point's scalar, bit for bit."""
    rng = np.random.default_rng(11)
    n = 7
    x, y = dual.variables(rng.uniform(-2.0, 2.0, n), rng.uniform(0.5, 2.0, n))
    base = dual.exp(-1j * 0.7 * y) * x if kind == "complex" else x * x + y
    consts = rng.uniform(-3.0, 3.0, n)
    if kind == "complex":
        consts = consts + 1j * rng.uniform(-3.0, 3.0, n)
    ops = (
        lambda j, c: j + c, lambda j, c: c + j, lambda j, c: j - c, lambda j, c: c - j,
        lambda j, c: j * c, lambda j, c: c * j, lambda j, c: j / c,
    )
    for op in ops:
        batched = op(base, consts).c
        for i, c in enumerate(consts.tolist()):
            single = op(dual.HyperDual(base.c[:, i : i + 1]), c).c[:, 0]
            assert np.array_equal(batched[:, i], single)
