"""Jet arithmetic against closed-form derivative oracles, and its array
primitives against CPython's scalar arithmetic.

A jet seeded with ``dual.variables`` carries f(x), f'(x) and f''(x) in
its value, first-partial and second-partial rows; every oracle below is
an independently known derivative.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgconformal import dual
from kgconformal.core import ComplexField, PointSet
from kgconformal.diffengine import MODE_EXACT, DiffConfig, _diff

from conftest import grad, hess

xs = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
xs_pos = st.floats(min_value=0.05, max_value=5.0, allow_nan=False)


def jet(x):
    (out,) = dual.variables(np.array([x]))
    return out


def d2(f, x):
    out = f(jet(x))
    return out.v[0], grad(out)[0, 0], hess(out)[0, 0]


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


def test_powr_takes_integer_powers_of_jets_as_products():
    """An integer-valued real exponent of a jet gives the jet's own products,
    coefficient for coefficient, and the power 0 the constant 1."""
    rng = np.random.default_rng(24)
    r = dual.norm3(*dual.variables(*rng.uniform(0.2, 3.0, (3, 50)))) / 1.7
    assert np.array_equal(dual.powr(r, 2.0).c, (r * r).c)
    assert np.array_equal(dual.powr(r, 3.0).c, (r**3).c)
    assert np.array_equal(dual.powr(r, 1.0).c, r.c)
    assert dual.powr(r, 0.0) == 1.0


def test_int_pow_matches_repeated_product():
    x = jet(1.3)
    assert hess(x**5)[0, 0] == pytest.approx(hess(x * x * x * x * x)[0, 0], rel=1e-14)
    assert grad(x**5)[0, 0] == pytest.approx(5 * 1.3**4, rel=1e-14)


def test_complex_coefficients():
    # d/dx exp(i x) = i exp(i x)
    out = dual.exp(1j * jet(0.4))
    assert grad(out)[0, 0] == pytest.approx(1j * cmath.exp(0.4j), rel=1e-15)


def test_norm3_gradient():
    # d r / d x_i = x_i / r, every axis from one evaluation
    x1, x2, x3 = dual.variables(np.array([1.0]), np.array([2.0]), np.array([2.0]))
    out = dual.norm3(x1, x2, x3)
    assert out.v[0] == pytest.approx(3.0, rel=1e-15)
    assert grad(out)[:, 0] == pytest.approx([1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0], rel=1e-15)


@given(xs, xs)
def test_product_rule(a, b):
    x = jet(a)
    f = dual.exp(0.3 * x)
    g = x * x + (2.0 + b)
    fg = f * g
    assert grad(fg)[0, 0] == pytest.approx(grad(f)[0, 0] * g.v[0] + f.v[0] * grad(g)[0, 0], rel=1e-12, abs=1e-12)
    # second derivative: f''g + 2f'g' + fg''
    want = hess(f)[0, 0] * g.v[0] + 2.0 * grad(f)[0, 0] * grad(g)[0, 0] + f.v[0] * hess(g)[0, 0]
    assert hess(fg)[0, 0] == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(xs_pos)
def test_exp_log_roundtrip(x):
    out = dual.exp(dual.log(jet(x)))
    assert out.v[0] == pytest.approx(x, rel=1e-13)
    assert grad(out)[0, 0] == pytest.approx(1.0, rel=1e-12, abs=1e-12)
    assert abs(hess(out)[0, 0]) < 1e-10 * max(1.0, 1.0 / x)


def test_reciprocal_and_division():
    x = jet(2.0)
    inv = 1.0 / x
    assert inv.v[0] == pytest.approx(0.5)
    assert grad(inv)[0, 0] == pytest.approx(-0.25)
    assert hess(inv)[0, 0] == pytest.approx(0.25)  # 2/x^3 at x=2


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
    """Squares are CPython's products and square roots its sqrt; other
    powers are CPython's **."""
    assert dual.exp(REALS).tolist() == [math.exp(v) for v in REALS.tolist()]
    assert dual.exp(COMPLEX).tolist() == [cmath.exp(v) for v in COMPLEX.tolist()]
    assert dual.log(POSITIVE).tolist() == [math.log(v) for v in POSITIVE.tolist()]
    assert dual.log(COMPLEX).tolist() == [cmath.log(v) for v in COMPLEX.tolist()]
    for p in (-0.3, 1.0, 2.7):
        assert dual.powr(POSITIVE, p).tolist() == [v**p for v in POSITIVE.tolist()]
        assert dual.powr(COMPLEX, p).tolist() == [v**p for v in COMPLEX.tolist()]
    for values, root in ((POSITIVE, math.sqrt), (COMPLEX, cmath.sqrt)):
        assert dual.powr(values, 2.0).tolist() == [v * v for v in values.tolist()]
        assert dual.powr(values, 0.5).tolist() == [root(v) for v in values.tolist()]


def _nearest_double(x: float, below, above) -> bool:
    """``below(f)`` and ``above(f)`` tell whether the exact value lies below or
    above a Fraction f; x is correctly rounded iff the exact value lies
    between the midpoints to x's two neighbours."""
    lo, hi = (Fraction(math.nextafter(x, inf)) for inf in (-math.inf, math.inf))
    return not below((lo + Fraction(x)) / 2) and not above((Fraction(x) + hi) / 2)


def test_squares_and_roots_are_correctly_rounded():
    """powr(x, 2) and powr(x, 0.5), on arrays and on floats, are the doubles
    nearest to x^2 and to the square root of x, checked in exact rational
    arithmetic on 10,000 random doubles, among them ones where libm's pow
    rounds otherwise."""
    rng = np.random.default_rng(2026)
    x = rng.uniform(1.0, 2.0, 10_000) * 2.0 ** rng.integers(-400, 400, 10_000).astype(float)
    squares, roots = dual.powr(x, 2), dual.powr(x, 0.5)
    assert np.array_equal(squares, [dual.powr(v, 2) for v in x.tolist()])
    assert np.array_equal(roots, [dual.powr(v, 0.5) for v in x.tolist()])
    pow_squares, pow_roots = (np.array([v**p for v in x.tolist()]) for p in (2, 0.5))
    assert np.sum(pow_squares != squares) >= 3 and np.sum(pow_roots != roots) >= 3
    for v, sq, root in zip(x.tolist(), squares.tolist(), roots.tolist()):
        exact = Fraction(v) ** 2
        assert _nearest_double(sq, lambda f: exact < f, lambda f: exact > f), v
        # the midpoints of the root's neighbours, squared, straddle v
        assert _nearest_double(root, lambda f: v < f * f, lambda f: v > f * f), v


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_per_element_helpers_keep_2d_shape(kind):
    """log, sqrt and pow on a (3, 4) array: each element as math, cmath or
    ** gives it, bit for bit, in the array's shape."""
    x = POSITIVE[:12].reshape(3, 4) if kind == "real" else COMPLEX[:12].reshape(3, 4)
    lib = math if kind == "real" else cmath
    helpers = (
        (dual._log, lib.log), (dual._sqrt, lib.sqrt),
        (lambda a: dual._pow(a, 0.7), lambda v: v**0.7), (lambda a: dual._pow(a, -2.3), lambda v: v**-2.3),
    )
    for helper, scalar in helpers:
        got = helper(x)
        assert got.shape == (3, 4)
        assert got.tolist() == [[scalar(v) for v in row] for row in x.tolist()]


# -- _each: CPython once per distinct bit pattern --------------------------


class CountedCall:
    """``f``, counting its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, *args):
        self.calls += 1
        return self.f(*args)


def _bits(a) -> list:
    """The bytes of each element of ``a``, in order: equal lists are equal bit for bit."""
    return [v.tobytes() for v in np.ravel(a)]


_REPEATED = np.tile(POSITIVE[:5], (4, 1))
#: (f, x, extra arguments): repeats, both zeros, NaNs of either sign, the two
#: sides of sqrt's branch cut, empty and non-contiguous arrays
EACH_INPUTS = {
    "repeats": (math.log, _REPEATED, ()),
    "pow": (pow, _REPEATED, (0.7,)),
    "signed-zeros": (math.atan2, np.array([0.0, -0.0, 0.0, 1.0, -0.0]), (-1.0,)),
    "nan": (math.log, np.array([np.nan, 2.0, -np.nan, np.nan, 2.0, -np.nan]), ()),
    "branch-cut": (cmath.sqrt, np.array([complex(-4.0, -0.0), complex(-4.0, 0.0), complex(-4.0, -0.0)]), ()),
    "complex-repeats": (cmath.log, COMPLEX[[0, 3, 0, 5, 3, 3]], ()),
    "empty": (math.log, np.empty((0, 3)), ()),
    "transposed": (math.log, _REPEATED.T, ()),
    "strided-real-part": (math.log, np.tile(COMPLEX[:5] + 9.0, 3).real, ()),
    "strided-complex": (cmath.sqrt, np.tile(COMPLEX[:4], (3, 2))[:, ::3], ()),
}


@pytest.mark.parametrize("case", sorted(EACH_INPUTS))
def test_each_is_the_per_element_map_once_per_distinct_bit_pattern(case):
    f, x, args = EACH_INPUTS[case]
    counted = CountedCall(f)
    got = dual._each(counted, x, *args)
    want = np.array([f(v, *args) for v in x.ravel().tolist()], dtype=np.result_type(x, 0.0)).reshape(x.shape)
    assert got.shape == x.shape and got.dtype == want.dtype
    assert _bits(got) == _bits(want)
    assert counted.calls == len(set(_bits(x)))


def test_the_inputs_above_hold_what_they_name():
    """Repeats, both zeros and NaNs of both signs are there, and the two sides
    of the cut give roots of opposite sign."""
    assert len(set(_bits(_REPEATED))) == 5 < _REPEATED.size
    assert len(set(_bits(EACH_INPUTS["signed-zeros"][1]))) == 3
    assert len(set(_bits(EACH_INPUTS["nan"][1]))) == 3
    below, above, _ = (cmath.sqrt(v) for v in EACH_INPUTS["branch-cut"][1].tolist())
    assert below == -above != 0
    assert not EACH_INPUTS["strided-real-part"][1].flags.contiguous


pool = st.sampled_from([0.0, -0.0, 1.5, -2.5, math.inf, -math.inf, math.nan, -math.nan, 1e-310, 7.0])


@given(st.lists(pool, max_size=40), st.lists(pool, max_size=40))
def test_each_matches_the_per_element_map_on_drawn_arrays(re, im):
    z = np.empty(min(len(re), len(im)), dtype=complex)
    z.real, z.imag = re[: len(z)], im[: len(z)]
    for x, f in ((np.array(re, dtype=float), lambda v: math.atan2(v, -1.0)), (z, cmath.sqrt)):
        counted = CountedCall(f)
        got = dual._each(counted, x)
        assert _bits(got) == _bits(np.array([f(v) for v in x.tolist()], dtype=x.dtype))
        assert counted.calls == len(set(_bits(x)))


@pytest.mark.parametrize("x", [np.array([2.0, 1e300, 2.0]), np.array([2.0 + 1j, 1e300 + 1j, 2.0 + 1j])])
def test_each_raises_what_the_per_element_map_raises(x):
    with pytest.raises(OverflowError):
        [pow(v, 2.5) for v in x.tolist()]
    with pytest.raises(OverflowError):
        dual._each(pow, x, 2.5)


def test_modulus_is_cpython_abs():
    """Across magnitudes 1e-300 to 1e300, where np.abs rounds otherwise."""
    rng = np.random.default_rng(31)
    wide = (rng.normal(size=20000) + 1j * rng.normal(size=20000)) * 10.0 ** rng.uniform(-300, 300, 20000)
    for values in (COMPLEX, wide, REALS, wide.real):
        want = [abs(v) for v in values.tolist()]
        assert dual.modulus(values).tolist() == want
    assert np.abs(wide).tolist() != [abs(v) for v in wide.tolist()]


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


# -- the memo of one call_on ------------------------------------------------


class Counted:
    """A ``make`` for ``dual.cached`` that counts its calls."""

    def __init__(self, value):
        self.value, self.calls = value, 0

    def __call__(self):
        self.calls += 1
        return self.value


def test_memo_hit_returns_the_identical_object():
    jets = dual.variables(REALS[:5], REALS[5:10])
    make = Counted(dual.exp(-1j * jets[1]))

    def field(x, t):
        first = dual.cached((t,), ("phase", 2.0), make)
        assert dual.cached((t,), ("phase", 2.0), make) is first

    dual.call_on(field, jets, {})
    assert make.calls == 1


def test_memo_recomputes_for_another_key_or_another_argument():
    jets = dual.variables(REALS[:5], REALS[5:10])
    (other_x,) = dual.variables(REALS[:5])  # the same coordinates, another call
    make = Counted(jets[0] * jets[0])

    def field(x, y):
        dual.cached((x,), ("square", 0), make)
        dual.cached((x,), ("square", 1), make)
        assert make.calls == 2
        dual.cached((y,), ("square", 1), make)
        assert make.calls == 3
        dual.cached((other_x,), ("square", 1), make)
        assert make.calls == 4
        dual.cached((x, y), ("square", 1), make)
        assert make.calls == 5
        # a jet that is not an argument of the call keeps nothing
        dual.cached((x, other_x), ("pair", 0), make)
        dual.cached((x, other_x), ("pair", 0), make)
        assert make.calls == 7

    dual.call_on(field, jets, {})


def test_memo_keeps_nothing_for_plain_arguments():
    (x,) = dual.variables(REALS[:5])
    table = np.repeat(REALS[np.newaxis, :5], 33, axis=0)  # a stencil mode argument, (33, n)

    def field(x):
        for arg in (0.7, REALS[:5], table, x * 1.0):
            make = Counted(1.0)
            for _ in range(3):
                dual.cached((arg,), ("key",), make)
            assert make.calls == 3

    memo = {}
    dual.call_on(field, (x,), memo)
    assert memo == {}


def test_seed_jets_and_kept_values_are_read_only():
    x, t = dual.variables(REALS[:5], REALS[5:10])
    kept = dual.call_on(lambda x, t: dual.cached((t,), ("phase",), lambda: dual.exp(-1j * t)), (x, t), {})
    for jet in (x, t, kept):
        with pytest.raises(ValueError):
            jet.c[0, 0] = 1.0
        with pytest.raises(ValueError):
            jet.c += 1.0
    # arithmetic on them still makes new, writable jets
    out = kept * x
    out.c[0, 0] = 1.0


def test_two_grids_share_no_memo():
    """Two grids of the same points each keep their own seed jets and memo."""
    grids = [PointSet(*REALS[:20].reshape(4, 5)) for _ in range(2)]
    make = Counted(2.0)
    field = ComplexField(lambda x1, x2, x3, t: t * dual.cached((t,), ("key",), make))
    for grid in grids:
        _diff(field, grid, DiffConfig(MODE_EXACT))
    (_, first, _, first_memo), (_, second, _, second_memo) = (grid.kept for grid in grids)
    assert first_memo is not second_memo and first[3] is not second[3]
    assert make.calls == 2
    assert len(first_memo) == len(second_memo) == 1


def test_memo_keeps_values_for_the_rows_of_call_on_during_the_call_only():
    """Inside ``call_on`` the rows themselves, by identity, name a memo
    entry; an equal copy of a row, or a row with another array, does not."""
    rows = tuple(dual.frozen(np.repeat(REALS[np.newaxis, :5] + k, 33, axis=0)) for k in range(4))
    memo, make = {}, Counted(np.ones(5))

    def field(x1, x2, x3, t):
        first = dual.cached((t,), ("phase",), make)
        assert dual.cached((t,), ("phase",), make) is first
        dual.cached((x1, t), ("pair",), make)
        dual.cached((x1.copy(),), ("phase",), make)
        dual.cached((x1, x1 * 1.0), ("pair",), make)
        return first

    kept = dual.call_on(field, rows, memo)
    assert make.calls == 4
    assert sorted(memo) == [(("pair",), (0, 3)), (("phase",), (3,))]
    assert memo[(("phase",), (3,))] is kept and not kept.flags.writeable
    # after the call the rows are plain arrays again
    dual.cached((rows[3],), ("phase",), make)
    assert make.calls == 5
    assert dual.call_on(field, rows, memo) is kept and make.calls == 7
