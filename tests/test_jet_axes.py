"""Jets that record their axes (``dual.HyperDual.axes``).

A product with an operand of one axis, and a lift of a jet of one axis,
compute only that axis's rows.  So: the mask must never hide a nonzero
row, the one-axis paths must give what the general formulas give on the
same jets, and the rows they skip must stay skipped.
"""

import operator

import numpy as np
import pytest
from hypothesis import assume, find, given, settings, strategies as st

from kgconformal import dual
from kgconformal.core import PointSet
from kgconformal.diffengine import MODE_EXACT, DiffConfig
from kgconformal.dual import HyperDual
from kgconformal.harness import SUITES, run_suite

N = 5
_rng = np.random.default_rng(26)
#: four seed jets on N points, each as one tile of N points: c is (9, 1, N)
SEEDS = [dual.reshape_points(x, (1, N)) for x in dual.variables(*_rng.uniform(0.5, 1.5, (4, N)))]
CONSTANTS = {"real": _rng.uniform(-2.0, 2.0, N), "complex": _rng.uniform(-2.0, 2.0, N) + 1j * _rng.uniform(-2.0, 2.0, N)}

# An expression is a nested tuple: ("x", j) is seed jet j, ("c", value) a
# constant (a scalar, or an (N,) array named in CONSTANTS), and (op, ...)
# applies an operation of OPS to its operands.
leaves = st.one_of(
    st.tuples(st.just("x"), st.integers(0, 3)),
    st.tuples(st.just("c"), st.sampled_from([0.7, -1.5, 0.4 - 1.3j, "real", "complex"])),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/", "join"]), children, children),
        st.tuples(st.sampled_from(["neg", "exp", "log", "sqrt", "reshape"]), children),
        st.tuples(st.just("**"), children, st.integers(-2, 3)),
        st.tuples(st.just("powr"), children, st.sampled_from([0.5, 1.5, 2.0, -0.7, 3.0])),
    )


expressions = st.recursive(leaves, _extend, max_leaves=10)


def _positive(e):
    """e e + 1: positive for a real e, so log, sqrt, powers and quotients are defined."""
    return e * e + 1.0


def _join(a, b):
    """a and b as the two tiles of one jet, when both are jets or scalars of
    one tile (and not two scalars); a * b otherwise."""
    one_tile = [isinstance(p, (int, float, complex)) or (isinstance(p, HyperDual) and p.c.shape[1] == 1) for p in (a, b)]
    if not all(one_tile) or not any(isinstance(p, HyperDual) for p in (a, b)):
        return a * b
    return dual.reshape_points(dual.join_tiles([a, b]), (2, N), axes=2)


OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": lambda a, b: a / _positive(b),
    "join": _join,
    "neg": operator.neg,
    "exp": dual.exp,
    "log": lambda a: dual.log(_positive(a)),
    "sqrt": lambda a: dual.sqrt(_positive(a)),
    "reshape": lambda a: dual.reshape_points(dual.reshape_points(a, (-1,), axes=2), (-1, N)),
    "**": lambda a, n: _positive(a) ** n,
    "powr": lambda a, p: dual.powr(_positive(a), p),
}


def evaluate(expr, seeds):
    if expr[0] == "x":
        return seeds[expr[1]]
    if expr[0] == "c":
        return CONSTANTS.get(expr[1], expr[1]) if isinstance(expr[1], str) else expr[1]
    return OPS[expr[0]](*(evaluate(e, seeds) if isinstance(e, tuple) else e for e in expr[1:]))


def agree(expr, seeds):
    """Whether ``expr`` on ``seeds`` has the coefficients it has on the same
    jets rebuilt with the all-axes mask, which take the general formulas;
    None where those are not all finite."""
    general_seeds = [HyperDual(s.c) for s in seeds]
    with np.errstate(all="ignore"):
        try:
            got, want = (evaluate(expr, s) for s in (seeds, general_seeds))
        except (OverflowError, ZeroDivisionError):
            return None
    got, want = (np.asarray(getattr(x, "c", x)) for x in (got, want))
    if not np.isfinite(want).all():
        return None
    return got.dtype == want.dtype and got.shape == want.shape and bool((got == want).all())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(expressions)
def test_one_axis_paths_give_the_general_formulas_coefficients(expr):
    """== on every coefficient: the one-axis paths round every row they keep
    as the general formulas do, and the rows they skip are 0 there too (a
    zero's sign aside, which == does not see)."""
    verdict = agree(expr, SEEDS)
    assume(verdict is not None)
    assert verdict


def test_a_jet_that_claims_the_wrong_axis_fails_the_comparison():
    """A jet that depends on axis 1 but claims axis 0 loses its axis-1 rows
    on the one-axis paths, and the comparison above finds it."""
    liar = HyperDual(SEEDS[1].c, SEEDS[0].axes)
    seeds = [SEEDS[0], liar] + SEEDS[2:]
    assert agree(("exp", ("x", 1)), seeds) is False
    found = find(expressions, lambda e: agree(e, seeds) is False,
                 settings=settings(max_examples=400, derandomize=True, database=None))
    assert agree(found, SEEDS) is True


def _mul_elements(monkeypatch, f):
    """f(), and the number of elements that passed through dual.mul in it."""
    mul, elements = dual.mul, [0]

    def counted(a, b):
        out = mul(a, b)
        elements[0] += np.size(out)
        return out

    monkeypatch.setattr(dual, "mul", counted)
    out = f()
    monkeypatch.setattr(dual, "mul", mul)
    return out, elements[0]


def test_a_product_takes_the_one_axis_path_on_either_side(monkeypatch):
    """x * y and y * x, x of one axis and y of three, both skip x's zero
    rows, and give the same coefficients as the general formula."""
    x, y = SEEDS[0], SEEDS[1] * SEEDS[2] + SEEDS[3]
    (xy, left), (yx, right), (general, full) = (
        _mul_elements(monkeypatch, lambda: a * b) for a, b in ((x, y), (y, x), (HyperDual(x.c), y))
    )
    assert np.array_equal(xy.c, general.c) and np.array_equal(yx.c, general.c)
    assert left == right < full


def test_no_jet_of_the_nine_suites_hides_a_nonzero_row(monkeypatch):
    """Every jet the nine suites build in exact mode is 0 on the rows of
    every axis outside its mask."""
    init, masks, hidden = HyperDual.__init__, set(), []

    def checked(self, c, axes=-1):
        init(self, c, axes)
        k = len(c) // 2
        masks.add(axes)
        for j in range(k):
            if not axes >> j & 1 and (c[1 + j].any() or c[1 + k + j].any()):
                hidden.append((axes, j))

    monkeypatch.setattr(HyperDual, "__init__", checked)
    for suite in SUITES:
        run_suite(suite, cfg=DiffConfig(MODE_EXACT))
    assert hidden == []
    assert {1, 2, 4, 8} <= masks and len(masks) > 5  # not vacuous: every one-axis mask, and unions


#: elements through dual.mul in a default exact run before jets recorded
#: their axes, and at most with them (0.57 and 0.72 of the first)
MUL_ELEMENTS = {"oscillator-x": (377_640, 217_080), "operator-identities": (174_900, 125_700)}


@pytest.mark.parametrize("suite", sorted(MUL_ELEMENTS))
def test_one_axis_paths_skip_the_zero_rows(monkeypatch, suite):
    report, elements = _mul_elements(monkeypatch, lambda: run_suite(suite))
    before, ceiling = MUL_ELEMENTS[suite]
    assert report.passed and elements <= ceiling < 0.75 * before


def test_an_exact_oscillator_run_builds_no_tiled_coordinates(monkeypatch):
    """oscillator-x evaluates its tiled fields on the base grid's jets and
    takes r from the base grid, so no tiled grid builds its coordinates."""
    tiled, grids = PointSet.tiled, []

    def recorded(self, tiles):
        grids.append(tiled(self, tiles))
        return grids[-1]

    monkeypatch.setattr(PointSet, "tiled", recorded)
    assert run_suite("oscillator-x", cfg=DiffConfig(MODE_EXACT)).passed
    assert grids and not [g for g in grids if "coords" in vars(g) or "radii" in vars(g)]
