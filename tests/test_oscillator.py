import cmath
import math
from functools import partial

import numpy as np
import pytest

from kgconformal.confmap import Read, Sample, evaluate
from kgconformal.core import ConfigError, PointSet, QuantumNumberError, natural_units
from kgconformal.diffengine import _diff
from kgconformal.harness import Grid
from kgconformal import dual
from kgconformal import oscillator as ho
from kgconformal.specfun import HermiteLadder, hermite

from conftest import grad, hess, point_rows

MODEL = ho.OscillatorModel(omega=1.0, units=natural_units())
POINTS = Grid(r_min=0.1, r_max=4.0, shells=8).points()


def test_spectrum_frozen_oracles():
    # E_n = sqrt(2 Omega (3/2 + n) + 1) in natural units with Omega = 1:
    # n = 0..3 gives 2, sqrt(6), sqrt(8), sqrt(10)
    assert ho.energy(MODEL, 0) == pytest.approx(2.0, abs=1e-15)
    assert ho.energy(MODEL, 1) == pytest.approx(2.449489742783178, abs=1e-14)
    assert ho.energy(MODEL, 2) == pytest.approx(2.8284271247461903, abs=1e-14)
    assert ho.energy(MODEL, 3) == pytest.approx(3.1622776601683795, abs=1e-14)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_omega(omega):
    with pytest.raises(ConfigError, match="finite"):
        ho.OscillatorModel(omega=omega)


def test_spectrum_units_scaling():
    u = natural_units()
    m2 = ho.OscillatorModel(omega=0.5, units=u)
    assert ho.energy(m2, 0) == pytest.approx(math.sqrt(2.0 * 0.5 * 1.5 + 1.0))


def test_state_enumeration():
    for n in range(5):
        states = list(ho.states_with_n(MODEL, n))
        assert len(states) == (n + 1) * (n + 2) // 2
        assert all(s.n == n for s in states)
        assert len({s.ls for s in states}) == len(states)


def test_state_validation():
    with pytest.raises(QuantumNumberError):
        ho.make_state(MODEL, -1, 0, 0)


def test_map_scale():
    cmap = ho.oscillator_map(MODEL, ho.energy(MODEL, 0))
    assert cmap.a == 0.0
    assert cmap.lam == 2.0
    assert cmap.b == pytest.approx(math.sqrt(2.0), abs=1e-15)  # sqrt(2 hbar c / Omega)


def test_eigenfunction_x_separable_form():
    """psi = prod_j H_lj(xi_j) exp(-xi^2/2) exp(-iEt), xi = x sqrt(Omega)."""
    state = ho.make_state(MODEL, 2, 0, 1)
    fld = ho.eigenfunction_x(MODEL, state)
    p = (0.7, -0.4, 1.1, 0.3)
    xi = [v * MODEL.xi_scale for v in p[:3]]
    from kgconformal.specfun import hermite

    want = (
        hermite(2, xi[0]) * hermite(0, xi[1]) * hermite(1, xi[2])
        * math.exp(-0.5 * sum(v * v for v in xi))
        * cmath.exp(-1j * state.energy * p[3])
    )
    # allow an overall constant normalization: the ratio to the separable
    # form must be the same at unrelated spacetime points
    ratio = complex(fld.at(p)) / want
    q = (0.1, 0.9, -0.2, -0.6)
    xi_q = [v * MODEL.xi_scale for v in q[:3]]
    want_q = (
        hermite(2, xi_q[0]) * hermite(0, xi_q[1]) * hermite(1, xi_q[2])
        * math.exp(-0.5 * sum(v * v for v in xi_q))
        * cmath.exp(-1j * state.energy * q[3])
    )
    assert complex(fld.at(q)) / want_q == pytest.approx(ratio, rel=1e-12)


def _case(operator, state, exact_cfg, field=ho.eigenfunction_x, **kwargs):
    """The operator's case on ``state`` at the default tolerance, one pass."""
    read = Read("case", partial(operator, MODEL, kwargs.get("E", state.energy)), 1e-10)
    (case,) = evaluate("case", exact_cfg.mode, [Sample(field(MODEL, state), POINTS, (read,))]).cases
    return case


def test_kg_residual_x_ground_state(exact_cfg):
    case = _case(ho.kg_residual_x, ho.make_state(MODEL, 0, 0, 0), exact_cfg)
    assert case.passed
    assert case.max_residual < 1e-13


def test_kg_residual_x_detects_wrong_energy(exact_cfg):
    st = ho.make_state(MODEL, 0, 0, 0)
    case = _case(ho.kg_residual_x, st, exact_cfg, E=st.energy + 0.05)
    assert not case.passed


def test_kg_residual_z(exact_cfg):
    st = ho.make_state(MODEL, 1, 1, 0)
    # the equation and the energy operator both hold at the true energy
    for operator in (ho.kg_residual_z, ho.energy_operator_residual):
        assert _case(operator, st, exact_cfg, field=ho.eigenfunction_z).passed
    # and both fail at a perturbed one
    for operator in (ho.kg_residual_z, ho.energy_operator_residual):
        assert not _case(operator, st, exact_cfg, field=ho.eigenfunction_z, E=st.energy + 0.1).passed


def test_z_eigenvalue_is_energy_shift():
    # the transformed equation carries E^2 - 3 hbar c Omega, not E^2
    st2 = ho.make_state(MODEL, 0, 1, 1)
    ev = st2.energy**2 - 3.0 * MODEL.units.hbar * MODEL.units.c * MODEL.omega
    assert ev == pytest.approx(8.0 - 3.0, abs=1e-12)


def test_pointwise_z_equals_x(exact_cfg):
    """eigenfunction_z composed with the map reproduces eigenfunction_x."""
    for n in range(3):
        for state in ho.states_with_n(MODEL, n):
            fx = ho.eigenfunction_x(MODEL, state)
            fz = ho.eigenfunction_z(MODEL, state)
            scale = max(abs(complex(fx.at(p))) for p in point_rows(POINTS))
            for p in point_rows(POINTS)[::7]:
                assert abs(complex(fz.at(p)) - complex(fx.at(p))) < 1e-13 * scale


def test_ladder_annihilates_ground(exact_cfg):
    ground = ho.make_state(MODEL, 0, 0, 0)
    psi0 = ho.eigenfunction_x(MODEL, ground)
    d = _diff(psi0, PointSet([0.5], [-0.3], [0.8], [0.2]), exact_cfg)
    for i in range(3):
        lowered, err = ho.ladder_apply(MODEL, ("lower", i), d)
        assert abs(lowered[0]) < 1e-13 and err[0] == 0.0


def test_raise_then_lower_is_diagonal(exact_cfg):
    """a_i^dag a_i has eigenvalue l_i on the separable eigenfunctions."""
    state = ho.make_state(MODEL, 2, 1, 0)
    fld = ho.eigenfunction_x(MODEL, state)
    p = (0.4, 0.9, -0.2, 0.1)
    val, err = ho.number_operator_apply(MODEL, _diff(fld, PointSet(*([v] for v in p)), exact_cfg))
    assert val[0] == pytest.approx(3.0 * complex(fld.at(p)), rel=1e-11)
    assert err[0] == 0.0


def test_ladder_raises_degree(exact_cfg):
    """a_1^dag on the ground state is proportional to the (1,0,0) state."""
    ground = ho.make_state(MODEL, 0, 0, 0)
    psi0 = ho.eigenfunction_x(MODEL, ground)
    excited = ho.eigenfunction_x(MODEL, ho.make_state(MODEL, 1, 0, 0))
    p1, p2 = (0.5, 0.2, 0.1, 0.0), (1.1, -0.4, 0.3, 0.0)
    raised, _ = ho.ladder_apply(MODEL, ("raise", 0), _diff(psi0, PointSet(*zip(p1, p2)), exact_cfg))
    r1 = raised[0] / complex(excited.at(p1))
    r2 = raised[1] / complex(excited.at(p2))
    assert r1 == pytest.approx(r2, rel=1e-11)
    assert abs(r1) > 1e-3


def test_fields_sharing_a_grid_equal_fields_on_fresh_jets(exact_cfg):
    """Every x- and z-field at nmax 6, of two models, differentiated on one
    shared grid (whose seed jets keep the factors the fields share) equals,
    with ==, the field evaluated on jets of its own: every memo key carries
    every value its factor reads.  The second model's levels 0 and 1 have
    the energies of the first's levels 3 and 6, so only the map tells
    their z-phases apart."""
    shared = Grid(r_min=0.1, r_max=4.0, shells=4, times=(0.0, 0.37)).points()
    other = ho.OscillatorModel(omega=3.0, units=natural_units())
    assert ho.energy(other, 0) == ho.energy(MODEL, 3) and ho.energy(other, 1) == ho.energy(MODEL, 6)
    for n in range(7):
        for model in (MODEL, other):
            for state in ho.states_with_n(model, n):
                for fld in (ho.eigenfunction_x(model, state), ho.eigenfunction_z(model, state)):
                    d = _diff(fld, shared, exact_cfg)
                    fresh = fld(*dual.variables(*shared.coords))
                    assert np.array_equal(d.value, fresh.v), fld.label
                    assert np.array_equal(d.grad, grad(fresh)), fld.label
                    assert np.array_equal(d.hess, hess(fresh)), fld.label
    assert shared.jets[0].memo  # the fields did share factors


def test_a_grid_keeps_one_read_only_hermite_ladder_per_axis(exact_cfg):
    """The x- and z-fields of a grid take every Hermite degree from one
    ladder per axis, kept read-only with the grid's jets; each of its terms
    is, with ==, what a fresh recurrence gives."""
    grid = Grid(r_min=0.1, r_max=4.0, shells=4).points()
    for n in range(4):
        states = list(ho.states_with_n(MODEL, n))
        for make in (ho.eigenfunction_x, ho.eigenfunction_z):
            _diff(make(MODEL, states), grid.tiled(len(states)), exact_cfg)
    ladders = {key[1]: v for key, v in grid.jets[0].memo.items() if isinstance(v, HermiteLadder)}
    assert sorted(ladders) == [(0,), (1,), (2,)]
    fresh = dual.variables(*grid.coords)
    for (axis,), ladder in ladders.items():
        assert len(ladder.terms) == 4 and not ladder.xi.c.flags.writeable
        for l, term in enumerate(ladder.terms[1:], 1):
            assert np.array_equal(term.c, hermite(l, MODEL.xi_scale * fresh[axis]).c), (axis, l)
            assert not term.c.flags.writeable


def test_repeated_states_are_not_one_field():
    ground = ho.make_state(MODEL, 0, 0, 0)
    with pytest.raises(ConfigError, match="distinct states"):
        ho.eigenfunction_z(MODEL, [ground, ground])
