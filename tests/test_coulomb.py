import math
from dataclasses import replace
from functools import partial

import pytest

from kgconformal.confmap import Read, Sample, evaluate
from kgconformal.core import BranchError, ConfigError, QuantumNumberError, SpaceTimePoint, natural_units
from kgconformal.harness import Grid
from kgconformal.shooting import EPS_RTOL, binding_parameter, shooting_eigenvalue
from kgconformal.specfun import HYDRINO, SOMMERFELD, eta_exponent
from kgconformal import coulomb as cb

ALPHA = 0.0072973525693
MODEL = cb.CoulombModel(alpha=ALPHA, units=natural_units())


def sommerfeld_energy(n, l, alpha):
    """Independent oracle: the fine-structure formula, written directly."""
    nu = n + l + 1 - (l + 0.5) + math.sqrt((l + 0.5) ** 2 - alpha**2)
    return 1.0 / math.sqrt(1.0 + (alpha / nu) ** 2)


def _points(state, shells=6):
    return Grid(r_min=0.2 * state.r_scale, r_max=15.0 * state.r_scale, shells=shells).points()


def test_model_validation():
    with pytest.raises(Exception):
        cb.CoulombModel(alpha=0.0, units=natural_units())
    with pytest.raises(QuantumNumberError):
        cb.make_state(MODEL, -1, 0, 0)
    with pytest.raises(QuantumNumberError):
        cb.make_state(MODEL, 0, 1, 2)  # |k| > l


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_model_rejects_non_finite_alpha(alpha):
    with pytest.raises(ConfigError, match="finite"):
        cb.CoulombModel(alpha=alpha)


def test_eta_branches():
    s = eta_exponent(0, ALPHA, SOMMERFELD)
    h = eta_exponent(0, ALPHA, HYDRINO)
    assert s + h == pytest.approx(1.0, abs=1e-15)
    assert s == pytest.approx(ALPHA**2, rel=1e-3)  # leading order alpha^2


def test_energy_against_independent_formula():
    for n, l in [(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)]:
        state = cb.make_state(MODEL, n, l)
        assert state.energy == pytest.approx(sommerfeld_energy(n, l, ALPHA), rel=1e-15)


def test_energies_below_rest_energy_and_ordered():
    e00 = cb.make_state(MODEL, 0, 0).energy
    e10 = cb.make_state(MODEL, 1, 0).energy
    e01 = cb.make_state(MODEL, 0, 1).energy
    assert e00 < e10 < 1.0
    assert e00 < e01 < 1.0
    # fine structure: (1,0) and (0,1) share N = 2 but are split
    assert abs(e10 - e01) > 0.0


def test_nonrelativistic_binding_rydberg():
    # -alpha^2 m c^2 / (2 N^2): the Bohr formula
    b1 = cb.nonrelativistic_binding(MODEL, 0, 0)
    assert b1 == pytest.approx(-(ALPHA**2) / 2.0, rel=1e-15)
    b2 = cb.nonrelativistic_binding(MODEL, 1, 0)
    assert b2 == pytest.approx(b1 / 4.0, rel=1e-15)


def test_relativistic_binding_close_to_rydberg():
    state = cb.make_state(MODEL, 0, 0)
    binding = state.energy - 1.0
    assert binding == pytest.approx(cb.nonrelativistic_binding(MODEL, 0, 0), rel=1e-4)


def test_shooting_oracle_ground_state():
    """The closed-form spectrum against the independent oracle, compared
    on eps = (1 - E^2)/alpha^2 at the oracle's bound EPS_RTOL, which the
    nonrelativistic eps = 1/N^2 fails."""
    eps_num = binding_parameter(shooting_eigenvalue(0, 0, ALPHA), ALPHA)
    eps_formula = binding_parameter(cb.make_state(MODEL, 0, 0).energy, ALPHA)
    assert eps_num == pytest.approx(eps_formula, rel=EPS_RTOL)
    assert 1.0 != pytest.approx(eps_formula, rel=EPS_RTOL)


def test_map_coefficients_identities():
    state = cb.make_state(MODEL, 1, 0)
    cmap = cb.coulomb_map(MODEL, state)
    # a is the l = 0 sommerfeld exponent and solves a(1 - a) = alpha^2
    assert cmap.a == eta_exponent(0, ALPHA)
    assert cmap.a * (1.0 - cmap.a) == pytest.approx(ALPHA**2, abs=1e-16)
    # b = hbar c (1 - a) / (alpha E)
    assert cmap.b == pytest.approx((1.0 - cmap.a) / (ALPHA * state.energy), rel=1e-14)
    assert cmap.lam == 1.0
    assert cmap.E == state.energy


def test_transformed_eigenvalue():
    state = cb.make_state(MODEL, 0, 1)
    eta0 = eta_exponent(0, ALPHA)
    want = state.energy**2 * (1.0 + ALPHA**2 / (1.0 - eta0) ** 2)
    assert cb.transformed_eigenvalue(MODEL, state, state.energy) == pytest.approx(want, rel=1e-15)


def test_decay_rate_bookkeeping():
    # (n + 1 - eta_l)/(1 - eta_0) - (n - eta_l + eta_0)/(1 - eta_0) = 1
    eta0 = eta_exponent(0, ALPHA)
    for n, l in [(0, 0), (1, 0), (0, 1), (3, 2)]:
        state = cb.make_state(MODEL, n, l)
        c1 = cb.transformed_decay_rate(state, eta0)
        lhs = (state.n + 1.0 - state.eta) / (1.0 - eta0)
        assert lhs - c1 == pytest.approx(1.0, abs=1e-13)


def _case(field, operator, state, cfg, shells=6, tolerance=1e-10):
    """``operator`` on ``field`` of ``state`` over the state's grid, one pass."""
    sample = Sample(field(MODEL, state), _points(state, shells), (Read("case", operator, tolerance),), cfg.length_scale)
    (case,) = evaluate("case", cfg.mode, [sample]).cases
    return case


def test_kg_residual_x(exact_cfg):
    state = cb.make_state(MODEL, 0, 0)
    case = _case(cb.eigenfunction_x, partial(cb.kg_residual_x, MODEL, state.energy), state, exact_cfg)
    assert case.passed
    assert case.max_residual < 1e-12


def test_kg_residual_x_excited(exact_cfg):
    state = cb.make_state(MODEL, 1, 1, 1)
    case = _case(cb.eigenfunction_x, partial(cb.kg_residual_x, MODEL, state.energy), state, exact_cfg)
    assert case.passed


def test_kg_residual_x_detects_wrong_energy(exact_cfg):
    state = cb.make_state(MODEL, 0, 0)
    wrong = partial(cb.kg_residual_x, MODEL, state.energy * (1.0 + 1e-4))
    assert not _case(cb.eigenfunction_x, wrong, state, exact_cfg).passed


def test_kg_residual_z(exact_cfg):
    state = cb.make_state(MODEL, 1, 0)
    case = _case(cb.eigenfunction_z, partial(cb.kg_residual_z, MODEL, state, state.energy), state, exact_cfg)
    assert case.passed
    assert case.max_residual < 1e-12
    wrong = partial(cb.kg_residual_z, MODEL, state, state.energy * (1.0 + 1e-4))
    assert not _case(cb.eigenfunction_z, wrong, state, exact_cfg).passed


def test_ground_state_flatness(exact_cfg):
    ground = cb.make_state(MODEL, 0, 0)
    case = _case(cb.eigenfunction_z, partial(cb.ground_state_flatness, MODEL, ground), ground, exact_cfg)
    assert case.passed
    assert case.max_residual < 1e-13
    # an excited state is not flat
    excited = cb.make_state(MODEL, 1, 0)
    assert not _case(cb.eigenfunction_z, partial(cb.ground_state_flatness, MODEL, excited), excited, exact_cfg).passed


def test_pointwise_z_equals_x(exact_cfg):
    for n, l in [(0, 0), (1, 0), (0, 1)]:
        state = cb.make_state(MODEL, n, l)
        fx = cb.eigenfunction_x(MODEL, state)
        fz = cb.eigenfunction_z(MODEL, state)
        pts = _points(state)
        scale = max(abs(complex(fx.at(p))) for p in pts)
        for p in pts[::5]:
            assert abs(complex(fz.at(p)) - complex(fx.at(p))) < 1e-13 * scale


def test_stencil_mode_with_scaled_steps(stencil_cfg):
    """Stencil differentiation needs steps on the Bohr scale to converge."""
    state = cb.make_state(MODEL, 0, 0)
    cfg = replace(stencil_cfg, length_scale=state.r_scale)
    case = _case(cb.eigenfunction_x, partial(cb.kg_residual_x, MODEL, state.energy), state, cfg, 4, 1e-8)
    assert case.passed


def test_hydrino_branch_state():
    state = cb.make_state(MODEL, 0, 0, 0, HYDRINO)
    assert state.eta == pytest.approx(1.0 - ALPHA**2, rel=1e-3)
    # hydrino ground state binds much deeper than the sommerfeld one
    assert state.energy < cb.make_state(MODEL, 0, 0).energy


@pytest.mark.parametrize("n,l", [(0, 1), (0, 2), (1, 2)])
def test_hydrino_state_without_radial_scale_is_rejected(n, l):
    """On the hydrino branch eta_l is near l + 1, so n < l gives nu = n + 1 - eta_l < 0
    and no radial scale; make_state names the state and the branch."""
    with pytest.raises(QuantumNumberError, match=rf"\({n}, {l}\).*hydrino"):
        cb.make_state(MODEL, n, l, 0, HYDRINO)
    # the same quantum numbers are a state on the sommerfeld branch
    assert cb.make_state(MODEL, n, l, 0, SOMMERFELD).r_scale > 0.0
