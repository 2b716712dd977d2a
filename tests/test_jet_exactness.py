"""The jets give, bit for bit, what scalar hyperduals give point by point.

For every field family the suites differentiate, one jet evaluation over
a grid is compared with ``==`` against the reference arithmetic in
``scalar_hyperdual``, run once per point and per axis through the same
field closure: with every input a hyperdual, on every axis; with only the
seeded input a hyperdual, as the point-by-point path ran, on the spatial
axes (see ``partials`` for the time axis of fields that divide r by a
constant).
"""

import math

import pytest

from kgconformal import coulomb as cb
from kgconformal import dual
from kgconformal import oscillator as ho
from kgconformal.core import ComplexField, natural_units
from kgconformal.diffengine import DiffConfig, MODE_EXACT, _diff
from kgconformal.harness import Grid, _plane_wave, _with_energy

from conftest import family_energies, field_family, point_rows
from scalar_hyperdual import partials

EXACT = DiffConfig(mode=MODE_EXACT)
OSC = ho.OscillatorModel(omega=1.0, units=natural_units())
COULOMB = cb.CoulombModel(alpha=0.0072973525693, units=natural_units())
OSC_POINTS = Grid(r_min=0.1, r_max=4.0, shells=4, times=(0.0, 0.37)).points()


def coulomb_points(state):
    return Grid(r_min=0.1 * state.r_scale, r_max=20.0 * state.r_scale, shells=4).points()


def assert_jet_matches_reference(fld, points):
    d = _diff(fld, points, EXACT)
    for j, point in enumerate(point_rows(d.points)):
        for axis in range(4):
            for others_dual in (True, False) if axis < 3 else (True,):
                first, second = partials(fld.fn, point, axis, others_dual)
                assert d.grad[axis, j] == first, (fld.label, point, axis, others_dual)
                assert d.hess[axis, j] == second, (fld.label, point, axis, others_dual)


def assert_value_matches_plain(fld, points):
    d = _diff(fld, points, EXACT)
    assert [complex(fld.at(p)) for p in point_rows(d.points)] == d.value.tolist()


OSC_STATES = [(0, 0, 0), (1, 0, 2), (2, 1, 3), (6, 0, 0), (0, 3, 3)]


@pytest.mark.parametrize("ls", OSC_STATES)
def test_oscillator_x(ls):
    fld = ho.eigenfunction_x(OSC, ho.make_state(OSC, *ls))
    assert_jet_matches_reference(fld, OSC_POINTS)
    assert_value_matches_plain(fld, OSC_POINTS)


@pytest.mark.parametrize("ls", OSC_STATES)
def test_oscillator_z(ls):
    assert_jet_matches_reference(ho.eigenfunction_z(OSC, ho.make_state(OSC, *ls)), OSC_POINTS)


COULOMB_STATES = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 1, -1), (2, 2, -1)]


@pytest.mark.parametrize("nlk", COULOMB_STATES)
def test_coulomb_x(nlk):
    state = cb.make_state(COULOMB, *nlk)
    assert_jet_matches_reference(cb.eigenfunction_x(COULOMB, state), coulomb_points(state))


@pytest.mark.parametrize("nlk", COULOMB_STATES)
def test_coulomb_z(nlk):
    state = cb.make_state(COULOMB, *nlk)
    assert_jet_matches_reference(cb.eigenfunction_z(COULOMB, state), coulomb_points(state))


@pytest.mark.parametrize("seed", range(12))
def test_test_fields(seed):
    fld, points = field_family([seed], r_max=3.0)
    assert_jet_matches_reference(fld, points)
    assert_value_matches_plain(fld, points)
    # one float, so the field still evaluates anywhere
    energized = _with_energy(fld, float(family_energies([seed], 3.0)[0]), 0.9999)
    assert_jet_matches_reference(energized, points)
    assert_value_matches_plain(energized, points)


@pytest.mark.parametrize("cmap", [
    ho.oscillator_map(OSC, 2.0),
    cb.coulomb_map(COULOMB, cb.make_state(COULOMB, 0, 0)),
], ids=["oscillator", "coulomb"])
def test_map_s_field(cmap):
    fld = ComplexField(fn=lambda x1, x2, x3, t: t + 1j * cmap.tau(dual.norm3(x1, x2, x3)))
    assert_jet_matches_reference(fld, OSC_POINTS)


@pytest.mark.parametrize("kvec", [(0.5, 0.0, 0.0), (0.3, -0.4, 0.2), (0.0, 1.0, 0.5)])
def test_plane_waves(kvec):
    fld = _plane_wave(kvec, math.sqrt(sum(k * k for k in kvec) + 1.0))
    assert_jet_matches_reference(fld, OSC_POINTS)
    assert_value_matches_plain(fld, OSC_POINTS)


@pytest.mark.parametrize("f", [
    lambda t, tau: dual.exp(-1j * 0.83 * (t + 1j * tau)),
    lambda t, tau: (t + 1j * tau) * (t + 1j * tau),
    lambda t, tau: t * t,
], ids=["phase", "square", "t-squared"])
def test_holomorphy_functions(f):
    fld = ComplexField(fn=lambda u, v, _x3, _t: f(u, v))
    assert_jet_matches_reference(fld, OSC_POINTS)
    assert_value_matches_plain(fld, OSC_POINTS)
