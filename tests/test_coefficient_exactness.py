"""The operators' map and potential coefficients, computed as arrays over a
grid, equal the point-by-point scalar formulas of ``scalar_confmap`` bit
for bit, compared with ``==``.

The grid holds points where the correctly rounded square x*x and libm's
``pow(x, 2)`` (CPython's ``x**2``) round differently, for each base the
operators square: r, r/b and (hbar/E)[a + lam (r/b)^lam].  A square that
went through libm's pow would change a coefficient there.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from kgconformal import confmap
from kgconformal import coulomb as cb
from kgconformal import oscillator as ho
from kgconformal.confmap import ConformalMap
from kgconformal.core import DomainError, PointSet, natural_units
from kgconformal.diffengine import DiffConfig, MODE_EXACT, _diff

import scalar_confmap as ref
from conftest import field_family, point_rows

U = natural_units()
EXACT = DiffConfig(mode=MODE_EXACT)
MAPS = {
    "lam1": ConformalMap(a=0.35, b=3.7, lam=1.0, E=0.93, units=U),
    "lam2": ConformalMap(a=0.2, b=1.3, lam=2.0, E=1.7, units=U),
    "lam2-oscillator": ho.oscillator_map(ho.OscillatorModel(omega=1.0), 2.5),
    "lam1.5": ConformalMap(a=-0.4, b=0.9, lam=1.5, E=1.2, units=U),
}
FIELD, _ = field_family([11])
_RNG = np.random.default_rng(20261018)
CANDIDATES = PointSet(*_RNG.uniform(-1.0, 1.0, (6000, 3)).T, _RNG.uniform(-0.5, 0.5, 6000))


def _squares_differ(base) -> np.ndarray:
    """Where base * base rounds otherwise than libm's pow(base, 2), per element."""
    return base * base != np.array([v**2 for v in base.tolist()])


def _sq_base(cmap, radii):
    """(hbar/E)[a + lam (r/b)^lam], the base of sum_i A_i^2."""
    w = np.array([ref._power(cmap, r) for r in radii.tolist()])
    return (cmap.units.hbar / cmap.E) * (cmap.a + cmap.lam * w)


def _grid(cmap) -> PointSet:
    """Eight plain points, then three where each squared base rounds apart."""
    r = CANDIDATES.radii
    picks = list(range(8))
    for base in (r, r / cmap.b, _sq_base(cmap, r)):
        where = np.flatnonzero(_squares_differ(base))
        assert len(where) >= 3  # else nothing here tells libm's pow apart
        picks += where[:3].tolist()
    return PointSet(*(c[picks] for c in CANDIDATES.coords))


def _with_point_energies(cmap, n):
    return replace(cmap, E=np.random.default_rng(5).uniform(0.8, 2.0, n))


def _cases():
    for name, cmap in MAPS.items():
        pts = _grid(cmap)
        yield pytest.param(cmap, pts, id=name)
        yield pytest.param(_with_point_energies(cmap, len(pts)), pts, id=name + "-point-energies")


def _equal(got, want):
    """Two operator results, tuples of arrays and floats, equal element for element."""
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("cmap, pts", _cases())
def test_coefficients_equal_the_scalar_formulas(cmap, pts):
    div_a, sq = cmap.second_order_couplings(pts.radii)
    assert np.array_equal(div_a, ref.per_point(ref.time_coupling_divergence, cmap, pts))
    assert np.array_equal(sq, ref.per_point(ref.time_coupling_sq_sum, cmap, pts))
    rows = point_rows(pts)
    want = [ref.time_coupling(cmap, e, p[:3], r) for e, p, r in zip(ref.energies(cmap, len(pts)), rows, pts.radii.tolist())]
    _equal(cmap.time_coupling(pts.coords[:3], pts.radii), tuple(np.array(a) for a in zip(*want)))


@pytest.mark.parametrize("cmap, pts", _cases())
def test_operators_equal_the_scalar_formulas(cmap, pts):
    d = _diff(FIELD, pts, EXACT)
    for axis in range(3):
        _equal(confmap.d_z(cmap, d, axis=axis), ref.first_order(cmap, d, axis, +1.0))
        _equal(confmap.d_zstar(cmap, d, axis=axis), ref.first_order(cmap, d, axis, -1.0))
    _equal(confmap.dzstar_dz(cmap, d), ref.dzstar_dz(cmap, d))
    _equal(confmap.dz_dzstar(cmap, d), ref.dz_dzstar(cmap, d))
    _equal(confmap.qprop_identity_residual(cmap, d), ref.qprop_identity_residual(cmap, d))
    _equal(
        confmap.qprop_identity_residual(cmap, d, operator=confmap.dz_dzstar),
        ref.qprop_identity_residual(cmap, d, operator=ref.dz_dzstar),
    )
    _equal(confmap.d2z_identity_residual(cmap, d), ref.d2z_identity_residual(cmap, d))


def test_potential_coefficients_equal_the_scalar_formulas():
    pts = _grid(MAPS["lam1"])
    d = _diff(FIELD, pts, EXACT)
    osc = ho.OscillatorModel(omega=1.3)
    _equal(ho.kg_residual_x(osc, 2.1, d), ref.oscillator_kg_residual_x(osc, 2.1, d))
    coulomb = cb.CoulombModel(alpha=0.3)
    _equal(cb.kg_residual_x(coulomb, 0.97, d), ref.coulomb_kg_residual_x(coulomb, 0.97, d))


@pytest.mark.parametrize("energy", [1.3, np.array([1.3, 0.9, 2.0])], ids=["one-map", "point-energies"])
def test_identity_map_at_the_origin_gives_zero_without_warning(energy):
    """The general formula's 0 / r^2 is 0/0 at r = 0: a RuntimeWarning, or
    under the CLI's errstate a FloatingPointError."""
    ident = ConformalMap.identity(E=energy)
    pts = PointSet([0.0, 0.3, 0.0], [0.0, -0.1, 0.0], [0.0, 0.2, 0.0], [0.2, 0.0, -0.4])
    d = _diff(FIELD, pts, EXACT)
    with warnings.catch_warnings(), np.errstate(over="raise", divide="raise", invalid="raise"):
        warnings.simplefilter("error")
        assert all(np.array_equal(c, np.zeros(3)) for c in ident.second_order_couplings(pts.radii))
        assert all(np.array_equal(a, np.zeros(3)) for a in ident.time_coupling(pts.coords[:3], pts.radii))
        value, _ = confmap.dzstar_dz(ident, d)
        assert np.array_equal(value, confmap._laplacian(d)[0])
        for axis in range(3):
            value, _ = confmap.d_z(ident, d, axis=axis)
            assert np.array_equal(value, d.grad[axis])


def test_map_with_a_power_term_at_the_origin_raises():
    pts = PointSet([0.0], [0.0], [0.0], [0.0])
    d = _diff(FIELD, pts, EXACT)
    with pytest.raises(DomainError, match="r = 0"):
        confmap.dzstar_dz(MAPS["lam2-oscillator"], d)
    with pytest.raises(DomainError, match="r = 0"):
        confmap.d_z(MAPS["lam1"], d)
