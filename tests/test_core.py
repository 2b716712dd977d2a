import math

import pytest

import kgconformal
from hypothesis import given, strategies as st

from kgconformal.core import (
    BranchError,
    ComplexField,
    ConfigError,
    DomainError,
    KgcError,
    NoTerminationError,
    NonFiniteError,
    PointSet,
    QuantumNumberError,
    UnitSystem,
    natural_units,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_natural_units():
    u = natural_units()
    assert (u.hbar, u.c, u.m0) == (1.0, 1.0, 1.0)
    assert u.rest_energy == 1.0


def test_rest_energy_scaling():
    u = UnitSystem(hbar=1.0, c=2.0, m0=3.0)
    assert u.rest_energy == 12.0


def test_star_import_defines_every_exported_name():
    """A name left in __all__ after its definition is deleted fails here."""
    namespace = {}
    exec("from kgconformal import *", namespace)
    assert sorted(kgconformal.__all__) == sorted(name for name in namespace if name != "__builtins__")


def test_error_hierarchy():
    for exc in (DomainError, NonFiniteError, QuantumNumberError, ConfigError):
        assert issubclass(exc, KgcError)


def test_errors_subclass_the_error_of_their_exit_code():
    """The CLI maps ConfigError to exit 2 and DomainError to exit 3."""
    assert issubclass(BranchError, ConfigError) and issubclass(QuantumNumberError, ConfigError)
    assert issubclass(NonFiniteError, DomainError) and issubclass(NoTerminationError, DomainError)


@pytest.mark.parametrize("units", [dict(c=1e200), dict(hbar=1e200, c=1e200), dict(m0=1e-300, c=1e200)])
def test_units_with_a_nonfinite_hbar_c_or_rest_energy_are_config_errors(units):
    with pytest.raises(ConfigError, match="is not finite$"):
        UnitSystem(**units)


def radial_norm(x):
    """r of one point, as PointSet.radii holds it."""
    return PointSet(*([v] for v in x), [0.0]).radii[0]


def test_radial_norm_oracle():
    # sqrt(3) to full precision
    assert radial_norm((1.0, 1.0, 1.0)) == pytest.approx(1.7320508075688772, abs=1e-15)
    assert radial_norm((3.0, 4.0, 0.0)) == pytest.approx(5.0, abs=1e-15)


@given(finite, finite, finite)
def test_radial_norm_sign_invariance(a, b, c):
    assert radial_norm((a, b, c)) == radial_norm((-a, -b, -c))


@given(finite, finite, finite)
def test_radial_norm_permutation_invariance(a, b, c):
    base = radial_norm((a, b, c))
    assert radial_norm((b, c, a)) == pytest.approx(base, rel=1e-15, abs=0.0)
    assert radial_norm((c, a, b)) == pytest.approx(base, rel=1e-15, abs=0.0)


@given(finite, finite, finite, st.floats(min_value=1e-3, max_value=1e3))
def test_radial_norm_scaling(a, b, c, lam):
    got = radial_norm((lam * a, lam * b, lam * c))
    assert got == pytest.approx(lam * radial_norm((a, b, c)), rel=1e-12, abs=1e-12)


def test_spacetime_point_r():
    """A point set's radii are its points' r, one per (x1, x2, x3, t) row."""
    pts = PointSet([0.0, 1.0, -2.0], [3.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.5, 0.0, -1.0])
    assert pts.radii.tolist() == [5.0, 1.0, 2.0]


def test_complex_field_call_and_at():
    fld = ComplexField(fn=lambda x1, x2, x3, t: x1 + 1j * t, label="probe")
    assert fld(2.0, 0.0, 0.0, 0.25) == 2.0 + 0.25j
    assert fld.at((2.0, 0.0, 0.0, 0.25)) == 2.0 + 0.25j
