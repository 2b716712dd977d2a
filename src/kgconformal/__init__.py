"""Numerical certification of the isometric conformal transformation of
the Klein-Gordon equation for the harmonic oscillator and Coulomb systems."""

from .core import (
    BranchError,
    ComplexField,
    ComplexPoint,
    ConfigError,
    DomainError,
    KgcError,
    NoTerminationError,
    NonFiniteError,
    QuantumNumberError,
    SpaceTimePoint,
    UnitSystem,
    natural_units,
    radial_norm,
)
from .confmap import ConformalMap, forward, inverse, inverse_conjugate
from .diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL
from .report import CaseResult, ResidualReport
from .harness import Grid, TestFieldSpec, generate_test_field, run_suite

__version__ = "0.1.0"

__all__ = [
    "BranchError",
    "CaseResult",
    "ComplexField",
    "ComplexPoint",
    "ConformalMap",
    "ConfigError",
    "DiffConfig",
    "DomainError",
    "Grid",
    "KgcError",
    "MODE_EXACT",
    "MODE_STENCIL",
    "NoTerminationError",
    "NonFiniteError",
    "QuantumNumberError",
    "ResidualReport",
    "SpaceTimePoint",
    "TestFieldSpec",
    "UnitSystem",
    "forward",
    "generate_test_field",
    "inverse",
    "inverse_conjugate",
    "natural_units",
    "radial_norm",
    "run_suite",
]
