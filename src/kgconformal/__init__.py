"""Numerical certification of the isometric conformal transformation of
the Klein-Gordon equation for the harmonic oscillator and Coulomb systems."""

from .core import (
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
from .confmap import ConformalMap, forward, inverse
from .diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL
from .report import CaseResult, ResidualReport
from .harness import Grid, TestFieldSpec, generate_test_field, run_suite

__version__ = "0.1.0"

__all__ = [
    "BranchError",
    "CaseResult",
    "ComplexField",
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
    "PointSet",
    "QuantumNumberError",
    "ResidualReport",
    "TestFieldSpec",
    "UnitSystem",
    "forward",
    "generate_test_field",
    "inverse",
    "natural_units",
    "run_suite",
]
