"""Residual report data model and serialization.

A case whose name starts with ``probe:`` is a deliberate fail-probe: it
is expected to violate its tolerance.  A suite passes iff it has at least
one regular case, every regular case passes and every probe fails; a
probe that passes marks the whole suite as failed (it means the
machinery is returning vacuous zeros), and so does a suite with nothing
but probes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii

PROBE_PREFIX = "probe:"


@dataclass(frozen=True)
class CaseResult:
    name: str
    max_residual: float
    error_estimate: float
    tolerance: float

    @property
    def passed(self) -> bool:
        # bool() guards against numpy scalars leaking in from grid math
        return bool(self.max_residual <= self.tolerance)

    @property
    def is_probe(self) -> bool:
        return self.name.startswith(PROBE_PREFIX)

    @property
    def behaved(self) -> bool:
        """True if the case did what it should: pass, or fail if a probe."""
        return (not self.passed) if self.is_probe else self.passed


@dataclass(frozen=True)
class ResidualReport:
    suite: str
    mode: str
    cases: tuple[CaseResult, ...] = ()
    wall_ms: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.behaved for c in self.cases) and any(not c.is_probe for c in self.cases)

    def merge(self, other: "ResidualReport") -> "ResidualReport":
        """Associative, order-independent aggregation of case lists."""
        return ResidualReport(
            suite=self.suite or other.suite,
            mode=self.mode or other.mode,
            cases=tuple(sorted(self.cases + other.cases, key=lambda c: c.name)),
            wall_ms=self.wall_ms + other.wall_ms,
        )

    def with_wall_ms(self, wall_ms: float) -> "ResidualReport":
        return replace(self, wall_ms=wall_ms)

    def to_json(self) -> str:
        """The text of json.dumps(report, indent=2, allow_nan=False) plus a
        newline, written directly for the report's fixed shape."""
        text = encode_basestring_ascii
        cases = ",".join(
            "\n    {\n"
            f'      "name": {text(c.name)},\n'
            f'      "max_residual": {_number(c.max_residual)},\n'
            f'      "error_estimate": {_number(c.error_estimate)},\n'
            f'      "tolerance": {_number(c.tolerance)},\n'
            f'      "pass": {"true" if c.passed else "false"}\n'
            "    }"
            for c in self.cases
        )
        cases = f"[{cases}\n  ]" if self.cases else "[]"
        return (
            "{\n"
            f'  "suite": {text(self.suite)},\n'
            f'  "mode": {text(self.mode)},\n'
            f'  "cases": {cases},\n'
            '  "summary": {\n'
            f'    "pass": {"true" if self.passed else "false"},\n'
            f'    "wall_ms": {_number(self.wall_ms)}\n'
            "  }\n}\n"
        )


def _number(x) -> str:
    """A float as json writes it; NaN and infinities are refused."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
    return float.__repr__(x)
