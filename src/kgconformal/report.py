"""Residual report data model and serialization.

A case whose name starts with ``probe:`` is a deliberate fail-probe: it
is expected to violate its tolerance.  A suite passes iff it has at least
one regular case, every regular case passes and every probe fails; a
probe that passes marks the whole suite as failed (it means the
machinery is returning vacuous zeros), and so does a suite with nothing
but probes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

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

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "mode": self.mode,
            "cases": [
                {
                    "name": c.name,
                    "max_residual": float(c.max_residual),
                    "error_estimate": float(c.error_estimate),
                    "tolerance": float(c.tolerance),
                    "pass": c.passed,
                }
                for c in self.cases
            ],
            "summary": {"pass": self.passed, "wall_ms": float(self.wall_ms)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

