"""Workload plans, one certification pass, and the output check.

A plan is everything a pass needs, built before the first timed pass:
the suite parameters (models are built by the harness from them), the
grids, the ``DiffConfig`` and, for exact mode, the reference residuals
committed under ``reference/``.

The seed selects one of ``VARIANTS`` input variants (``seed % VARIANTS``).
Every variant has the same amount of work, so seeds do not spread the
timings, and every exact-mode variant has committed reference residuals,
so the drift check never goes vacuous for an unknown seed.
"""

from __future__ import annotations

import json
import math
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from kgconformal import harness, shooting
from kgconformal import coulomb as cb
from kgconformal.diffengine import MODE_EXACT, MODE_STENCIL, DiffConfig
from kgconformal.harness import Grid
from kgconformal.report import PROBE_PREFIX

WORKLOADS = ("eigen-exact", "eigen-stencil", "random-fields", "shooting-oracle")
REFERENCED = ("eigen-exact", "random-fields")
VARIANTS = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ALPHA = 0.0072973525693
LOW_STATES = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
# three states fit two shooting passes in a run: the ground state, the state
# the oracle misses most (2,0) and the one the nonrelativistic formula is
# closest to (0,2)
SHOOTING_STATES = ((0, 0), (2, 0), (0, 2))
# |E - E_nonrel| must be at least this multiple of |E - E_sommerfeld|.  The
# seed oracle's ratios are 15.7 (0,0), 4.4 (1,0), 1.6 (2,0) and over 1e5
# for l >= 1; each factor sits below its state's ratio
ORACLE_FACTOR = {(0, 0): 8.0, (1, 0): 2.0, (2, 0): 1.25, (0, 1): 1e3, (1, 1): 1e3, (0, 2): 1e3}

# ROADMAP bound on exact-mode residual drift: about 1e-15 on the scaled
# residual, relative once the residual itself exceeds 1
DRIFT_BOUND = 1e-15
STENCIL_TOLERANCE = harness.TOL_STENCIL


@dataclass(frozen=True)
class SuiteStep:
    suite: str
    params: dict
    cfg: DiffConfig

    @property
    def label(self) -> str:
        return self.suite


@dataclass(frozen=True)
class ShootingStep:
    n: int
    l: int
    e_sommerfeld: float
    e_nonrel: float
    factor: float

    @property
    def label(self) -> str:
        return f"shooting({self.n},{self.l})"


@dataclass(frozen=True)
class Plan:
    workload: str
    seed: int
    variant: int
    steps: tuple
    reference: dict = None  # suite -> case -> [max_residual, tolerance], exact mode only


def steps_for(workload: str, variant: int) -> tuple:
    """The plan's steps for one input variant; equal work for every variant."""
    rng = random.Random(variant)
    if workload in ("eigen-exact", "eigen-stencil"):
        stencil = workload == "eigen-stencil"
        cfg = DiffConfig(mode=MODE_STENCIL if stencil else MODE_EXACT)
        # the seed moves the second time sample; the point count stays fixed
        grid = Grid(r_min=0.1, r_max=4.0, shells=10, times=(0.0, rng.uniform(0.05, 0.6)))
        # stencil sizes down to nmax 3: at nmax 6 its pass takes about 25 s
        osc = {"nmax": 3 if stencil else 6, "grid": grid}
        return (
            SuiteStep("oscillator-x", osc, cfg),
            SuiteStep("oscillator-z", osc, cfg),
            SuiteStep("ladder", osc, cfg),
            SuiteStep("coulomb-x", {"states": LOW_STATES}, cfg),
            # coulomb-z keeps its default test-field seed: at field seed 2 its
            # stencil d2z-operator-identity fails (2.96e-8 against 1e-8), the
            # stencil defect recorded in README.md; seeded fields are the
            # random-fields workload's input
            SuiteStep("coulomb-z", {"states": LOW_STATES}, cfg),
        )
    if workload == "random-fields":
        cfg = DiffConfig(mode=MODE_EXACT)
        return (
            SuiteStep("operator-identities", {"n_fields": 1500, "seed": variant}, cfg),
            SuiteStep("map-independence", {}, cfg),
            SuiteStep("holomorphy", {"energy": rng.uniform(0.5, 1.5)}, cfg),
            SuiteStep("reductions", {}, cfg),
        )
    if workload == "shooting-oracle":
        model = cb.CoulombModel(alpha=ALPHA)
        states = list(SHOOTING_STATES)
        rng.shuffle(states)
        return tuple(
            ShootingStep(
                n, l,
                e_sommerfeld=cb.make_state(model, n, l).energy,
                e_nonrel=model.units.rest_energy + cb.nonrelativistic_binding(model, n, l),
                factor=ORACLE_FACTOR[(n, l)],
            )
            for n, l in states
        )
    raise ValueError(f"unknown workload: {workload!r}")


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def build_plan(workload: str, seed: int) -> Plan:
    variant = seed % VARIANTS
    steps = steps_for(workload, variant)
    reference = None
    if workload in REFERENCED:
        with open(reference_path(workload)) as fh:
            reference = json.load(fh)["variants"][variant]
    return Plan(workload, seed, variant, steps, reference)


class Checks:
    """Counts attempted checks and keeps a message for each failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_report(doc: dict, checks: Checks, reference: dict = None):
    """Check one suite's JSON report.

    Every regular case passes and every probe fails, both recomputed from
    max_residual and tolerance and as the report states them.  With a
    reference (exact mode) every residual stays within DRIFT_BOUND of it
    and every tolerance is the reference's; without one (stencil mode)
    no tolerance is looser than the stencil default.
    """
    suite = doc["suite"]
    cases = doc["cases"]
    probes = [c for c in cases if c["name"].startswith(PROBE_PREFIX)]
    checks.expect(
        bool(probes) and len(probes) < len(cases) and doc["summary"]["pass"] is True,
        f"{suite}: suite verdict {doc['summary']['pass']} with {len(cases)} cases, {len(probes)} probes",
    )
    for c in cases:
        name = c["name"]
        passed = c["max_residual"] <= c["tolerance"]
        should_pass = not name.startswith(PROBE_PREFIX)
        checks.expect(
            passed == should_pass and c["pass"] is passed,
            f"{suite}/{name}: residual {c['max_residual']:.3e} tolerance {c['tolerance']:.1e} "
            f"reported pass={c['pass']}, expected pass={should_pass}",
        )
        if reference is None:
            checks.expect(
                c["tolerance"] <= STENCIL_TOLERANCE,
                f"{suite}/{name}: tolerance {c['tolerance']:.1e} looser than {STENCIL_TOLERANCE:.0e}",
            )
            continue
        ref = reference.get(name)
        if ref is None:
            checks.expect(False, f"{suite}/{name}: case not in the reference report")
            continue
        ref_res, ref_tol = ref
        drift = abs(c["max_residual"] - ref_res)
        checks.expect(
            drift <= DRIFT_BOUND * max(1.0, abs(ref_res)) and c["tolerance"] == ref_tol,
            f"{suite}/{name}: residual {c['max_residual']!r} drifted {drift:.2e} from "
            f"reference {ref_res!r} (tolerance {c['tolerance']!r} vs {ref_tol!r})",
        )
    if reference is not None:
        missing = sorted(set(reference) - {c["name"] for c in cases})
        checks.expect(not missing, f"{suite}: reference cases missing from the report: {missing}")


def check_energy(step: ShootingStep, energy: float, checks: Checks):
    """The oracle's energy must sit closer to Sommerfeld than to the
    nonrelativistic 1 - alpha^2/2N^2, by the state's factor."""
    d_somm = abs(energy - step.e_sommerfeld)
    d_nonrel = abs(energy - step.e_nonrel)
    checks.expect(
        math.isfinite(energy) and d_nonrel >= step.factor * d_somm,
        f"{step.label}: E={energy!r} is {d_somm:.3e} from Sommerfeld and {d_nonrel:.3e} "
        f"from nonrelativistic; needs a factor {step.factor}",
    )


def suite_report(step: SuiteStep) -> dict:
    """Run one suite and serialise it as the CLI does in exact mode.

    wall_ms is zeroed in both modes, so the report's bytes repeat exactly.
    """
    report = harness.run_suite(step.suite, step.params, step.cfg).with_wall_ms(0.0)
    return json.loads(report.to_json())


def run_pass(plan: Plan, checks: Checks) -> list:
    """One pass over the plan with its output check.

    Returns (label, start, end) of each step in ``time.perf_counter``
    seconds.
    """
    stamps = []
    for step in plan.steps:
        t0 = time.perf_counter()
        try:
            if isinstance(step, ShootingStep):
                check_energy(step, shooting.shooting_eigenvalue(step.n, step.l, ALPHA), checks)
            else:
                ref = None if plan.reference is None else plan.reference.get(step.suite, {})
                check_report(suite_report(step), checks, ref)
        except Exception:  # a failing step is a failed check; the pass goes on
            checks.expect(False, f"{step.label}: {traceback.format_exc().strip()}")
        stamps.append((step.label, t0, time.perf_counter()))
    return stamps
