"""Self-tests of the benchmark's output check and traced run.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py

The output check must reject a report whose probe passes, an exact-mode
residual drifted past the bound, and nonrelativistic energies in place of
the shooting oracle's; two traced passes must count the same.  Reference seconds must be the
wall seconds scaled by the host speed the probes measured.
"""

import copy
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from kgconformal import confmap, diffengine, dual, harness, oscillator  # noqa: E402


@pytest.fixture(scope="module")
def random_fields():
    plan = workloads.build_plan("random-fields", 0)
    steps = {s.suite: s for s in plan.steps}
    return plan, steps


def _check(doc, reference):
    checks = workloads.Checks()
    workloads.check_report(doc, checks, reference)
    return checks


def test_genuine_reports_pass_the_check(random_fields):
    plan, steps = random_fields
    for suite in ("holomorphy", "reductions", "map-independence"):
        checks = _check(workloads.suite_report(steps[suite]), plan.reference[suite])
        assert checks.failures == [] and checks.attempted > 0


def test_report_whose_probe_passes_is_rejected(random_fields):
    plan, steps = random_fields
    doc = workloads.suite_report(steps["holomorphy"])
    bad = copy.deepcopy(doc)
    probe = next(c for c in bad["cases"] if c["name"].startswith("probe:"))
    probe["max_residual"] = 0.0
    probe["pass"] = True
    checks = _check(bad, plan.reference["holomorphy"])
    assert any(probe["name"] in f for f in checks.failures)
    # the same report judged with no reference (stencil mode) fails too
    assert _check(bad, None).failures


def test_residual_drifted_past_the_bound_is_rejected(random_fields):
    plan, steps = random_fields
    doc = workloads.suite_report(steps["reductions"])
    case = next(c for c in doc["cases"] if c["name"] == "free-plane-wave-1")
    reference = plan.reference["reductions"]

    within = copy.deepcopy(doc)
    next(c for c in within["cases"] if c["name"] == case["name"])["max_residual"] += 0.5e-15
    assert _check(within, reference).failures == []

    drifted = copy.deepcopy(doc)
    bad = next(c for c in drifted["cases"] if c["name"] == case["name"])
    bad["max_residual"] += 2e-15
    assert bad["max_residual"] <= bad["tolerance"]  # still a passing verdict
    failures = _check(drifted, reference).failures
    assert len(failures) == 1 and "drifted" in failures[0]


def test_nonrelativistic_energies_are_rejected():
    model = workloads.cb.CoulombModel(alpha=workloads.ALPHA)
    for (n, l), factor in workloads.ORACLE_FACTOR.items():
        step = workloads.ShootingStep(
            n, l,
            e_sommerfeld=workloads.cb.make_state(model, n, l).energy,
            e_nonrel=model.units.rest_energy + workloads.cb.nonrelativistic_binding(model, n, l),
            factor=factor,
        )
        checks = workloads.Checks()
        workloads.check_energy(step, step.e_nonrel, checks)
        workloads.check_energy(step, step.e_sommerfeld, checks)
        assert checks.attempted == 2 and len(checks.failures) == 1
        assert "from nonrelativistic" in checks.failures[0]


def test_failing_step_is_a_failed_check():
    plan = workloads.Plan("eigen-exact", 0, 0, (workloads.SuiteStep("no-such-suite", {}, diffengine.DiffConfig()),))
    checks = workloads.Checks()
    workloads.run_pass(plan, checks)
    assert checks.attempted == 1 and "ConfigError" in checks.failures[0]


def test_two_traced_passes_count_the_same():
    stencil = {s.suite: s for s in workloads.steps_for("eigen-stencil", 1)}
    exact = {s.suite: s for s in workloads.steps_for("random-fields", 1)}
    shoot = next(s for s in workloads.steps_for("shooting-oracle", 1) if (s.n, s.l) == (0, 0))
    plan = workloads.Plan("mixed", 1, 1, (stencil["coulomb-x"], exact["reductions"], shoot))
    originals = (diffengine._diff, confmap._diff, oscillator.hermite, dual.HyperDual.__init__, harness.run_suite)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        checks = workloads.Checks()
        with tracer.installed():
            assert confmap._diff is not originals[1]
            workloads.run_pass(plan, checks)
        assert checks.failures == []
        counts.append(dict(tracer.counts))
    assert counts[0] == counts[1]
    for name in ("diffengine._diff", "diffengine.samples", "core.ComplexField.__call__",
                 "dual.constructions", "shooting.solve_ivp", "shooting.rhs_evals", "report.bytes"):
        assert counts[0][name] > 0, name
    assert originals == (diffengine._diff, confmap._diff, oscillator.hermite, dual.HyperDual.__init__,
                         harness.run_suite)


def test_reference_seconds_scale_wall_time_by_the_probes():
    ref = hostspeed.REFERENCE_S
    half = 0.5 ** hostspeed.SENSITIVITY
    speed = hostspeed.Speedometer()
    # probes at 0, 1 and 2 s: the host ran at full speed, then at half
    speed.starts = [0.0, 1.0, 2.0]
    speed.durations = [ref, 2 * ref, 2 * ref]
    assert speed.window(0.5, 2.5) == (4 * ref, pytest.approx(half))
    assert speed.reference_seconds(0.5, 2.5) == pytest.approx((2.0 - 4 * ref) * half)
    assert speed.wall_seconds(0.5, 2.5) == pytest.approx(2.0 - 4 * ref)
    # a window holding no probe takes the nearest one on each side
    assert speed.window(0.2, 0.8) == (0.0, pytest.approx((1.0 + half) / 2))


def test_speedometer_samples_while_code_runs():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Speedometer() as speed:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
        t1 = time.perf_counter()
    assert len(speed.durations) >= 5
    assert 0.0 < speed.wall_seconds(t0, t1) < t1 - t0
    assert speed.reference_seconds(t0, t1) > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
