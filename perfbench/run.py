#!/usr/bin/env python3
"""Benchmark of the kgconformal certifier.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload eigen-exact --seed 0 --seconds 25 --trace 0

It imports the package from the checkout's ``src/``, builds the
workload's plan from the seed, and runs certification passes (every
suite of the plan, or every shooting state, plus the output check) for
about ``--seconds`` seconds, stopping before a pass that would end past
that.  Untraced passes and set-up are timed in reference seconds: wall
seconds scaled by the host's measured speed (see hostspeed.py).  Lines
before the last describe the run, wall seconds included; the last line
is one JSON object: ``correct``, ``attempted`` and ``failed`` count
output checks, and ``metrics`` holds

* ``--trace 0``: ``certify_s`` (median reference seconds per pass),
  ``setup_s`` (median over fresh interpreters that import the CLI,
  harness and shooting modules and build the plan) and ``peak_rss_mb``
  of this process;
* ``--trace 1``: per-layer counts and wall self times from traced passes
  (see tracing.py), per-suite and per-state reference seconds from
  untraced ones, and ``trace.overhead_ratio``.  The spans of the first
  traced pass are written to ``perfbench/traces/``.

Exit status is 0 whenever a result line is printed, 1 if the checkout
holds no ``src/kgconformal`` package.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
TRACE_DIR = HERE / "traces"
SETUP_SAMPLES = 5
# prints the reference and the wall seconds of its imports and plan
SETUP_CHILD = """\
import sys, time
sys.path[:0] = {paths!r}
import hostspeed
with hostspeed.Speedometer() as speed:
    t0 = time.perf_counter()
    import kgconformal.cli, kgconformal.harness, kgconformal.shooting
    import workloads
    workloads.build_plan({workload!r}, {seed!r})
    t1 = time.perf_counter()
print(speed.reference_seconds(t0, t1), speed.wall_seconds(t0, t1))
"""


def import_package():
    """Put the checkout's package first on the path, or exit without a result."""
    if not (SRC / "kgconformal" / "__init__.py").is_file():
        sys.exit(f"perfbench: no kgconformal package at {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import kgconformal

    if Path(kgconformal.__file__).resolve().parent != SRC / "kgconformal":
        sys.exit(f"perfbench: imported kgconformal from {kgconformal.__file__}, not from {SRC}")


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def setup_seconds(workload: str, seed: int) -> list:
    """(reference, wall) seconds of each fresh interpreter's set-up."""
    code = SETUP_CHILD.format(paths=[str(SRC), str(HERE)], workload=workload, seed=seed)
    out = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                               stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        ref_s, wall_s = map(float, child.stdout.split())
        out.append((ref_s, wall_s))
    return out


@dataclass
class Pass:
    seconds: float  # reference seconds if untraced, wall seconds if traced
    wall_s: float  # wall seconds, the probes' own time left out
    steps: dict  # step label -> seconds, as ``seconds``
    tracer: object = None


def run_passes(plan, checks, seconds: float, tracing=None) -> list:
    """Passes until the next one would likely end past ``seconds``; at least one.

    Untraced passes run under a Speedometer and are timed in reference
    seconds; traced passes, in wall seconds.
    """
    import hostspeed
    from workloads import run_pass

    deadline = time.perf_counter() + seconds
    passes, durations = [], []
    with contextlib.ExitStack() as stack:
        speed = None if tracing else stack.enter_context(hostspeed.Speedometer())
        while True:
            gc.collect()
            tracer = tracing.Tracer() if tracing else None
            with tracer.installed() if tracer else contextlib.nullcontext():
                stamps = run_pass(plan, checks)
            if speed is None:
                steps = wall = {label: t1 - t0 for label, t0, t1 in stamps}
            else:
                wall = {label: speed.wall_seconds(t0, t1) for label, t0, t1 in stamps}
                steps = {label: speed.reference_seconds(t0, t1) for label, t0, t1 in stamps}
            passes.append(Pass(sum(steps.values()), sum(wall.values()), steps, tracer))
            durations.append(stamps[-1][2] - stamps[0][1])
            if time.perf_counter() + statistics.median(durations) > deadline:
                return passes


def step_medians(passes) -> dict:
    return {label: statistics.median(p.steps[label] for p in passes) for label in passes[0].steps}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(plan, checks, seconds, lines):
    setup = setup_seconds(plan.workload, plan.seed)
    passes = run_passes(plan, checks, seconds)
    q1, med, q3 = quartiles([p.seconds for p in passes])
    s1, smed, s3 = quartiles([ref for ref, _ in setup])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"certify_s    median {med:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(passes)}  "
                 f"(wall median {statistics.median(p.wall_s for p in passes):.4f} s, host speed "
                 f"{statistics.median(p.seconds / p.wall_s for p in passes):.3f})")
    lines.append(f"setup_s      median {smed:.4f} s  q1 {s1:.4f}  q3 {s3:.4f}  n={len(setup)}  "
                 f"(wall median {statistics.median(wall for _, wall in setup):.4f} s)")
    lines.append(f"peak_rss_mb  {rss_mb:.2f} MB")
    for label, sec in step_medians(passes).items():
        lines.append(f"  {label:22s} median {sec:.4f} s")
    return {
        "certify_s": metric(med, "s"),
        "setup_s": metric(smed, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(plan, checks, seconds, lines):
    import tracing
    from kgconformal.harness import SUITES
    from workloads import SHOOTING_STATES

    start = time.perf_counter()
    plain = run_passes(plan, checks, seconds / 3.0)
    traced = run_passes(plan, checks, seconds - (time.perf_counter() - start), tracing)
    tracers = [p.tracer for p in traced]
    first = tracers[0]
    checks.expect(
        all(dict(t.counts) == dict(first.counts) for t in tracers[1:]),
        "traced passes disagree on their counts",
    )
    counts = first.counts
    self_s = {layer: statistics.median(t.layer_self_s()[layer] for t in tracers) for layer in tracing.LAYERS}
    plain_med = statistics.median(p.wall_s for p in plain)
    traced_med = statistics.median(p.wall_s for p in traced)
    requests = counts.get("diffengine._diff", 0)
    states = counts.get("shooting.shooting_eigenvalue", 0)
    steps = step_medians(plain)

    m = {
        "core.field_evals": metric(first.calls("core"), "count"),
        "core.self_s": metric(self_s["core"], "s"),
        "specfun.calls": metric(first.calls("specfun"), "count"),
        "specfun.self_s": metric(self_s["specfun"], "s"),
        "dual.constructions": metric(counts.get("dual.constructions", 0), "count"),
        "dual.lifts": metric(counts.get("dual.lifts", 0), "count"),
        "diffengine.requests": metric(requests, "count"),
        "diffengine.self_s": metric(self_s["diffengine"], "s"),
        "diffengine.samples": metric(counts.get("diffengine.samples", 0), "count"),
        "diffengine.samples_per_request": metric(
            counts.get("diffengine.samples", 0) / requests if requests else 0.0, "samples/req"),
        "confmap.operator_calls": metric(first.calls("confmap"), "count"),
        "confmap.self_s": metric(self_s["confmap"], "s"),
        "oscillator.self_s": metric(self_s["oscillator"], "s"),
        "coulomb.self_s": metric(self_s["coulomb"], "s"),
        "harness.test_fields": metric(counts.get("harness.generate_test_field", 0), "count"),
        "harness.self_s": metric(self_s["harness"], "s"),
    }
    for suite in SUITES:
        m[f"harness.suite_s.{suite}"] = metric(steps.get(suite, 0.0), "s")
    m.update({
        "report.bytes": metric(counts.get("report.bytes", 0), "bytes"),
        "report.self_s": metric(self_s["report"], "s"),
        "shooting.self_s": metric(self_s["shooting"], "s"),
        "shooting.solve_ivp_calls": metric(counts.get("shooting.solve_ivp", 0), "count"),
        "shooting.rhs_evals": metric(counts.get("shooting.rhs_evals", 0), "count"),
        "shooting.solve_ivp_s": metric(
            statistics.median(t.total_s.get("shooting.solve_ivp", 0.0) for t in tracers), "s"),
        "shooting.calls_per_state": metric(
            counts.get("shooting.solve_ivp", 0) / states if states else 0.0, "calls/state"),
    })
    for n, l in SHOOTING_STATES:
        m[f"shooting.state_s.{n}_{l}"] = metric(steps.get(f"shooting({n},{l})", 0.0), "s")
    m["trace.overhead_ratio"] = metric(traced_med / plain_med, "ratio")

    lines.append(f"untraced pass median {plain_med:.4f} wall s n={len(plain)}; "
                 f"traced pass median {traced_med:.4f} wall s n={len(traced)}")
    for name, v in m.items():
        lines.append(f"  {name:36s} {v['value']:.6g} {v['unit']}")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{plan.workload}-seed{plan.seed}.json"
    path.write_text(json.dumps({"workload": plan.workload, "seed": plan.seed, **first.dump()}) + "\n")
    lines.append(f"spans of the first traced pass written to {path.relative_to(HERE.parent)}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    plan = workloads.build_plan(args.workload, args.seed)
    checks = workloads.Checks()
    lines = [f"workload {plan.workload} seed {plan.seed} (input variant {plan.variant}) trace {args.trace}"]
    if args.trace:
        metrics = per_layer(plan, checks, args.seconds, lines)
    else:
        metrics = end_to_end(plan, checks, args.seconds, lines)
    failed = len(checks.failures)
    lines.append(f"fail_ratio {failed}/{checks.attempted} = {failed / checks.attempted:.6g}")
    lines += [f"FAILED {msg}" for msg in checks.failures[:20]]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
