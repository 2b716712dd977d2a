#!/usr/bin/env python3
"""Reproduce the timing figures quoted under Recent in ROADMAP.md.

Run from the repository root:

    python3 perfbench/recent.py

One untraced run, no repeats, about a minute.  It prints wall seconds for
each of the nine suites in exact-forward and stencil mode, with the
oscillator suites at nmax 6 and the rest at their defaults, and the
totals; then the shooting oracle for each of the six low-lying Coulomb
states with its solve_ivp calls and right-hand-side evaluations.  Host
speed moves these figures by 10-30 % from one run to the next (see
README.md).
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import tracing  # noqa: E402
from kgconformal import harness, shooting  # noqa: E402
from kgconformal.diffengine import MODE_EXACT, MODE_STENCIL, DiffConfig  # noqa: E402
from workloads import ALPHA, LOW_STATES  # noqa: E402

PARAMS = {suite: {"nmax": 6} for suite in ("oscillator-x", "oscillator-z", "ladder")}


def timed_suite(name, params, mode):
    t0 = time.perf_counter()
    report = harness.run_suite(name, params, DiffConfig(mode=mode))
    return time.perf_counter() - t0, report.passed


def main() -> int:
    print(f"{'suite':22s} {'exact s':>9s} {'stencil s':>10s}")
    totals = {MODE_EXACT: 0.0, MODE_STENCIL: 0.0}
    for suite in harness.SUITES:
        row = []
        for mode in (MODE_EXACT, MODE_STENCIL):
            sec, ok = timed_suite(suite, PARAMS.get(suite, {}), mode)
            totals[mode] += sec
            row.append(f"{sec:.3f}" + ("" if ok else " FAIL"))
        print(f"{suite:22s} {row[0]:>9s} {row[1]:>10s}", flush=True)
    print(f"{'nine suites':22s} {totals[MODE_EXACT]:9.3f} {totals[MODE_STENCIL]:10.3f}")

    print(f"\n{'state':8s} {'shooting s':>10s} {'solve_ivp':>9s} {'rhs evals':>10s}")
    for n, l in LOW_STATES:
        tracer = tracing.Tracer()
        with tracer.installed():
            t0 = time.perf_counter()
            shooting.shooting_eigenvalue(n, l, ALPHA)
            sec = time.perf_counter() - t0
        print(f"({n},{l})    {sec:10.3f} {tracer.counts['shooting.solve_ivp']:9d} "
              f"{tracer.counts['shooting.rhs_evals']:10d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
