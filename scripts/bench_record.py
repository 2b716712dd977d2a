#!/usr/bin/env python3
"""Record the benchmark of a change against its parent as a BENCH_*.json file.

Run from the root of a fresh export of the change, with a second export
of the parent commit (each made with ``git clone`` or ``git archive``):

    python3 scripts/bench_record.py --parent ../parent --out BENCH_6.json

For each workload and each of ``--pairs`` seeds it runs

    python3 perfbench/run.py --workload W --seed S --seconds 25

once in each checkout, alternating which side runs first.  The file
holds every run's metrics and failed checks and, for each side, the
median and quartiles of ``certify_s``, ``setup_s`` and ``peak_rss_mb``,
plus the pairs in which the change's ``certify_s`` was lower.  If the
file exists, workloads not run this time keep their entries, so
workloads can be recorded with different pair counts.

Each run starts with ``PYTHONDONTWRITEBYTECODE=1`` and no
``PYTHONPYCACHEPREFIX``, so it writes no bytecode, and it is refused if
its checkout holds a ``.pyc`` file.  So pass fresh exports of both sides
(``git archive`` or ``git clone``, the change too, not a working tree
that tests have run in): neither side then reads bytecode of its own
modules, while the interpreter's and site-packages' bytecode is read as
usual on both, and setup time and memory are compared on equal terms.

After each workload it prints one verdict line per metric: the change's
median against the parent's, the relative move against the metric's
bound in the change's ``BENCHMARK.json``, the pairs in which the change
was better, the parent's quartile spread (q3 - q1) and whether the move
of the median is larger than that spread.  A claimed gain needs both: the
change better in at least 9 of 10 pairs, and a median move larger than
the parent's spread.  Quartiles need at least two pairs, so ``--pairs``
below 2 is rejected before any run.

The ``peak_rss_mb`` line also prints the change/parent ratio of the
median ``attempted`` checks.  A workload's pass attempts a fixed number
of checks, so this is the ratio of the pass counts; peak memory grows
with the passes a run fits in its time, so a faster change can read
higher memory for that alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("eigen-exact", "eigen-stencil", "random-fields", "shooting-oracle")
METRICS = ("certify_s", "setup_s", "peak_rss_mb")
SECONDS = 25


def run(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS)]
    left = next(checkout.rglob("*.pyc"), None)
    if left is not None:
        sys.exit(f"{left}: bytecode in the checkout; run from a fresh git archive or clone of it")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPYCACHEPREFIX"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"],
            **{m: result["metrics"][m]["value"] for m in METRICS}}


def quartiles(values) -> list:
    """[q1, median, q3] of the values, by the inclusive method."""
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(runs: list) -> dict:
    out = {}
    for m in METRICS:
        q1, median, q3 = quartiles([r[m] for r in runs])
        out[m] = {"median": median, "q1": q1, "q3": q3}
    out["failed"] = sum(r["failed"] for r in runs)
    out["attempted"] = sum(r["attempted"] for r in runs)
    return out


def verdicts(workload: str, runs: dict, end_to_end: dict) -> list:
    """One line per metric: parent and change medians, the relative move
    against the metric's bound, the pairs the change won, and the parent's
    quartile spread against the move of the median."""
    lines = []
    for m in METRICS:
        spec = end_to_end[m]
        parent, change = (statistics.median(r[m] for r in runs[side]) for side in ("parent", "change"))
        move = (change - parent) / parent
        worse = 1.0 if spec["better"] == "lower" else -1.0  # the sign of a move for the worse
        won = sum(worse * (c[m] - p[m]) < 0 for p, c in zip(runs["parent"], runs["change"]))
        q1, _, q3 = quartiles([r[m] for r in runs["parent"]])
        line = (
            f"{workload} {m}: parent {parent:.4g} -> change {change:.4g} {spec['unit']} ({move:+.1%}; "
            f"bound {spec['bound']:.0%} worse: {'within' if worse * move <= spec['bound'] else 'PAST'}), "
            f"change better in {won} of {len(runs['change'])} pairs, parent IQR {q3 - q1:.4g} {spec['unit']}: "
            f"median move {'larger' if abs(change - parent) > q3 - q1 else 'not larger'}"
        )
        if m == "peak_rss_mb":  # a pass holds a fixed number of checks, and memory grows with the passes
            passes = [statistics.median(r["attempted"] for r in runs[side]) for side in ("change", "parent")]
            line += f"; pass count change/parent {passes[0] / passes[1]:.3f} (median attempted checks)"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=Path("."), help="checkout of the change")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=WORKLOADS)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error(f"--pairs must be at least 2 (quartiles of the runs), not {args.pairs}")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end = {spec["name"]: spec for spec in benchmark["end_to_end"]}

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record["command"] = f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS}"
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run(getattr(args, side), workload, seed))
            print(workload, seed, {s: runs[s][-1]["certify_s"] for s in order}, flush=True)
        wins = sum(c["certify_s"] < p["certify_s"] for p, c in zip(runs["parent"], runs["change"]))
        record.setdefault("workloads", {})[workload] = {
            "pairs": args.pairs,
            "change_faster_pairs": wins,
            **{side: {**summary(r), "runs": r} for side, r in runs.items()},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print("\n".join(verdicts(workload, runs, end_to_end)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
