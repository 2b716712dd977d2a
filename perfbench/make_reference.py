#!/usr/bin/env python3
"""Write the exact-mode reference residuals the output check compares against.

Run from the repository root, on the commit whose residuals are the
reference:

    python3 perfbench/make_reference.py

It runs every input variant of each exact-mode workload once and writes
``perfbench/reference/<workload>.json``: per variant, per suite, per case
``[max_residual, tolerance]``.  Floats are written with repr, so they
read back bit for bit.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    for workload in workloads.REFERENCED:
        variants = []
        for variant in range(workloads.VARIANTS):
            suites = {}
            for step in workloads.steps_for(workload, variant):
                doc = workloads.suite_report(step)
                suites[doc["suite"]] = {c["name"]: [c["max_residual"], c["tolerance"]] for c in doc["cases"]}
            variants.append(suites)
            print(f"{workload} variant {variant} done", flush=True)
        path = workloads.reference_path(workload)
        body = ",\n".join(json.dumps(v, separators=(",", ":")) for v in variants)
        path.write_text(f'{{"workload": "{workload}", "variants": [\n{body}\n]}}\n')
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
