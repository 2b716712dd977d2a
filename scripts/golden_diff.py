#!/usr/bin/env python3
"""List every change between two sets of suite reports, case by case.

    python3 scripts/golden_diff.py OLD NEW

OLD and NEW are two report files, or two directories of them (every
``*.json`` in each, matched by file name), such as a copy of
``tests/golden/`` taken before a regeneration and the regenerated
``tests/golden/``; ``tests/golden/stencil/`` is a set of its own.  Cases
are matched by name, so their order does not matter.  Each change prints
one line:

    coulomb-z.json  coulomb-z-(1, 0, 0)-sommerfeld  max_residual  1.24e-16 -> 1.25e-16  (+9.6e-19)

and so do a case or a file that only one side has, and a change of a
report's other fields (``suite``, ``mode``, ``summary``).  A last line
counts the changes.

A residual may drift as the benchmark's reference check lets it
(``perfbench/workloads.py``, ``check_report``): by at most
``DRIFT_BOUND * max(1, |old|)``.  Every other change is beyond it: a
residual that moved more, any other field (a verdict, a tolerance, an
estimate), and a case or a file that only one side has; these lines end
in ``BEYOND``.  It exits 0 when no change is beyond, 1 when some change
is, and 2 when a path is missing or a file is no report.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import DRIFT_BOUND  # noqa: E402


def _reports(path: Path) -> dict:
    """{file name: report} for a file, or for every *.json in a directory."""
    if path.is_dir():
        return {p.name: json.loads(p.read_text()) for p in sorted(path.glob("*.json"))}
    return {path.name: json.loads(path.read_text())}


def _fields(report: dict) -> dict:
    """{(case, field): value}: each case's fields under its name, and the
    report's other fields under the case name ''."""
    out = {("", key): value for key, value in report.items() if key != "cases"}
    for case in report.get("cases", []):
        out.update(((case["name"], key), value) for key, value in case.items() if key != "name")
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _within(field, x, y) -> bool:
    """A residual that drifted no more than the benchmark allows."""
    numbers = _is_number(x) and _is_number(y)
    return field == "max_residual" and numbers and abs(y - x) <= DRIFT_BOUND * max(1.0, abs(x))


def changes(old: dict, new: dict) -> list:
    """(file, case, field, old, new, beyond) for each difference between
    two {name: report} sets; a case or file on one side only has field None
    and the missing side None."""
    out = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            out.append((name, "", None, "report" if name in old else None, "report" if name in new else None, True))
            continue
        a, b = _fields(old[name]), _fields(new[name])
        cases_a, cases_b = {c for c, _ in a}, {c for c, _ in b}
        for case in sorted(cases_a ^ cases_b):
            out.append((name, case, None, "case" if case in cases_a else None, "case" if case in cases_b else None, True))
        for key in sorted(set(a) | set(b)):
            if key[0] not in cases_a & cases_b or a.get(key) == b.get(key):
                continue
            x, y = a.get(key), b.get(key)
            out.append((name, key[0], key[1], x, y, not _within(key[1], x, y)))
    return out


def _line(change) -> str:
    name, case, field, x, y, beyond = change
    if field is None:
        what = "only in NEW" if x is None else "only in OLD"
        text = f"{name}  {case or '(file)'}  {what}"
    elif _is_number(x) and _is_number(y):
        text = f"{name}  {case or '(report)'}  {field}  {x!r} -> {y!r}  ({y - x:+.2g})"
    else:
        text = f"{name}  {case or '(report)'}  {field}  {json.dumps(x)} -> {json.dumps(y)}"
    return text + ("  BEYOND" if beyond else "")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    args = ap.parse_args(argv)
    try:
        if not (args.old.exists() and args.new.exists()):
            raise OSError(f"no such path: {args.old if not args.old.exists() else args.new}")
        found = changes(_reports(args.old), _reports(args.new))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"golden_diff: {exc}", file=sys.stderr)
        return 2
    for change in found:
        print(_line(change))
    beyond = sum(c[-1] for c in found)
    print(f"{len(found)} changes, {beyond} beyond a residual drift of {DRIFT_BOUND:g} * max(1, |old|)")
    return 1 if beyond else 0


if __name__ == "__main__":
    sys.exit(main())
