"""scripts/golden_diff.py on copies of the committed exact-mode goldens."""

import importlib.util
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def _golden_diff():
    spec = importlib.util.spec_from_file_location("golden_diff", ROOT / "scripts" / "golden_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _copy(tmp_path, name) -> Path:
    out = tmp_path / name
    out.mkdir()
    for report in GOLDEN.glob("*.json"):
        shutil.copy(report, out)
    return out


def _edit(path: Path, case: str, **fields):
    doc = json.loads(path.read_text())
    (target,) = [c for c in doc["cases"] if c["name"] == case]
    target.update(fields)
    path.write_text(json.dumps(doc, indent=2))


def test_identical_sets_report_no_change(tmp_path, capsys):
    old, new = _copy(tmp_path, "old"), _copy(tmp_path, "new")
    assert _golden_diff().main([str(old), str(new)]) == 0
    assert capsys.readouterr().out == "0 changes, 0 beyond a residual drift of 1e-15 * max(1, |old|)\n"


# (report, case, move of its max_residual, exit code): 1e-15 is absolute
# below a residual of 1 and relative above it, as in the benchmark's check
EDITS = [
    ("coulomb-x.json", "coulomb-x-(1, 0, 0)-sommerfeld", 1e-16, 0),
    ("coulomb-x.json", "coulomb-x-(1, 0, 0)-sommerfeld", 2e-15, 1),
    ("holomorphy.json", "probe:t-squared", 1.5e-15, 0),
    ("holomorphy.json", "probe:t-squared", 3e-15, 1),
]


@pytest.mark.parametrize("report,case,move,code", EDITS, ids=range(len(EDITS)))
def test_one_edited_residual_is_the_one_change(tmp_path, capsys, report, case, move, code):
    """One moved residual is the one line, beyond exactly when the
    benchmark's reference check (workloads.check_report) refuses it."""
    old, new = _copy(tmp_path, "old"), _copy(tmp_path, "new")
    doc = json.loads((old / report).read_text())
    (was,) = [c["max_residual"] for c in doc["cases"] if c["name"] == case]
    _edit(new / report, case, max_residual=was + move)
    assert _golden_diff().main([str(old), str(new)]) == code
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith("1 changes")
    assert lines[0].startswith(f"{report}  {case}  max_residual  {was!r} -> ")
    assert lines[0].endswith("BEYOND") == (code == 1)

    checks = workloads.Checks()
    reference = {c["name"]: (c["max_residual"], c["tolerance"]) for c in doc["cases"]}
    workloads.check_report(json.loads((new / report).read_text()), checks, reference)
    assert bool(checks.failures) == (code == 1)


def test_verdicts_and_cases_on_one_side_are_beyond_the_bound(tmp_path, capsys):
    old, new = _copy(tmp_path, "old"), _copy(tmp_path, "new")
    doc = json.loads((new / "ladder.json").read_text())
    first, dropped = doc["cases"][0]["name"], doc["cases"].pop()["name"]
    (new / "ladder.json").write_text(json.dumps(doc, indent=2))
    _edit(new / "ladder.json", first, **{"pass": False})
    (new / "holomorphy.json").unlink()
    assert _golden_diff().main([str(old), str(new)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "holomorphy.json  (file)  only in OLD  BEYOND",
        f"ladder.json  {dropped}  only in OLD  BEYOND",
        f"ladder.json  {first}  pass  true -> false  BEYOND",
        "3 changes, 3 beyond a residual drift of 1e-15 * max(1, |old|)",
    ]


def test_missing_path_exits_2(tmp_path, capsys):
    assert _golden_diff().main([str(GOLDEN), str(tmp_path / "absent")]) == 2
    assert "no such path" in capsys.readouterr().err
