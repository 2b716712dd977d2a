"""Reports of every suite at default parameters, against goldens.

The files under ``tests/golden/`` are the CLI's exact-mode reports, and
those under ``tests/golden/stencil/`` the stencil-mode reports, each with
``wall_ms`` 0.0.  Both must come back byte for byte.

The files under ``tests/golden/map/`` pin the ``map`` command: for each run
in MAP_RUNS, its stdout (``<run>.out``) and stderr (``<run>.err``) on one of
the points files there.

After a deliberate change to a report, regenerate every golden, in both
modes and of every map run, with ``PYTHONPATH=src python tests/test_golden.py``,
and compare the old and new reports with ``scripts/golden_diff.py``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from kgconformal.cli import main
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL
from kgconformal.harness import SUITES, run_suite

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden(suite, mode) -> Path:
    """The golden report's file of the suite in ``mode``."""
    return (GOLDEN if mode == MODE_EXACT else GOLDEN / "stencil") / f"{suite}.json"


def _report(suite, mode) -> str:
    """The suite's report at default parameters, with ``wall_ms`` 0.0."""
    return run_suite(suite, {}, DiffConfig(mode=mode)).with_wall_ms(0.0).to_json()


@pytest.mark.parametrize("suite", SUITES)
def test_exact_report_matches_golden(suite):
    assert _report(suite, MODE_EXACT) == _golden(suite, MODE_EXACT).read_text()


@pytest.mark.parametrize("suite", SUITES)
def test_stencil_report_matches_golden(suite):
    assert _report(suite, MODE_STENCIL) == _golden(suite, MODE_STENCIL).read_text()


RAW_LOG = ["--a", "0.2", "--b", "1.5", "--lam", "3", "--energy", "2"]
RAW_IDENTITY = ["--b", "inf", "--energy", "1"]

#: each map run: (points file under tests/golden/map/, options, exit code)
MAP_RUNS = {
    "oscillator": ("points.txt", ["--system", "oscillator"], 0),
    "oscillator-omega-3.7": ("points.txt", ["--system", "oscillator", "--omega", "3.7"], 0),
    "oscillator-omega-0": ("points.txt", ["--system", "oscillator", "--omega", "0"], 0),
    "coulomb-00": ("points.txt", ["--system", "coulomb"], 0),
    "coulomb-21-alpha-0.3": ("points.txt", ["--system", "coulomb", "--state", "2,1", "--alpha", "0.3"], 0),
    "coulomb-10-hydrino": ("points.txt", ["--system", "coulomb", "--state", "1,0", "--branch", "hydrino"], 0),
    "raw-lam-2": ("points.txt", ["--a", "-0.3", "--b", "0.8", "--energy", "1.1", "--hbar", "0.7"], 0),
    "raw-lam-3": ("points.txt", RAW_LOG, 0),
    "raw-lam-1.5": ("points.txt", ["--b", "2", "--lam", "1.5", "--energy", "0.7"], 0),
    "raw-b-inf-log": ("points.txt", ["--a", "0.4", "--b", "inf", "--energy", "1.3"], 0),
    "raw-b-inf-identity": ("points.txt", RAW_IDENTITY, 0),
    "comments-only": ("comments.txt", ["--system", "oscillator"], 0),
    "origin-oscillator": ("origin.txt", ["--system", "oscillator"], 0),
    "origin-coulomb": ("origin.txt", ["--system", "coulomb"], 3),
    "origin-raw-log": ("origin.txt", RAW_LOG, 3),
    "origin-raw-identity": ("origin.txt", RAW_IDENTITY, 0),
}


def _map_run(name):
    """(exit code, stdout, stderr) of one map run."""
    points, options, _ = MAP_RUNS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["map", "--points", str(GOLDEN / "map" / points), *options])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", MAP_RUNS)
def test_map_output_matches_golden(name):
    code, out, err = _map_run(name)
    assert code == MAP_RUNS[name][2]
    assert out == (GOLDEN / "map" / f"{name}.out").read_text()
    assert err == (GOLDEN / "map" / f"{name}.err").read_text()


if __name__ == "__main__":
    for suite in SUITES:
        for mode in (MODE_EXACT, MODE_STENCIL):
            _golden(suite, mode).write_text(_report(suite, mode))
    for run in MAP_RUNS:
        _, stdout, stderr = _map_run(run)
        (GOLDEN / "map" / f"{run}.out").write_text(stdout)
        (GOLDEN / "map" / f"{run}.err").write_text(stderr)
