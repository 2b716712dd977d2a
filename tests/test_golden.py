"""Reports of every suite at default parameters, against goldens.

The files under ``tests/golden/`` are the CLI's exact-mode reports.  Each
case must come back with the same name and bit-identical numbers and
verdict; the order of the cases is not compared.  The files under
``tests/golden/stencil/`` are the stencil-mode reports with ``wall_ms``
zeroed; they must come back byte for byte.  Regenerate them, after a
deliberate change to a report, with

    for s in oscillator-x oscillator-z ladder coulomb-x coulomb-z \\
             map-independence holomorphy operator-identities reductions; do
        kgconformal verify --suite $s --mode exact --output tests/golden/$s.json
        kgconformal verify --suite $s --mode stencil --output tests/golden/stencil/$s.json
    done

and set ``wall_ms`` to 0.0 in each stencil file.

The files under ``tests/golden/map/`` pin the ``map`` command: for each run
in MAP_RUNS, its stdout (``<run>.out``) and stderr (``<run>.err``) on one of
the points files there.  Regenerate them with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from kgconformal.cli import main
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL
from kgconformal.harness import SUITES, run_suite

GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("suite", SUITES)
def test_exact_report_matches_golden(suite):
    golden = json.loads((GOLDEN / f"{suite}.json").read_text())
    doc = json.loads(run_suite(suite, {}, DiffConfig(mode=MODE_EXACT)).with_wall_ms(0.0).to_json())
    assert doc["suite"] == golden["suite"] and doc["mode"] == golden["mode"]
    assert doc["summary"] == golden["summary"]
    by_name = {c["name"]: c for c in doc["cases"]}
    assert len(by_name) == len(doc["cases"])
    assert by_name == {c["name"]: c for c in golden["cases"]}


@pytest.mark.parametrize("suite", SUITES)
def test_stencil_report_matches_golden(suite):
    golden = (GOLDEN / "stencil" / f"{suite}.json").read_text()
    assert run_suite(suite, {}, DiffConfig(mode=MODE_STENCIL)).with_wall_ms(0.0).to_json() == golden


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
    for run in MAP_RUNS:
        _, stdout, stderr = _map_run(run)
        (GOLDEN / "map" / f"{run}.out").write_text(stdout)
        (GOLDEN / "map" / f"{run}.err").write_text(stderr)
