"""Exact-mode reports of every suite at default parameters, against goldens.

The files under ``tests/golden/`` are the CLI's exact-mode reports.  Each
case must come back with the same name and bit-identical numbers and
verdict; the order of the cases is not compared.  Regenerate them, after
a deliberate change to a report, with

    for s in oscillator-x oscillator-z ladder coulomb-x coulomb-z \\
             map-independence holomorphy operator-identities reductions; do
        kgconformal verify --suite $s --mode exact --output tests/golden/$s.json
    done
"""

import json
from pathlib import Path

import pytest

from kgconformal.diffengine import DiffConfig, MODE_EXACT
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
