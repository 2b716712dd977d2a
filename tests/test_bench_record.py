"""scripts/bench_record.py: its pair count check, its verdict lines and the
environment of its runs, with the benchmark runs replaced by fixed numbers."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fake_run(calls):
    """certify_s 0.150 in the parent and 0.120 in the change, except the
    change's seed-3 run (0.160); setup_s equal; peak_rss_mb 1% higher."""

    def run(checkout, workload, seed):
        calls.append((checkout.name, workload, seed))
        change = checkout.name == "change"
        certify = (0.160 if seed == 3 else 0.120) if change else 0.150
        return {"seed": seed, "failed": 0, "attempted": 10,
                "certify_s": certify, "setup_s": 0.13, "peak_rss_mb": 40.4 if change else 40.0}

    return run


@pytest.mark.parametrize("pairs", ["1", "0", "-3"])
def test_fewer_than_two_pairs_is_rejected_before_any_run(pairs, tmp_path, monkeypatch, capsys):
    module = _bench_record()
    calls = []
    monkeypatch.setattr(module, "run", _fake_run(calls))
    with pytest.raises(SystemExit) as exc:
        module.main(["--parent", str(tmp_path), "--out", str(tmp_path / "out.json"), "--pairs", pairs])
    assert exc.value.code == 2
    assert calls == [] and not (tmp_path / "out.json").exists()
    assert "--pairs must be at least 2" in capsys.readouterr().err


def test_one_verdict_line_per_metric(tmp_path, monkeypatch, capsys):
    module = _bench_record()
    calls = []
    monkeypatch.setattr(module, "run", _fake_run(calls))
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--workloads", "eigen-exact",
            "--pairs", "4", "--first-seed", "1", "--out", str(out)]
    assert module.main(argv) == 0
    assert len(calls) == 8
    lines = [line for line in capsys.readouterr().out.splitlines() if ": parent " in line]
    assert lines == [
        "eigen-exact certify_s: parent 0.15 -> change 0.12 s (-20.0%; bound 25% worse: within), "
        "change better in 3 of 4 pairs, parent IQR 0 s: median move larger",
        "eigen-exact setup_s: parent 0.13 -> change 0.13 s (+0.0%; bound 25% worse: within), "
        "change better in 0 of 4 pairs, parent IQR 0 s: median move not larger",
        "eigen-exact peak_rss_mb: parent 40 -> change 40.4 MB (+1.0%; bound 10% worse: within), "
        "change better in 0 of 4 pairs, parent IQR 0 MB: median move larger; "
        "pass count change/parent 1.000 (median attempted checks)",
    ]
    record = json.loads(out.read_text())["workloads"]["eigen-exact"]
    assert record["change_faster_pairs"] == 3 and record["change"]["certify_s"]["median"] == 0.12


def test_a_move_past_the_bound_is_named():
    module = _bench_record()
    runs = {"parent": [{"attempted": 10, **{m: 1.0 for m in module.METRICS}}] * 2,
            "change": [{"attempted": 10, **{m: 1.3 for m in module.METRICS}}] * 2}
    end_to_end = {m: {"unit": "s", "better": "lower", "bound": 0.25} for m in module.METRICS}
    (line, *_) = module.verdicts("w", runs, end_to_end)
    assert line == ("w certify_s: parent 1 -> change 1.3 s (+30.0%; bound 25% worse: PAST), change better in 0 of 2 pairs, "
                    "parent IQR 0 s: median move larger")


def test_the_memory_line_names_the_pass_count_ratio():
    """A run attempts a fixed number of checks a pass, so the ratio of the
    median attempted checks is the ratio of the passes each side ran; it
    rides on the peak_rss_mb line only."""
    module = _bench_record()
    runs = {"parent": [{"attempted": a, **{m: 1.0 for m in module.METRICS}} for a in (900, 1000, 1200)],
            "change": [{"attempted": a, **{m: 1.0 for m in module.METRICS}} for a in (1250, 1100, 1300)]}
    end_to_end = {m: {"unit": "s", "better": "lower", "bound": 0.25} for m in module.METRICS}
    certify, setup, memory = module.verdicts("w", runs, end_to_end)
    assert memory.endswith("median move not larger; pass count change/parent 1.250 (median attempted checks)")
    assert "pass count" not in certify + setup


@pytest.mark.parametrize("shift, verdict", [(-0.2, "not larger"), (-0.35, "larger")])
def test_the_median_move_is_weighed_against_the_parents_quartile_spread(shift, verdict):
    """Parent runs 1.0 to 1.6 s have quartiles 1.15 and 1.45 (inclusive
    method), a spread of 0.3 s: a change better in every pair by 0.2 s moves
    its median by less than that, by 0.35 s by more."""
    module = _bench_record()
    parent = [1.0, 1.2, 1.4, 1.6]
    runs = {side: [{"attempted": 10, **{m: v + (shift if side == "change" else 0.0) for m in module.METRICS}}
                   for v in parent]
            for side in ("parent", "change")}
    end_to_end = {m: {"unit": "s", "better": "lower", "bound": 0.25} for m in module.METRICS}
    (line, *_) = module.verdicts("w", runs, end_to_end)
    assert line.endswith(f"change better in 4 of 4 pairs, parent IQR 0.3 s: median move {verdict}")


def test_both_sides_run_without_checkout_bytecode(tmp_path, monkeypatch):
    """Every run gets the same environment, with bytecode writes off and no
    cache prefix (site-packages bytecode stays in use), in a checkout that
    holds no .pyc when the run starts."""
    module = _bench_record()
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "prefix"))
    runs = []

    def fake_run(cmd, cwd, env, **kwargs):
        runs.append((Path(cwd).name, env, list(Path(cwd).rglob("*.pyc"))))
        result = {"failed": 0, "attempted": 1, "metrics": {m: {"value": 1.0} for m in module.METRICS}}
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(result) + "\n")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    for side in ("parent", "change", "change", "parent"):
        module.run(tmp_path / side, "eigen-exact", 0)
    assert [side for side, _, _ in runs] == ["parent", "change", "change", "parent"]
    assert all(pyc == [] for _, _, pyc in runs)
    assert all(env == runs[0][1] for _, env, _ in runs)
    assert runs[0][1]["PYTHONDONTWRITEBYTECODE"] == "1" and "PYTHONPYCACHEPREFIX" not in runs[0][1]


def test_a_checkout_with_bytecode_is_refused_before_its_run(tmp_path, monkeypatch):
    module = _bench_record()
    calls = []
    monkeypatch.setattr(module.subprocess, "run", lambda *a, **k: calls.append(a))
    cache = tmp_path / "change" / "src" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "core.cpython-311.pyc").write_bytes(b"")
    with pytest.raises(SystemExit, match="bytecode in the checkout"):
        module.run(tmp_path / "change", "eigen-exact", 0)
    assert calls == []
