import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kgconformal import cli, harness
from kgconformal.cli import EXIT_CONFIG, EXIT_DOMAIN, EXIT_FAIL, EXIT_PASS, main
from kgconformal.core import DomainError
from kgconformal.diffengine import DiffConfig, MODE_EXACT, MODE_STENCIL
from kgconformal.harness import SUITES, Grid, run_suite
from kgconformal.report import CaseResult, ResidualReport
from kgconformal.specfun import HYDRINO, SOMMERFELD


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_oscillator_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--system", "oscillator", "--n", "0..3")
    assert code == EXIT_PASS
    doc = json.loads(out)
    energies = [row["energy"] for row in doc["rows"]]
    assert energies == pytest.approx([2.0, math.sqrt(6), math.sqrt(8), math.sqrt(10)])


def test_spectrum_oscillator_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--system", "oscillator", "--n", "0..1", "--format", "csv")
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0] == "n,energy"
    assert len(lines) == 3


def test_spectrum_coulomb(capsys):
    code, out, _ = run(capsys, "spectrum", "--system", "coulomb", "--states", "(0,0);(1,0)")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    row = doc["rows"][0]
    assert row["energy"] < 1.0
    assert row["a"] * (1.0 - row["a"]) == pytest.approx(0.0072973525693**2, rel=1e-10)


def test_spectrum_coulomb_alpha_zero_is_config_error(capsys):
    code, _, err = run(capsys, "spectrum", "--system", "coulomb", "--alpha", "0.0")
    assert code == EXIT_CONFIG
    assert "b diverges" in err


def test_verify_holomorphy_pass(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "holomorphy", "--mode", "exact")
    assert code == EXIT_PASS
    doc = json.loads(out)
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["wall_ms"] == 0.0  # zeroed for reproducibility


def test_verify_timing_flag(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "holomorphy", "--mode", "exact", "--timing")
    assert code == EXIT_PASS
    assert json.loads(out)["summary"]["wall_ms"] > 0.0


def test_verify_failure_exit_code(capsys):
    # an unreachable tolerance makes regular cases fail -> exit 1
    # (rounding leaves the oscillator residuals tiny but nonzero)
    code, out, _ = run(
        capsys, "verify", "--suite", "oscillator-x", "--mode", "exact",
        "--nmax", "0", "--tolerance", "1e-30",
    )
    assert code == EXIT_FAIL
    assert json.loads(out)["summary"]["pass"] is False


def test_verify_byte_identical_reports(tmp_path, capsys):
    args = ("verify", "--suite", "oscillator-x", "--mode", "exact", "--nmax", "1")
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main([*args, "--output", str(f1)]) == EXIT_PASS
    assert main([*args, "--output", str(f2)]) == EXIT_PASS
    assert f1.read_bytes() == f2.read_bytes()


def test_verify_mode_flag(capsys):
    """--mode alone picks the mode; exact-forward by default."""
    for argv, mode in (((), "exact-forward"), (("--mode", "exact"), "exact-forward"), (("--mode", "stencil"), "stencil")):
        code, out, _ = run(capsys, "verify", "--suite", "holomorphy", *argv)
        assert code == EXIT_PASS
        assert json.loads(out)["mode"] == mode


def test_verify_runs_every_state_given(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "coulomb-x", "--mode", "exact", "--state", "0,0;1,0;(0,1,1)")
    assert code == EXIT_PASS
    names = [c["name"] for c in json.loads(out)["cases"] if not c["name"].startswith("probe:")]
    assert names == [f"coulomb-x-{qn}-sommerfeld" for qn in ((0, 0, 0), (1, 0, 0), (0, 1, 1))]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_empty_range_is_config_error(capsys, fmt):
    code, out, err = run(capsys, "spectrum", "--system", "oscillator", "--n", "3..1", "--format", fmt)
    assert code == EXIT_CONFIG and out == ""
    assert len(err.splitlines()) == 1 and "empty range" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv,message", [
    (("--system", "coulomb", "--states", "0,0", "--alpha", "1e-320"), "spectrum row n=0, l=0, k=0: r_nl = inf, b = inf"),
    (("--system", "oscillator", "--omega", "1e308", "--n", "0..3"), "spectrum row n=0: energy = inf"),
])
def test_spectrum_nonfinite_row_is_a_named_domain_error(capsys, fmt, argv, message):
    """A row with an inf or nan value is refused in both formats, naming
    the row, and nothing is written."""
    code, out, err = run(capsys, "spectrum", *argv, "--format", fmt)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"domain error: NonFiniteError: {message}\n"


# each count is refused before anything is allocated for it
@pytest.mark.parametrize("argv,message", [
    (("spectrum", "--system", "oscillator", "--n", "0..1000000000000"), "more than 100000"),
    (("spectrum", "--system", "oscillator", "--n", f"5..{5 + cli.MAX_RANGE}"), "more than 100000"),
    (("verify", "--suite", "operator-identities", "--n-fields", "1000000000000"), "'n_fields'"),
    (("verify", "--suite", "operator-identities", "--n-fields", str(harness.MAX_FIELDS + 1)), "'n_fields'"),
])
def test_huge_counts_are_config_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert len(err.splitlines()) == 1 and message in err


def _sweep_runs():
    """(suite, alpha, branch, mode) of each run of the alpha and branch sweep."""
    for suite in ("coulomb-x", "coulomb-z", "map-independence", "operator-identities"):
        for alpha in ("0.05", "0.3"):
            for branch in (SOMMERFELD, HYDRINO):
                for mode in ("exact", "stencil"):
                    yield suite, alpha, branch, mode


@pytest.mark.parametrize("suite,alpha,branch,mode", list(_sweep_runs()))
def test_coulomb_suites_across_alpha_and_branch(capsys, suite, alpha, branch, mode):
    """Away from the defaults that the goldens pin, each run passes with
    every probe failing, except two hydrino coulomb-z runs in stencil mode,
    asserted as they are.  At alpha = 0.3 the stencil misses ground-state
    flatness; at alpha = 0.05 it misses every regular case, each with an
    estimate above its residual, so the stencil does not resolve them.
    A suite that reads no branch runs on the default one, and refuses a
    branch given (exit 2) before anything runs."""
    argv = ["verify", "--suite", suite, "--mode", mode, "--alpha", alpha]
    reads_branch = "branch" in harness._DECLARATIONS[suite][1]
    if not reads_branch and branch == HYDRINO:
        code, out, err = run(capsys, *argv, "--branch", branch)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"config error: suite {suite!r} does not read parameter 'branch'\n"
        return
    if reads_branch:
        argv += ["--branch", branch]
    if branch == HYDRINO:
        argv += ["--state", "1,0;2,1"]
    code, out, err = run(capsys, *argv)
    cases = json.loads(out)["cases"]
    wrong = [c["name"] for c in cases if c["pass"] == c["name"].startswith("probe:")]
    assert any(c["name"].startswith("probe:") for c in cases) and err == ""
    if (suite, branch, mode) != ("coulomb-z", HYDRINO, "stencil"):
        assert (code, wrong) == (EXIT_PASS, [])
    elif alpha == "0.3":
        assert (code, wrong) == (EXIT_FAIL, ["coulomb-z-ground-flat-hydrino"])
    else:
        assert (code, wrong) == (EXIT_FAIL, [c["name"] for c in cases if not c["name"].startswith("probe:")])
        assert all(c["error_estimate"] > c["max_residual"] for c in cases if c["name"] in wrong)


def test_verify_config_file(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"nmax": 0}))
    code, out, _ = run(
        capsys, "verify", "--suite", "oscillator-x", "--mode", "exact", "--config", str(cfg)
    )
    assert code == EXIT_PASS
    names = [c["name"] for c in json.loads(out)["cases"]]
    assert len([n for n in names if not n.startswith("probe:")]) == 1  # only n = 0


#: each verify flag, a value for it, and the suite parameter it sets with that value
FLAG_PARAMS = {
    "--tolerance": ("1e-9", "tolerance", 1e-9),
    "--nmax": ("2", "nmax", 2),
    "--omega": ("0.5", "omega", 0.5),
    "--alpha": ("0.01", "alpha", 0.01),
    "--branch": ("hydrino", "branch", "hydrino"),
    "--state": ("1,0;(0,1,1)", "states", [(1, 0), (0, 1, 1)]),
    "--seed": ("3", "seed", 3),
    "--n-fields": ("7", "n_fields", 7),
}


@pytest.mark.parametrize("flag", sorted(FLAG_PARAMS))
def test_verify_flag_overrides_config(tmp_path, capsys, monkeypatch, flag):
    """A flag replaces its key from --config and leaves every other key as the file sets it."""
    config = {"tolerance": 1e-7, "nmax": 1, "omega": 2.0, "alpha": 0.1, "branch": "sommerfeld",
              "states": [[0, 0]], "seed": 1, "n_fields": 2}
    path = tmp_path / "params.json"
    path.write_text(json.dumps(config))
    seen = {}

    def fake_run_suite(name, params, cfg):
        seen.update(params)
        return ResidualReport(name, cfg.mode, (CaseResult("case", 0.0, 0.0, 1.0),))

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    text, key, value = FLAG_PARAMS[flag]
    code, _, _ = run(capsys, "verify", "--suite", "holomorphy", "--config", str(path), flag, text)
    assert code == EXIT_PASS
    assert seen == {**config, key: value}


def test_map_takes_one_state(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1.0 0.0 0.0 0.5\n")
    argv = ("map", "--points", str(pts), "--system", "coulomb")
    default = run(capsys, *argv)
    assert default[0] == EXIT_PASS
    assert run(capsys, *argv, "--state", "(0,0)") == default
    code, out, err = run(capsys, *argv, "--state", "(0,0);(1,0)")
    assert code == EXIT_CONFIG and out == ""
    assert len(err.splitlines()) == 1 and "one state" in err


def test_map_roundtrip(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("# comment line\n1.0 0.0 0.0 0.5\n0.3 -0.4 1.2 0.0\n")
    code, out, _ = run(
        capsys, "map", "--points", str(pts), "--system", "oscillator", "--omega", "1.0"
    )
    assert code == EXIT_PASS
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    assert len(lines) == 3
    for line in lines[1:]:
        cols = line.split()
        assert float(cols[5]) < 1e-14  # roundtrip error column
    # first point: r = 1, b = sqrt(2), E = 2 -> Im s = -(1/E)(r/b)^2 = -0.25
    cols = lines[1].split()
    assert float(cols[4]) == pytest.approx(-0.25, abs=1e-14)


def test_map_omega_zero_is_identity(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("0.7 0.1 -0.2 0.9\n")
    code, out, _ = run(
        capsys, "map", "--points", str(pts), "--system", "oscillator", "--omega", "0.0"
    )
    assert code == EXIT_PASS
    cols = out.strip().splitlines()[1].split()
    assert [float(c) for c in cols[:3]] == pytest.approx([0.7, 0.1, -0.2])
    assert float(cols[3]) == pytest.approx(0.9)
    assert float(cols[4]) == 0.0  # Im s vanishes: the map degenerates to identity


def test_map_raw_requires_parameters(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1 0 0 0\n")
    code, _, err = run(capsys, "map", "--points", str(pts), "--system", "raw")
    assert code == EXIT_CONFIG


def test_map_missing_points_file(capsys):
    code, _, err = run(capsys, "map", "--points", "/nonexistent/p.txt")
    assert code == EXIT_CONFIG


def test_map_malformed_points_file(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1 2 3\n")
    code, _, err = run(
        capsys, "map", "--points", str(pts), "--system", "oscillator"
    )
    assert code == EXIT_CONFIG
    assert "expected" in err


@pytest.mark.parametrize("row,message", [
    ("inf 0 0 0.5", "coordinates must be finite"),
    ("nan 1 0 0", "coordinates must be finite"),
    ("1 0 0 -inf", "coordinates must be finite"),
    ("1e200 0 0 0.5", "x1^2 + x2^2 + x3^2 overflows"),
])
@pytest.mark.parametrize("system", ["oscillator", "coulomb"])
def test_map_rejects_nonfinite_points_and_overflowing_radii(tmp_path, capsys, system, row, message):
    """A point the map cannot take is a config error naming its line, never
    a row of nan or inf."""
    pts = tmp_path / "pts.txt"
    pts.write_text(f"1 0 0 0\n{row}\n")
    code, out, err = run(capsys, "map", "--points", str(pts), "--system", system)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: {pts}:2: {message}\n"


@pytest.mark.parametrize("energy,row,error", [
    ("2", "1e150 0 0 0.5", "OverflowError"),  # (1e150 / 1.5)^3 in CPython
    ("1e-308", "2 0 0 0.5", "FloatingPointError"),  # (hbar / E) [a ln r + (r / b)^lam] in numpy
])
def test_map_names_the_point_whose_map_overflows(tmp_path, capsys, energy, row, error):
    pts = tmp_path / "pts.txt"
    pts.write_text(f"1 0 0 0.5\n# the next point fails\n{row}\n0.5 0 0 0\n")
    code, out, err = run(capsys, "map", "--points", str(pts), "--system", "raw",
                         "--a", "0.2", "--b", "1.5", "--lam", "3", "--energy", energy)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.startswith(f"domain error: DomainError: {pts}:3: {error}: ") and err.count("\n") == 1


def test_map_names_the_point_whose_r2_underflows(tmp_path, capsys):
    """ln(1e-200) is finite, but r^2 = 1e-400 underflows to 0: with a != 0
    the map names the point; with a = 0 it maps the point to s = t."""
    pts = tmp_path / "pts.txt"
    pts.write_text("1 0 0 0.5\n1e-200 0 0 0\n")
    raw = ("map", "--points", str(pts), "--system", "raw", "--b", "1.5", "--lam", "3", "--energy", "2")
    code, out, err = run(capsys, *raw, "--a", "0.2")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"domain error: DomainError: {pts}:2: r^2 = x1^2 + x2^2 + x3^2 underflows to 0\n"
    code, out, err = run(capsys, *raw, "--a", "0")
    assert (code, err) == (EXIT_PASS, "")
    assert out.splitlines()[2] == "1e-200 0.0 0.0 0.0 0.0 0.000e+00"


@pytest.mark.parametrize("argv,code", [
    (("--suite", "ladder", "--omega", "0"), EXIT_CONFIG),
    (("--suite", "oscillator-x", "--omega", "-1"), EXIT_CONFIG),
    # the grid and steps scale with Omega^(-1/2), so a tiny Omega is no bad input
    (("--suite", "oscillator-x", "--omega", "1e-300"), EXIT_PASS),
    (("--suite", "coulomb-x", "--alpha", "0.9"), EXIT_CONFIG),
    (("--suite", "coulomb-x", "--state", "0,0,5"), EXIT_CONFIG),
    (("--suite", "coulomb-x", "--state", "zero,one"), EXIT_CONFIG),
    # psi = r^200 exp(-r/r_nl) ... is itself past the double range on its grid, out to 4 r_nl = 1.1e5
    (("--suite", "coulomb-x", "--state", "0,200"), EXIT_DOMAIN),
    (("--suite", "holomorphy", "--tolerance", "nan"), EXIT_CONFIG),
    (("--suite", "operator-identities", "--n-fields", "0"), EXIT_CONFIG),
    (("--suite", "oscillator-x", "--nmax", "-1"), EXIT_CONFIG),
    (("--suite", "no-such-suite"), EXIT_CONFIG),
    (("--suite", "holomorphy", "--nmax", "two"), EXIT_CONFIG),
    # the grid reaches r = 4e150: the jets' sqrt takes f'' without forming r^3, which would overflow
    (("--suite", "oscillator-z", "--omega", "1e-300"), EXIT_PASS),
    # past MAX_SEED a field seed could leave int64
    (("--suite", "operator-identities", "--seed", str(harness.MAX_SEED + 1)), EXIT_CONFIG),
    # a parameter the suite does not read
    (("--suite", "map-independence", "--branch", "hydrino", "--state", "1,0;2,1"), EXIT_CONFIG),
    # Omega^2 overflows past Omega ~ 1.3e154; (Omega r)^2 on the grid of r ~ Omega^(-1/2) does not
    (("--suite", "oscillator-x", "--omega", "1e300"), EXIT_PASS),
    # the oscillator suites grow as nmax^3: past MAX_NMAX a run would take minutes
    (("--suite", "ladder", "--nmax", str(harness.MAX_NMAX + 1)), EXIT_CONFIG),
])
def test_verify_bad_input_exit_codes(capsys, argv, code):
    got, _, err = run(capsys, "verify", "--mode", "exact", *argv)
    assert got == code
    assert len(err.splitlines()) == (code != EXIT_PASS) and "Traceback" not in err


@pytest.mark.parametrize("units", [("--m0", "0"), ("--hbar", "1e-200", "--c", "1e-200"), ("--c", "1e200")])
@pytest.mark.parametrize("command", ["spectrum", "map"])
def test_coulomb_units_without_a_finite_nonzero_rest_energy_are_config_errors(tmp_path, capsys, command, units):
    """E_nl scales with m0 c^2, which is 0 at m0 = 0 and underflows to 0 at
    hbar = c = 1e-200, and r_nl = hbar c nu / (alpha E_nl) has no massless
    limit; at c = 1e200, m0 c^2 overflows."""
    pts = tmp_path / "pts.txt"
    pts.write_text("1.0 0.0 0.0 0.5\n")
    argv = ("--points", str(pts)) if command == "map" else ()
    code, out, err = run(capsys, command, "--system", "coulomb", *argv, *units)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: ") and len(err.splitlines()) == 1


def test_massless_oscillator_spectrum_passes(capsys):
    code, out, err = run(capsys, "spectrum", "--system", "oscillator", "--m0", "0")
    assert (code, err) == (EXIT_PASS, "")
    assert json.loads(out)["rows"][0]["energy"] == math.sqrt(3.0)


def test_hydrino_state_without_radial_scale_is_config_error(capsys):
    code, _, err = run(capsys, "verify", "--suite", "coulomb-x", "--mode", "exact",
                       "--branch", "hydrino", "--state", "0,1")
    assert code == EXIT_CONFIG
    assert len(err.splitlines()) == 1 and "(0, 1)" in err and "hydrino" in err


@pytest.mark.parametrize("mode", ["exact", "stencil"])
def test_ladder_ground_state_underflow_is_a_named_domain_error(mode):
    """At Omega = 100 on a grid out to r = 4, forty oscillator lengths, psi_0
    underflows to 0 at the grid's outer points: the lowering-proportionality
    ratio names the first such point instead of dividing by zero."""
    grid = Grid(r_min=0.1, r_max=4.0, shells=10)
    with pytest.raises(DomainError) as exc:
        run_suite("ladder", {"omega": 100.0, "grid": grid}, DiffConfig(MODE_EXACT if mode == "exact" else MODE_STENCIL))
    assert str(exc.value) == "lowering-proportionality: psi_0 underflows to 0 at x = (4.0, 0.0, 0.0), t = 0.0"


@pytest.mark.parametrize("argv", [("--system", "oscillator"), ("--system", "coulomb", "--branch", "hydrino")])
def test_spectrum_check_shooting_takes_the_sommerfeld_coulomb_system_only(capsys, argv):
    code, out, err = run(capsys, "spectrum", "--check-shooting", *argv)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: --check-shooting checks the coulomb system's sommerfeld branch only\n"


def test_spectrum_nonfinite_option_is_config_error(capsys):
    code, _, err = run(capsys, "spectrum", "--system", "coulomb", "--alpha", "nan")
    assert code == EXIT_CONFIG
    assert len(err.splitlines()) == 1 and "finite" in err


def test_verify_config_file_values_are_checked(tmp_path, capsys):
    cfg = tmp_path / "params.json"
    cfg.write_text(json.dumps({"nmax": "four"}))
    code, _, err = run(capsys, "verify", "--suite", "oscillator-x", "--config", str(cfg))
    assert code == EXIT_CONFIG and "nmax" in err
    cfg.write_text(json.dumps({"nmaxx": 1}))
    code, _, err = run(capsys, "verify", "--suite", "oscillator-x", "--config", str(cfg))
    assert code == EXIT_CONFIG and "nmaxx" in err


numbers = st.one_of(
    st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e-300", "1e300", "0.9", "0.49"]),
    st.floats(min_value=-2.0, max_value=3.0, allow_nan=False).map(repr),
)
options = st.fixed_dictionaries({}, optional={
    "--omega": numbers,
    "--alpha": numbers,
    "--tolerance": numbers,
    "--nmax": st.integers(min_value=-2, max_value=2).map(str),
    "--n-fields": st.integers(min_value=-1, max_value=3).map(str),
    "--seed": st.integers(min_value=-2, max_value=3).map(str),
    "--state": st.sampled_from(["0,0", "1,1,-1", "0,0,5", "-1,0", "2", "a,b", "(0,1)", "0,0;1,0", ";"]),
    "--branch": st.sampled_from(["sommerfeld", "hydrino"]),
})


@given(st.sampled_from(SUITES), st.sampled_from(["exact", "stencil"]), options)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_verify_fuzz_keeps_the_exit_code_contract(suite, mode, opts):
    """Whatever the input, verify exits 0-3 and reports an error as one
    stderr line, never a traceback.  Only the options the suite reads are
    passed, so that the values, not the refusal of an unread one, are
    fuzzed."""
    argv = ["verify", "--suite", suite, "--mode", mode]
    reads = harness._DECLARATIONS[suite][1] + ("tolerance",)
    opts = {key: value for key, value in opts.items() if FLAG_PARAMS[key][1] in reads}
    if suite in ("oscillator-x", "oscillator-z", "ladder") and "--nmax" not in opts:
        opts["--nmax"] = "1"
    if suite == "operator-identities" and "--n-fields" not in opts:
        opts["--n-fields"] = "2"
    for key, value in opts.items():
        argv += [key, value]
    code, _, err = _run_quietly(argv)
    _assert_contract(code, err)


def _run_quietly(argv):
    """main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, err):
    """Exit 0-3; an error is one stderr line, never a traceback."""
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_CONFIG, EXIT_DOMAIN)
    assert len(err.splitlines()) == (1 if code in (EXIT_CONFIG, EXIT_DOMAIN) else 0), err
    assert "Traceback" not in err


# range ends stay small, so that no case builds a long range
ends = st.one_of(st.integers(min_value=-3, max_value=6).map(str), st.sampled_from(["", "x", "1.5", " 2"]))
ranges = st.one_of(ends, st.tuples(ends, ends).map("..".join), st.sampled_from(["..", "0..1..2", "3..1"]))
states = st.one_of(
    st.sampled_from(["(0,0)", "(0,0);(1,0)", "(0,1,-1)", "(0,1,2)", "(-1,0)", "(1)", "(a,b)", ";", "", "(0,0,0,0)"]),
    st.lists(st.tuples(st.integers(min_value=-1, max_value=3), st.integers(min_value=-1, max_value=3)),
             min_size=1, max_size=3).map(lambda qns: ";".join(f"({n},{l})" for n, l in qns)),
)
spectrum_options = st.fixed_dictionaries({"--n": ranges, "--states": states}, optional={
    "--omega": numbers,
    "--alpha": numbers,
    "--branch": st.sampled_from(["sommerfeld", "hydrino"]),
})


@given(st.sampled_from(["oscillator", "coulomb"]), st.sampled_from(["json", "csv"]), spectrum_options)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_spectrum_fuzz_keeps_the_exit_code_contract(system, fmt, opts):
    argv = ["spectrum", "--system", system, "--format", fmt]
    for key, value in opts.items():
        argv.append(f"{key}={value}")
    code, _, err = _run_quietly(argv)
    _assert_contract(code, err)


coordinate = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False).map(repr)
point_lines = st.one_of(
    st.tuples(coordinate, coordinate, coordinate, coordinate).map(" ".join),
    coordinate.map("0.0 0.0 -0.0 {}".format),  # r = 0
    st.lists(st.one_of(coordinate, st.sampled_from(["0", "1e-300", "1e200", "nan", "inf", "x"])),
             min_size=3, max_size=5).map(" ".join),
)
map_options = st.fixed_dictionaries({"--b": st.one_of(numbers, st.sampled_from(["inf", "nan", "b"])),
                                     "--energy": numbers}, optional={
    "--omega": numbers,
    "--alpha": numbers,
    "--a": numbers,
    "--lam": numbers,
    "--state": states,
    "--branch": st.sampled_from(["sommerfeld", "hydrino"]),
})


@given(st.sampled_from(["oscillator", "coulomb", "raw"]), st.lists(point_lines, min_size=1, max_size=3), map_options)
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_map_fuzz_keeps_the_exit_code_contract(tmp_path, system, lines, opts):
    """Raw parameters and points at r = 0 included.  A map that exits 0
    prints only finite numbers."""
    pts = tmp_path / "pts.txt"
    pts.write_text("\n".join(lines) + "\n")
    argv = ["map", "--points", str(pts), "--system", system]
    for key, value in opts.items():
        argv.append(f"{key}={value}")
    code, out, err = _run_quietly(argv)
    _assert_contract(code, err)
    if code == EXIT_PASS:
        rows = [row.split() for row in out.splitlines() if not row.startswith("#")]
        assert all(math.isfinite(float(v)) for row in rows for v in row), out
