"""The Coulomb oracle: its eigensolve, the confirming shot's node-count
bracket, its input contract, its cost per state, and the spectrum table's
check against it (``kgconformal spectrum --check-shooting``)."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kgconformal import cli
from kgconformal import coulomb as cb
from kgconformal import shooting
from kgconformal.core import BranchError, ConfigError

import scalar_shot

ALPHA = 0.0072973525693
MODEL = cb.CoulombModel(alpha=ALPHA)


def _spectral(n, l):
    return shooting._spectral_eps(n, l, ALPHA, shooting._cutoff(n + l + 1))


def _eps_formula(n, l):
    return shooting.binding_parameter(cb.make_state(MODEL, n, l).energy, ALPHA)


STATES = [(n, l) for n in range(shooting.MAX_N + 1) for l in range(shooting.MAX_L + 1)]
# the cases of test_strong_coupling_states_meet_the_eps_gate, then of
# test_edge_of_the_validated_range_meets_the_eps_gate
STRONG = [(0, 0, 0.3), (2, 0, 0.3), (0, 1, 1.2), (0, 2, 1.2), (0, 0, 0.35), (2, 0, 0.45), (0, 0, 0.499),
          (9, 1, 1.49), (9, 4, ALPHA), (9, 4, 0.49), (5, 4, 4.49), (0, 4, ALPHA)]


def _reference_eigenvalue(monkeypatch, n, l, alpha):
    """shooting_eigenvalue with the four-solve eigensolve and the per-column shot."""
    with monkeypatch.context() as patch:
        patch.setattr(shooting, "_spectral_eps", scalar_shot.spectral_eps)
        patch.setattr(shooting, "solve_ivp", scalar_shot.solve_ivp)
        return shooting.shooting_eigenvalue(n, l, alpha)


def test_energy_equals_the_four_solve_reference_at_the_physical_alpha(monkeypatch):
    for n, l in STATES:
        assert shooting.shooting_eigenvalue(n, l, ALPHA) == _reference_eigenvalue(monkeypatch, n, l, ALPHA), (n, l)


@pytest.mark.parametrize("n, l, alpha", STRONG)
def test_eps_meets_the_four_solve_reference_at_strong_coupling(n, l, alpha):
    x_hi = shooting._cutoff(n + l + 1)
    assert shooting._spectral_eps(n, l, alpha, x_hi) == pytest.approx(
        scalar_shot.spectral_eps(n, l, alpha, x_hi), rel=1e-10, abs=0.0)


def test_scan_matches_the_per_column_shot_on_every_window():
    """Same node counts, and u within 1e-6 of its largest value (at X, where
    the growing tail sets the sign) in each column."""
    for n, l, alpha in [(n, l, ALPHA) for n, l in STATES] + STRONG:
        x_hi = shooting._cutoff(n + l + 1)
        eps = shooting._spectral_eps(n, l, alpha, x_hi)
        scan = shooting._shoot((eps * (1 - shooting.TAU), eps * (1 + shooting.TAU)), l, alpha, x_hi)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(shooting, "solve_ivp", scalar_shot.solve_ivp)
            loop = shooting._shoot((eps * (1 - shooting.TAU), eps * (1 + shooting.TAU)), l, alpha, x_hi)
        assert shooting._nodes(scan) == shooting._nodes(loop), (n, l, alpha)
        u_scan, u_loop = scan.y[:2], loop.y[:2]
        assert (np.abs(u_scan - u_loop).max(axis=1) <= 1e-6 * np.abs(u_loop).max(axis=1)).all(), (n, l, alpha)


@pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
def test_window_ends_count_n_plus_one_and_n_nodes(n, l):
    eps = _spectral(n, l)
    sol = shooting._shoot((eps * (1 - shooting.TAU), eps * (1 + shooting.TAU)), l, ALPHA,
                          shooting._cutoff(n + l + 1))
    assert shooting._nodes(sol) == [n + 1, n]


@pytest.mark.parametrize(
    "window",
    [
        (0.3, 0.9),  # between the N = 2 (eps 1/4) and N = 1 (eps 1) levels
        (1 / 2.49**2, 1 / 0.51**2),  # holds both N = 1 and N = 2
        (1 / 2.49**2, 1 / 1.49**2),  # one level, but (1, 0) has a node
    ],
    ids=["zero-levels", "two-levels", "other-level"],
)
def test_window_without_exactly_the_state_raises(window):
    with pytest.raises(ConfigError, match="nodes at its ends"):
        shooting._bracket(0, 0, ALPHA, *window)


@pytest.mark.parametrize("n, l", [(0, 0), (2, 0), (0, 2)])
def test_next_level_offered_as_this_one_raises(n, l):
    eps = _spectral(n + 1, l)
    with pytest.raises(ConfigError, match="nodes at its ends"):
        shooting._bracket(n, l, ALPHA, eps * (1 - shooting.TAU), eps * (1 + shooting.TAU))


def test_shot_alone_rejects_the_nonrelativistic_eps():
    """(0, 3) is the state whose 1/N^2 lies closest to Sommerfeld (4.75e-7)."""
    eps = 1.0 / 16.0
    with pytest.raises(ConfigError, match="nodes at its ends"):
        shooting._bracket(0, 3, ALPHA, eps * (1 - shooting.TAU), eps * (1 + shooting.TAU))


def test_one_state_takes_exactly_one_integration(monkeypatch):
    calls = []
    solve_ivp = shooting.solve_ivp

    def counting(*args, **kwargs):
        calls.append(None)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(shooting, "solve_ivp", counting)
    for n, l in ((0, 0), (2, 0), (0, 2)):
        calls.clear()
        shooting.shooting_eigenvalue(n, l, ALPHA)
        assert len(calls) == 1


def test_one_state_takes_one_eigensolve_and_8000_q_values(monkeypatch):
    solves, shots = [], []
    eigvals, solve_ivp = np.linalg.eigvals, shooting.solve_ivp

    def counting_eigvals(a):
        solves.append(None)
        return eigvals(a)

    def counting_shot(*args):
        shots.append(solve_ivp(*args))
        return shots[-1]

    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(shooting, "solve_ivp", counting_shot)
    for n, l, alpha in ((0, 0, ALPHA), (2, 0, ALPHA), (0, 2, ALPHA), (9, 4, ALPHA), (0, 0, 0.499)):
        solves.clear()
        shots.clear()
        shooting.shooting_eigenvalue(n, l, alpha)
        assert len(solves) == 1 and [sol.nfev for sol in shots] == [8000]


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_high_l0_states_meet_the_eps_gate(n):
    eps_shoot = shooting.binding_parameter(shooting.shooting_eigenvalue(n, 0, ALPHA), ALPHA)
    assert eps_shoot == pytest.approx(_eps_formula(n, 0), rel=shooting.EPS_RTOL)


def test_cutoff_grows_with_n_squared_for_high_states():
    """At X = 40 N, the tail costs (9, 3) 8.6e-8 in eps, 40 times the gate."""
    eps_shoot = shooting.binding_parameter(shooting.shooting_eigenvalue(9, 3, ALPHA), ALPHA)
    assert eps_shoot == pytest.approx(_eps_formula(9, 3), rel=shooting.EPS_RTOL)


@pytest.mark.parametrize("n, l, alpha", [(0, 0, 0.3), (2, 0, 0.3), (0, 1, 1.2), (0, 2, 1.2),
                                         (0, 0, 0.35), (2, 0, 0.45), (0, 0, 0.499), (9, 1, 1.49)])
def test_strong_coupling_states_meet_the_eps_gate(n, l, alpha):
    """One eigensolve at Ebar = 1 gives eps even where alpha^2 is not small.  Near
    the branch point (sigma near 1/2) the shot needs its third Frobenius
    term: with two, the last four cases raise.  It needs short first steps
    too: on a grid uniform in log(x + 0.1), the last three raise."""
    eps_formula = shooting.binding_parameter(cb.make_state(cb.CoulombModel(alpha=alpha), n, l).energy, alpha)
    eps_shoot = shooting.binding_parameter(shooting.shooting_eigenvalue(n, l, alpha), alpha)
    assert eps_shoot == pytest.approx(eps_formula, rel=shooting.EPS_RTOL)


def test_shot_counts_two_q_values_per_step_and_eps():
    eps = _spectral(0, 0)
    sol = shooting._shoot((eps, eps), 0, ALPHA, shooting._cutoff(1))
    assert sol.y.shape == (4, shooting.STEPS + 1)
    assert sol.nfev == 2 * 2 * shooting.STEPS


def test_shot_that_overflows_raises():
    """u'' = 400 u grows by e^20 a step here: the chain overflows to inf."""
    with pytest.raises(ConfigError, match="not finite"):
        shooting.solve_ivp(lambda x: np.full((1, len(x)), 400.0), np.linspace(0.0, 2000.0, 2001), np.ones(2))


def test_shot_that_overflows_raises_under_the_cli_errstate():
    """cli.main turns overflow and invalid into FloatingPointError: the shot's
    array products must still end in the ConfigError."""
    with np.errstate(over="raise", invalid="raise"), pytest.raises(ConfigError, match="not finite"):
        shooting.solve_ivp(lambda x: np.full((1, len(x)), 400.0), np.linspace(0.0, 2000.0, 2001), np.ones(2))


def test_no_module_imports_scipy():
    """The package, its CLI, harness and oracle load and run on numpy alone."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import sys\n"
        "import kgconformal, kgconformal.cli, kgconformal.harness, kgconformal.shooting\n"
        f"kgconformal.shooting.shooting_eigenvalue(0, 2, {ALPHA!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "n, l, alpha, error",
    [
        (-1, 0, ALPHA, ConfigError),
        (0, -1, ALPHA, ConfigError),
        (1.0, 0, ALPHA, ConfigError),
        (0, 0.5, ALPHA, ConfigError),
        (0, 0, 0.0, ConfigError),
        (0, 0, -ALPHA, ConfigError),
        (0, 0, float("nan"), ConfigError),
        (0, 0, 0.6, BranchError),
        (0, 1, 1.5, BranchError),
    ],
)
def test_bad_input_raises(n, l, alpha, error):
    with pytest.raises(error):
        shooting.shooting_eigenvalue(n, l, alpha)


OUTSIDE = [(0, 150), (0, 100), (9, 6), (3, 9), (0, 15), (7, 5), (10, 0)]


@pytest.mark.parametrize("n, l", OUTSIDE)
def test_state_outside_the_validated_range_raises(n, l):
    """Unchecked, (0, 150) found 0 and 0 nodes, (0, 100) a non-finite u,
    (9, 6), (3, 9) and (0, 15) the wrong node counts, and (7, 5) returned
    an eps 5.6e-9 off, outside the gate."""
    with pytest.raises(ConfigError, match=r"validated for n <= 9 and l <= 4, not \(n, l\)"):
        shooting.shooting_eigenvalue(n, l, ALPHA)


@pytest.mark.parametrize("n, l, alpha", [(9, 4, ALPHA), (9, 4, 0.49), (5, 4, 4.49), (0, 4, ALPHA)])
def test_edge_of_the_validated_range_meets_the_eps_gate(n, l, alpha):
    eps_formula = shooting.binding_parameter(cb.make_state(cb.CoulombModel(alpha=alpha), n, l).energy, alpha)
    eps_shoot = shooting.binding_parameter(shooting.shooting_eigenvalue(n, l, alpha), alpha)
    assert eps_shoot == pytest.approx(eps_formula, rel=shooting.EPS_RTOL)


def _spectrum(capsys, *argv):
    """``kgconformal spectrum --system coulomb`` with ``argv``: (exit code, stdout, stderr)."""
    code = cli.main(["spectrum", "--system", "coulomb", *argv])
    out, err = capsys.readouterr()
    return code, out, err


SIX_STATES = "(0,0);(1,0);(0,1);(2,0);(1,1);(0,2)"


def test_spectrum_table_check_passes_the_oracle_and_fails_bohr(monkeypatch, capsys):
    """spectrum --check-shooting adds the oracle's energy and the relative eps
    differences to every row, in JSON and CSV; an oracle that gives the Bohr
    energies misses the gate, which exits 1 with one stderr line."""
    for fmt in ("json", "csv"):
        code, out, err = _spectrum(capsys, "--check-shooting", "--states", SIX_STATES, "--format", fmt)
        rows = json.loads(out)["rows"] if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
        assert (code, err, len(rows)) == (cli.EXIT_PASS, "", 6)
        for row in rows:
            eps_diff, nonrel_diff = float(row["eps_rel_diff"]), float(row["nonrel_eps_rel_diff"])
            assert eps_diff < shooting.EPS_RTOL < nonrel_diff
            assert float(row["shooting_energy"]) == pytest.approx(float(row["energy"]), rel=1e-12)

    def bohr(n, l, alpha, units):
        return units.rest_energy + cb.nonrelativistic_binding(cb.CoulombModel(alpha=alpha, units=units), n, l)

    monkeypatch.setattr(cli, "shooting_eigenvalue", bohr)
    code, out, err = _spectrum(capsys, "--check-shooting", "--states", SIX_STATES)
    assert code == cli.EXIT_FAIL and len(json.loads(out)["rows"]) == 6
    assert err.count("\n") == 1 and "misses the relative eps gate" in err and "(0, 0)" in err


@pytest.mark.parametrize("argv", [["--alpha", "0.9"], ["--alpha", "0"], ["--alpha", "0.6", "--check-shooting"]])
def test_spectrum_table_bad_alpha_exits_2_with_one_line(argv, capsys):
    code, out, err = _spectrum(capsys, *argv)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [["--alpha", "nan"], ["--alpha", "inf"], ["--omega", "nan"], ["--omega", "inf"]])
def test_spectrum_table_non_finite_parameter_exits_2_with_one_line(argv, capsys):
    code, out, err = _spectrum(capsys, "--check-shooting", *argv)
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("state", ["0,150", "0,100", "9,6", "3,9", "0,15"])
def test_spectrum_table_state_outside_the_range_exits_2_with_one_line(state, capsys):
    """Every row is computed before any is written, so no table is printed."""
    code, out, err = _spectrum(capsys, "--check-shooting", "--states", f"(0,0);({state})")
    assert (code, out) == (cli.EXIT_CONFIG, "")
    assert err.count("\n") == 1 and "validated for n <= 9 and l <= 4" in err


def test_spectrum_table_prints_the_states_asked_for(capsys):
    code, out, _ = _spectrum(capsys, "--check-shooting", "--states", "9,4;0,3")
    assert code == cli.EXIT_PASS
    assert [(row["n"], row["l"]) for row in json.loads(out)["rows"]] == [(9, 4), (0, 3)]
