"""The Coulomb oracle: its eigensolve, the confirming shot's node-count
bracket, its input contract and its cost per state."""

import importlib.util
from pathlib import Path

import pytest

from kgconformal import coulomb as cb
from kgconformal import shooting
from kgconformal.core import BranchError, ConfigError

ALPHA = 0.0072973525693
MODEL = cb.CoulombModel(alpha=ALPHA)


def _spectral(n, l):
    return shooting._spectral_eps(n, l, ALPHA, shooting._cutoff(n + l + 1))


def _eps_formula(n, l):
    return shooting.binding_parameter(cb.make_state(MODEL, n, l).energy, ALPHA)


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


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_high_l0_states_meet_the_eps_gate(n):
    eps_shoot = shooting.binding_parameter(shooting.shooting_eigenvalue(n, 0, ALPHA), ALPHA)
    assert eps_shoot == pytest.approx(_eps_formula(n, 0), rel=shooting.EPS_RTOL)


def test_cutoff_grows_with_n_squared_for_high_states():
    """At X = 40 N, the tail costs (9, 3) 8.6e-8 in eps, 40 times the gate."""
    eps_shoot = shooting.binding_parameter(shooting.shooting_eigenvalue(9, 3, ALPHA), ALPHA)
    assert eps_shoot == pytest.approx(_eps_formula(9, 3), rel=shooting.EPS_RTOL)


@pytest.mark.parametrize("n, l, alpha", [(0, 0, 0.3), (2, 0, 0.3), (0, 1, 1.2), (0, 2, 1.2)])
def test_strong_coupling_states_meet_the_eps_gate(n, l, alpha):
    """Four eigensolves settle Ebar even where alpha^2 is not small."""
    eps_formula = shooting.binding_parameter(cb.make_state(cb.CoulombModel(alpha=alpha), n, l).energy, alpha)
    eps_shoot = shooting.binding_parameter(shooting.shooting_eigenvalue(n, l, alpha), alpha)
    assert eps_shoot == pytest.approx(eps_formula, rel=shooting.EPS_RTOL)


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


def _spectrum_table():
    path = Path(__file__).resolve().parent.parent / "scripts" / "spectrum_table.py"
    spec = importlib.util.spec_from_file_location("spectrum_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spectrum_table_check_passes_the_oracle_and_fails_bohr(monkeypatch, capsys):
    table = _spectrum_table()
    assert table.main(["--check-shooting"]) == 0

    def bohr(n, l, alpha):
        return 1.0 + cb.nonrelativistic_binding(cb.CoulombModel(alpha=alpha), n, l)

    monkeypatch.setattr(table, "shooting_eigenvalue", bohr)
    assert table.main(["--check-shooting"]) == 1
    assert "misses the relative eps gate" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["--alpha", "0.9"], ["--alpha", "0"], ["--alpha", "0.6", "--check-shooting"]])
def test_spectrum_table_bad_alpha_exits_2_with_one_line(argv, capsys):
    assert _spectrum_table().main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
