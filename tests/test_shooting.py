"""The shooting oracle's node-count bracket and its cost per state."""

import pytest

from kgconformal import shooting
from kgconformal.core import ConfigError

ALPHA = 0.0072973525693


@pytest.mark.parametrize("n, l", [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
def test_window_ends_count_n_plus_one_and_n_nodes(n, l):
    big_n = n + l + 1
    counts = [shooting._nodes(shooting._shoot(eps, l, ALPHA, big_n))
              for eps in shooting._window(big_n)]
    assert counts == [n + 1, n]


@pytest.mark.parametrize(
    "window",
    [
        (0.3, 0.9),  # between the N = 2 (eps 1/4) and N = 1 (eps 1) levels
        (1 / 2.49**2, 1 / 0.51**2),  # holds both N = 1 and N = 2
        shooting._window(2),  # one level, but (1, 0) has a node
    ],
    ids=["zero-levels", "two-levels", "other-level"],
)
def test_window_without_exactly_the_state_raises(window):
    with pytest.raises(ConfigError, match="nodes at its ends"):
        shooting._bracket(0, 0, ALPHA, *window)


def test_one_state_takes_at_most_25_integrations(monkeypatch):
    calls = []
    solve_ivp = shooting.solve_ivp

    def counting(*args, **kwargs):
        calls.append(None)
        return solve_ivp(*args, **kwargs)

    monkeypatch.setattr(shooting, "solve_ivp", counting)
    # (0, 0) takes the most integrations of the six lowest states
    shooting.shooting_eigenvalue(0, 0, ALPHA)
    assert 0 < len(calls) <= 25
