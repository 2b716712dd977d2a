import numpy as np
import pytest

from kgconformal import DiffConfig, MODE_EXACT, MODE_STENCIL
from kgconformal import harness


def point_rows(pts) -> list:
    """The (x1, x2, x3, t) rows of a grid, in order, as tuples of Python floats."""
    return list(zip(*(c.tolist() for c in pts.coords)))


def grad(x):
    """A jet's first partials, one row per axis."""
    return x.c[1 : 1 + len(x.c) // 2]


def hess(x):
    """A jet's pure second partials, one row per axis."""
    return x.c[1 + len(x.c) // 2 :]


def field_family(seeds, r_max=3.0):
    """(field, points) of the test fields of integer ``seeds``, each drawn for
    radius ``r_max``, as the suites draw them: one seed gives a single field."""
    seeds = np.asarray(seeds, dtype=np.int64)
    rows, drawn_points = harness._draw(seeds, np.full(len(seeds), r_max))
    return harness._family(seeds, rows), harness._points(drawn_points)


@pytest.fixture
def exact_cfg():
    return DiffConfig(mode=MODE_EXACT)


@pytest.fixture
def stencil_cfg():
    return DiffConfig(mode=MODE_STENCIL)
