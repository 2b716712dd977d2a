import pytest

from kgconformal import DiffConfig, MODE_EXACT, MODE_STENCIL


def point_rows(pts) -> list:
    """The (x1, x2, x3, t) rows of a grid, in order, as tuples of Python floats."""
    return list(zip(*(c.tolist() for c in pts.coords)))


@pytest.fixture
def exact_cfg():
    return DiffConfig(mode=MODE_EXACT)


@pytest.fixture
def stencil_cfg():
    return DiffConfig(mode=MODE_STENCIL)
