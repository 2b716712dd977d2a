import pytest

from kgconformal import DiffConfig, MODE_EXACT, MODE_STENCIL
from kgconformal.core import PointSet


def grid_of(points) -> PointSet:
    """The grid of the SpaceTimePoints ``points``, in order."""
    return PointSet(*zip(*(p.x + (p.t,) for p in points)))


@pytest.fixture
def exact_cfg():
    return DiffConfig(mode=MODE_EXACT)


@pytest.fixture
def stencil_cfg():
    return DiffConfig(mode=MODE_STENCIL)
