import pytest

from wtap import Instance, Link


@pytest.fixture
def single_edge():
    return Instance(2, 0, [(0, 1)], [Link(0, 1, 5)])


@pytest.fixture
def path3():
    # r - x - y with one end-to-end link of weight 7
    return Instance(3, 0, [(0, 1), (1, 2)], [Link(0, 2, 7)])


@pytest.fixture
def star_ab():
    # root with leaves a=1, b=2 and only the leaf-to-leaf link, weight 3
    return Instance(3, 0, [(0, 1), (0, 2)], [Link(1, 2, 3)])
