import pytest

from wtap import Instance, Link, baseline


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


@pytest.fixture
def table_builds(monkeypatch):
    """The instances ``baseline`` builds a vertical cost table for, in order."""
    built = []
    real = baseline.vertical_cost_table

    def counting(instance):
        built.append(instance)
        return real(instance)

    monkeypatch.setattr(baseline, "vertical_cost_table", counting)
    return built
