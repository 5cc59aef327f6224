import pytest

from opetope_kit import (
    EnumerationBudget,
    arrow,
    chain_tree,
    corpus_fixtures,
    enumerate_pops,
    fork_tree,
    is_dfc,
    is_positive_opetope,
    nested_tree,
    point,
    three_cell_from_tree,
    three_one,
    two_cell,
)


@pytest.fixture(scope="session")
def fix_point():
    return point()


@pytest.fixture(scope="session")
def fix_arrow():
    return arrow()


@pytest.fixture(scope="session")
def two1():
    return two_cell(1)


@pytest.fixture(scope="session")
def two2():
    return two_cell(2)


@pytest.fixture(scope="session")
def three1():
    return three_one()


@pytest.fixture(scope="session")
def tree_fixtures():
    return {
        "three_chain": three_cell_from_tree(chain_tree()),
        "three_fork": three_cell_from_tree(fork_tree()),
        "three_nested": three_cell_from_tree(nested_tree()),
    }


@pytest.fixture(scope="session")
def corpus():
    return corpus_fixtures()


@pytest.fixture(scope="session")
def small_pops():
    """Every complex class with dim <= 2 and <= 6 faces; quick to build."""
    return list(enumerate_pops(EnumerationBudget(2, 6)))


@pytest.fixture(scope="session")
def enumerated():
    """Every class with dim <= 3 and <= 8 faces, with both verdicts."""
    instances = []
    for complex_ in enumerate_pops(EnumerationBudget(3, 8)):
        instances.append(
            (complex_, is_dfc(complex_), is_positive_opetope(complex_)))
    assert len(instances) > 1000
    return instances
