import pytest

from opetope_kit import (
    EnumerationBudget,
    arrow,
    enumerate_pops,
    is_dfc,
    is_positive_opetope,
    point,
    three_cell_from_tree,
    three_one,
    two_cell,
)
from opetope_kit.iso import complex_from_certificate

from helpers import OPETOPES_4_9, chain_tree, corpus_fixtures, fork_tree, nested_tree


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
def opetopes_4_9():
    """The nine positive opetopes with dim <= 4 and <= 9 faces, rebuilt
    from their pinned canonical forms without running the search."""
    return [complex_from_certificate(c) for c in OPETOPES_4_9]


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
