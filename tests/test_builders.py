import hashlib

import pytest

from opetope_kit import (
    InvalidArity,
    InvalidTree,
    RootedTree,
    are_isomorphic,
    arrow,
    is_dfc,
    is_positive_opetope,
    point,
    three_cell_from_tree,
    three_one,
    two_cell,
)
from opetope_kit import dfc, zpo
from opetope_kit.io_formats import emit_json

from helpers import chain_tree, chain_tree_cell, corpus_fixtures, fork_tree, nested_tree
from test_equivalence_random import random_tree


def test_two_cell_layout(two2):
    assert two2.delta("alpha") == frozenset({"f1", "f2"})
    assert two2.gamma("alpha") == "h"
    assert two2.delta("h") == frozenset({"x0"})
    assert two2.gamma("h") == "x2"


def test_two_cell_arity_bound():
    with pytest.raises(InvalidArity):
        two_cell(0)


def test_constructors_are_opetopes(fix_point, fix_arrow):
    for complex_ in (fix_point, fix_arrow, two_cell(1), two_cell(2),
                     two_cell(5), three_one()):
        assert is_positive_opetope(complex_).passed
        assert is_dfc(complex_).passed


def test_single_binary_node_matches_three_one():
    tree = RootedTree(
        nodes=frozenset({"n"}),
        arity={"n": frozenset({"s1", "s2"})},
        triplets=frozenset(),
        root="n")
    built = three_cell_from_tree(tree)
    assert len(built) == 9
    assert are_isomorphic(built, three_one()) is not None


def test_tree_builder_counts():
    for tree in (chain_tree(), fork_tree(), nested_tree()):
        built = three_cell_from_tree(tree)
        assert is_positive_opetope(built).passed
        node_faces = [n for n in built.faces() if n in tree.nodes]
        assert len(node_faces) == len(tree.nodes)
        top = built.faces()[-1]
        assert built.dim(top) == 3
        assert built.delta(top) == tree.nodes
        target_cell = built.gamma(top)
        assert built.delta(target_cell) == frozenset(
            slot for _, slot in tree.leaves())


def test_unary_chain_tree():
    tree = RootedTree(
        nodes=frozenset({"a", "b"}),
        arity={"a": frozenset({"s"}), "b": frozenset({"u"})},
        triplets=frozenset({("a", "s", "b")}),
        root="a")
    built = three_cell_from_tree(tree)
    assert len(built) == 9
    assert is_positive_opetope(built).passed
    unary = [n for n in ("a", "b") if len(built.delta(n)) == 1]
    assert unary == ["a", "b"]


BAD_TREES = [
    # (arity, triplets, the error), rooted at "a"
    ({"a": ""}, (), "node a has empty arity"),
    ({"a": "s", "b": "s"}, {("a", "s", "b")}, "slot names must be distinct across the tree"),
    ({"a": "s", "b": "t"}, (), "node b has 0 descending paths to choose from"),
    ({"a": "b", "b": "t"}, {("a", "b", "b")}, "slot names must differ from node names"),
    ({"a": "s", "b": "a"}, {("a", "s", "b")}, "slot names must differ from node names"),
    # an empty arity is reported before slots that two nodes share
    ({"a": "su", "b": "s", "c": ""}, {("a", "s", "b"), ("a", "u", "c")},
     "node c has empty arity"),
]


def test_tree_builder_rejects_bad_trees():
    for arity, triplets, error in BAD_TREES:
        with pytest.raises(InvalidTree) as err:
            three_cell_from_tree(RootedTree(
                frozenset(arity), {n: frozenset(slots) for n, slots in arity.items()},
                frozenset(triplets), "a"))
        assert str(err.value) == error


def test_tree_builder_uniquifies_reserved_names():
    tree = RootedTree(
        nodes=frozenset({"t"}),
        arity={"t": frozenset({"h", "A"})},
        triplets=frozenset(),
        root="t")
    built = three_cell_from_tree(tree)
    assert is_positive_opetope(built).passed
    assert {"h", "A", "t"} < set(built.faces())  # user names survive
    assert built.dim("t") == 2 and built.dim("h") == 1


def test_intro_style_trees_differ():
    left = three_cell_from_tree(chain_tree())
    right = three_cell_from_tree(fork_tree())
    assert are_isomorphic(left, right) is None


def test_corpus_fixture_names():
    fixtures = corpus_fixtures()
    assert set(fixtures) == {
        "point", "arrow", "two_cell_1", "two_cell_2", "two_cell_3",
        "two_cell_4", "two_cell_5", "three_one", "three_chain",
        "three_fork", "three_nested"}
    assert fixtures["point"] == point()
    assert fixtures["arrow"] == arrow()


# SHA-256 over emit_json of the tree-built 3-cells of the three fixture
# trees, random_tree(seed) for seeds 0-299 and chain_tree_cell(n) for
# n = 1, 2, 5, 40 and 300, computed before the builder's single span walk.
TREE_CELLS_SHA256 = "d17190488baed7f8405c2abb5d25718e5bf2f8c8ee2ff99534af8da76983914f"


def test_tree_cells_are_pinned():
    cells = [three_cell_from_tree(tree)
             for tree in (chain_tree(), fork_tree(), nested_tree())]
    cells.extend(three_cell_from_tree(random_tree(seed)) for seed in range(300))
    cells.extend(chain_tree_cell(n) for n in (1, 2, 5, 40, 300))
    digest = hashlib.sha256()
    for cell in cells:
        digest.update(emit_json(cell).encode("utf-8") + b"\n")
    assert len(cells) == 308
    assert digest.hexdigest() == TREE_CELLS_SHA256


def test_tree_builder_calls_no_checker(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the tree builder ran a checker")

    monkeypatch.setattr(zpo, "_at_each_level", refuse)
    monkeypatch.setattr(dfc, "is_dfc", refuse)
    for tree in (chain_tree(), fork_tree(), nested_tree()):
        assert three_cell_from_tree(tree).dimension == 3
