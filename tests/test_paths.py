import pytest

from opetope_kit import (
    face_tree,
    linear_order_s0,
    path_to_root,
    simple_zigzag,
    sources_partition,
)
from opetope_kit.errors import DimensionOutOfRange, PreconditionViolation
from opetope_kit.relations import lambda_set
from opetope_kit.zpo import Level

from helpers import (
    cancel_backtracks,
    disjoint_arrows,
    exhaustive_simple_zigzags,
    order_pairs,
    predecessor_sort,
)


def test_path_to_root_two2(two2):
    walk = path_to_root(two2, "alpha", "f1")
    assert walk.kind == "lower"
    assert walk.faces == ("f1", "x1", "f2")
    assert walk.faces[::2] == ("f1", "f2")
    assert walk.holds_in(two2)
    assert path_to_root(two2, "alpha", "f2").faces == ("f2",)


def test_path_to_root_three1(three1):
    assert path_to_root(three1, "A", "alpha").faces == ("alpha",)


def test_path_to_root_preconditions(two2):
    with pytest.raises(PreconditionViolation):
        path_to_root(two2, "alpha", "h")
    with pytest.raises(PreconditionViolation):
        path_to_root(two2, "f1", "x0")


def test_path_to_root_matches_face_tree(two2, three1, tree_fixtures):
    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        for c in complex_.faces():
            if complex_.dim(c) < 2:
                continue
            tree = face_tree(complex_, c)
            for d in sorted(complex_.delta(c)):
                walk = path_to_root(complex_, c, d)
                assert list(walk.faces[::2]) == tree.descending_path(d)
                assert walk.holds_in(complex_)


def test_simple_zigzag_two2(two2):
    zig = simple_zigzag(two2, "alpha", "f1", "f2")
    assert zig.faces == ("f1", "x1", "f2")
    assert zig.signs == ("+",)
    back = simple_zigzag(two2, "alpha", "f2", "f1")
    assert back.faces == ("f2", "x1", "f1")
    assert back.signs == ("-",)
    assert zig.reverse() == back


def test_simple_zigzag_trivial(two2):
    zig = simple_zigzag(two2, "alpha", "f1", "f1")
    assert zig.is_trivial
    assert zig.faces == ("f1",)


def test_simple_zigzag_properties(two2, three1, tree_fixtures):
    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        for anchor in complex_.faces():
            if complex_.dim(anchor) < 2:
                continue
            sources = sorted(complex_.delta(anchor))
            for start in sources:
                for end in sources:
                    zig = simple_zigzag(complex_, anchor, start, end)
                    assert zig.is_simple
                    assert zig.faces[0] == start and zig.faces[-1] == end
                    for upper in zig.faces[::2]:
                        assert upper in complex_.delta(anchor)
                    assert zig.reverse() == simple_zigzag(
                        complex_, anchor, end, start)
                    # signs never climb after descending: climb +, then -
                    signs = "".join(zig.signs)
                    assert "-+" not in signs


def test_simple_zigzag_uniqueness_by_exhaustion(two2, three1, tree_fixtures):
    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        for anchor in complex_.faces():
            if complex_.dim(anchor) < 2:
                continue
            sources = sorted(complex_.delta(anchor))
            if len(sources) > 4:
                continue
            for start in sources:
                for end in sources:
                    found = exhaustive_simple_zigzags(
                        complex_, anchor, start, end, 2 * len(sources))
                    zig = simple_zigzag(complex_, anchor, start, end)
                    assert found == [(zig.faces, zig.signs)]


def test_zigzag_concatenation(two2, three1, tree_fixtures):
    # gluing the walks a->b and b->c and cancelling immediate backtracks
    # recovers the direct walk a->c
    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        for anchor in complex_.faces():
            if complex_.dim(anchor) < 2:
                continue
            sources = sorted(complex_.delta(anchor))
            if len(sources) > 4:
                continue
            for a in sources:
                for b in sources:
                    for c in sources:
                        left = simple_zigzag(complex_, anchor, a, b)
                        right = simple_zigzag(complex_, anchor, b, c)
                        glued_faces = left.faces + right.faces[1:]
                        glued_signs = left.signs + right.signs
                        direct = simple_zigzag(complex_, anchor, a, c)
                        assert cancel_backtracks(glued_faces, glued_signs) == \
                            (direct.faces, direct.signs)


def test_linear_order(two2, fix_point, fix_arrow):
    assert linear_order_s0(two2) == ["x0", "x1", "x2"]
    assert linear_order_s0(fix_point) == ["x"]
    assert linear_order_s0(fix_arrow) == ["x", "y"]


def test_linear_order_matches_closure_sort(two2, three1, tree_fixtures):
    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        order = linear_order_s0(complex_)
        below = order_pairs(Level.of(complex_, 1).plus)
        assert order == predecessor_sort(complex_, below)
        for i, x in enumerate(order):
            for y in order[i + 1:]:
                assert (x, y) in below
        assert sorted(order) == list(complex_.stratum(0))


def test_sources_partition_examples(two2, three1):
    assert sources_partition(two2, 1) == {"alpha": frozenset({"f1", "f2"})}
    assert sources_partition(two2, 0) == {
        "f1": frozenset({"x0"}), "f2": frozenset({"x1"})}
    assert sources_partition(three1, 2) == {"A": frozenset({"alpha"})}


def test_sources_partition_bounds(two2):
    with pytest.raises(DimensionOutOfRange):
        sources_partition(two2, 2)
    with pytest.raises(DimensionOutOfRange):
        sources_partition(two2, -1)


def test_sources_partition_needs_a_greatest_element():
    with pytest.raises(PreconditionViolation, match="no greatest element"):
        sources_partition(disjoint_arrows(2), 0)


def test_sources_partition_reconstructs_strata(two2, three1, tree_fixtures):
    from opetope_kit.dfc import greatest_element

    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        omega = greatest_element(complex_)
        for k in range(complex_.dimension):
            blocks = sources_partition(complex_, k)
            assert set(blocks) == set(lambda_set(complex_, k + 1))
            union = set()
            for block in blocks.values():
                assert not union & block
                union |= block
            leftover = complex_.iterated_target(omega, k)
            assert union | {leftover} == set(complex_.stratum(k))


def test_render(two2):
    zig = simple_zigzag(two2, "alpha", "f1", "f2")
    assert zig.render() == "f1 >+ x1 <- f2"
    assert simple_zigzag(two2, "alpha", "f2", "f1").render() == "f2 >- x1 <+ f1"
