"""Canonical complex constructors and single-edit mutation generators.

The constructors cover the shapes used throughout the test corpus: the
point, the arrow, fan-shaped 2-cells of any arity, the smallest 3-cell
with a binary source, and 3-cells assembled from a rooted tree of 2-cells.
"""

from __future__ import annotations

from typing import Iterator

from .core import FaceComplex
from .dfc import RootedTree, validate_rooted_tree
from .errors import InternalInvariantBroken, InvalidArity, InvalidTree
from .zpo import is_positive_opetope


def point() -> FaceComplex:
    """A single 0-face."""
    return FaceComplex({"x": 0}, {}, {})


def arrow() -> FaceComplex:
    """Two 0-faces joined by one 1-face."""
    return FaceComplex({"x": 0, "y": 0, "f": 1}, {"f": "y"}, {"f": ["x"]})


def two_cell(n: int) -> FaceComplex:
    """A 2-face with ``n`` sources fanned over a chain of points.

    Points x0..xn, chain faces f1..fn, one chord h from x0 to xn, and the
    2-face alpha with the chain as sources and the chord as target.
    """
    if n < 1:
        raise InvalidArity(f"a 2-cell needs at least one source, got {n}")
    faces: dict[str, int] = {f"x{i}": 0 for i in range(n + 1)}
    target: dict[str, str] = {}
    sources: dict[str, list[str]] = {}
    for i in range(1, n + 1):
        faces[f"f{i}"] = 1
        target[f"f{i}"] = f"x{i}"
        sources[f"f{i}"] = [f"x{i - 1}"]
    faces["h"] = 1
    target["h"] = f"x{n}"
    sources["h"] = ["x0"]
    faces["alpha"] = 2
    target["alpha"] = "h"
    sources["alpha"] = [f"f{i}" for i in range(1, n + 1)]
    return FaceComplex(faces, target, sources)


def three_one() -> FaceComplex:
    """The 3-face with a single binary source 2-face and a parallel target."""
    faces = {"x0": 0, "x1": 0, "x2": 0,
             "f1": 1, "f2": 1, "h": 1,
             "alpha": 2, "beta": 2, "A": 3}
    target = {"f1": "x1", "f2": "x2", "h": "x2",
              "alpha": "h", "beta": "h", "A": "beta"}
    sources = {"f1": ["x0"], "f2": ["x1"], "h": ["x0"],
               "alpha": ["f1", "f2"], "beta": ["f1", "f2"], "A": ["alpha"]}
    return FaceComplex(faces, target, sources)


def _fresh(name: str, taken: set[str]) -> str:
    while name in taken:
        name += "'"
    taken.add(name)
    return name


def three_cell_from_tree(tree: RootedTree) -> FaceComplex:
    """Assemble a 3-dimensional opetope from a rooted tree of 2-cells.

    Each node becomes a source 2-face whose sources are its slots; a
    triplet plugs the child 2-face's target into the parent's slot.  The
    slots of a node compose in lexicographic order.  Leaf slots become the
    sources of the target 2-face, threaded along a fresh chain of points;
    the root's target is the long chord closing the diagram.  The result
    is re-validated and must pass the positive-opetope check.
    """
    report = validate_rooted_tree(tree)
    if not report.passed:
        raise InvalidTree("; ".join(v.detail for v in report.violations))
    for node in sorted(tree.nodes):
        if not tree.arity.get(node):
            raise InvalidTree(f"node {node} has empty arity")
    slot_names: list[str] = []
    for node in sorted(tree.nodes):
        slot_names.extend(sorted(tree.arity[node]))
    if len(set(slot_names)) != len(slot_names):
        raise InvalidTree("slot names must be distinct across the tree")
    if set(slot_names) & set(tree.nodes):
        raise InvalidTree("slot names must differ from node names")

    plugged = {(a, b): c for a, b, c in tree.triplets}

    leaf_order: list[str] = []
    extents: dict[str, tuple[int, int]] = {}

    # pre-order walk with an explicit stack: (node, first leaf, slots left)
    todo = [(tree.root, 0, iter(sorted(tree.arity[tree.root])))]
    while todo:
        node, lo, slots = todo[-1]
        for slot in slots:
            child = plugged.get((node, slot))
            if child is None:
                leaf_order.append(slot)
            else:
                todo.append((child, len(leaf_order), iter(sorted(tree.arity[child]))))
                break
        else:
            todo.pop()
            extents[node] = (lo, len(leaf_order))

    taken = set(slot_names) | set(tree.nodes)
    n_points = len(leaf_order) + 1
    points = [_fresh(f"z{i}", taken) for i in range(n_points)]
    chord = _fresh("h", taken)
    target_cell = _fresh("t", taken)
    top = _fresh("A", taken)

    faces: dict[str, int] = {p: 0 for p in points}
    target: dict[str, str] = {}
    sources: dict[str, list[str]] = {}

    for i, leaf in enumerate(leaf_order):
        faces[leaf] = 1
        target[leaf] = points[i + 1]
        sources[leaf] = [points[i]]
    for node in sorted(tree.nodes):
        lo, hi = extents[node]
        up = tree.parent(node)
        if up is not None:
            slot = up[1]
            faces[slot] = 1
            target[slot] = points[hi]
            sources[slot] = [points[lo]]
    faces[chord] = 1
    target[chord] = points[-1]
    sources[chord] = [points[0]]

    for node in sorted(tree.nodes):
        faces[node] = 2
        up = tree.parent(node)
        target[node] = chord if up is None else up[1]
        sources[node] = sorted(tree.arity[node])
    faces[target_cell] = 2
    target[target_cell] = chord
    sources[target_cell] = list(leaf_order)

    faces[top] = 3
    target[top] = target_cell
    sources[top] = sorted(tree.nodes)

    built = FaceComplex(faces, target, sources)
    verdict = is_positive_opetope(built)
    if not verdict.passed:
        raise InternalInvariantBroken(
            "tree assembly is not a positive opetope: "
            + "; ".join(v.detail for v in verdict.violations))
    return built


# -- fixture trees -------------------------------------------------------


def chain_tree() -> RootedTree:
    """Three 2-cells composed in a vertical chain; five leaf slots."""
    return RootedTree(
        nodes=frozenset({"alpha1", "alpha2", "alpha3"}),
        arity={"alpha1": frozenset({"f2", "f3", "f4"}),
               "alpha2": frozenset({"f1", "f6"}),
               "alpha3": frozenset({"f5", "f7"})},
        triplets=frozenset({("alpha3", "f7", "alpha2"),
                            ("alpha2", "f6", "alpha1")}),
        root="alpha3")


def fork_tree() -> RootedTree:
    """A root 2-cell with two children side by side; five leaf slots."""
    return RootedTree(
        nodes=frozenset({"alpha1", "alpha2", "alpha3"}),
        arity={"alpha1": frozenset({"f1", "f2"}),
               "alpha2": frozenset({"f3", "f4", "f5"}),
               "alpha3": frozenset({"f6", "f7"})},
        triplets=frozenset({("alpha3", "f6", "alpha1"),
                            ("alpha3", "f7", "alpha2")}),
        root="alpha3")


def nested_tree() -> RootedTree:
    """Four binary nodes, one grandchild; the staircase used in tests."""
    return RootedTree(
        nodes=frozenset({"a1", "a2", "a3", "a4"}),
        arity={"a1": frozenset({"b6", "b7"}),
               "a2": frozenset({"b1", "b8"}),
               "a3": frozenset({"b2", "b3"}),
               "a4": frozenset({"b4", "b5"})},
        triplets=frozenset({("a1", "b6", "a2"),
                            ("a1", "b7", "a4"),
                            ("a2", "b8", "a3")}),
        root="a1")


def corpus_fixtures() -> dict[str, FaceComplex]:
    """The named complexes shipped as interchange-format goldens."""
    fixtures = {
        "point": point(),
        "arrow": arrow(),
        "three_one": three_one(),
        "three_chain": three_cell_from_tree(chain_tree()),
        "three_fork": three_cell_from_tree(fork_tree()),
        "three_nested": three_cell_from_tree(nested_tree()),
    }
    for n in range(1, 6):
        fixtures[f"two_cell_{n}"] = two_cell(n)
    return dict(sorted(fixtures.items()))


# -- mutations ------------------------------------------------------------


def single_edit_mutations(
    complex_: FaceComplex,
) -> Iterator[tuple[str, dict, dict, dict]]:
    """All single edits of the covering data, as raw build inputs.

    Three edit families: rewiring one target to another same-dimension
    face, deleting one source, and flipping a target cover into a source
    cover (the reverse flip cannot be written down, since a face holds
    only one target slot).  Every yielded edit is a genuine change; none
    reproduces the input complex.
    """
    dims, base_target, base_sources = complex_.to_data()
    for x in complex_.faces():
        if complex_.dim(x) == 0:
            continue
        old = complex_.gamma(x)
        for candidate in complex_.stratum(complex_.dim(x) - 1):
            if candidate == old:
                continue
            target = dict(base_target)
            target[x] = candidate
            yield (f"retarget {x}: {old} -> {candidate}", dims, target, base_sources)
        for y in sorted(complex_.delta(x)):
            sources = dict(base_sources)
            sources[x] = base_sources[x] - {y}
            yield (f"drop source {y} of {x}", dims, base_target, sources)
        target = dict(base_target)
        del target[x]
        sources = dict(base_sources)
        sources[x] = base_sources[x] | {old}
        yield (f"flip target {old} of {x} into a source", dims, target, sources)
