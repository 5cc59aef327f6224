"""Canonical complex constructors.

The constructors cover the shapes used throughout the test corpus: the
point, the arrow, fan-shaped 2-cells of any arity, the smallest 3-cell
with a binary source, and 3-cells assembled from a rooted tree of 2-cells.
"""

from __future__ import annotations

from .core import FaceComplex
from .dfc import RootedTree, validate_rooted_tree
from .errors import InvalidArity, InvalidTree


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
    the root's target is the long chord closing the diagram.  The gluing
    runs no checker: only the base axioms of ``FaceComplex`` validate the
    result.
    """
    report = validate_rooted_tree(tree)
    if not report.passed:
        raise InvalidTree("; ".join(v.detail for v in report.violations))
    slot_names: list[str] = []
    for node in sorted(tree.nodes):
        if not tree.arity.get(node):
            raise InvalidTree(f"node {node} has empty arity")
        slot_names.extend(tree.arity[node])
    if len(set(slot_names)) != len(slot_names):
        raise InvalidTree("slot names must be distinct across the tree")
    if set(slot_names) & set(tree.nodes):
        raise InvalidTree("slot names must differ from node names")

    taken = set(slot_names) | set(tree.nodes)
    chord = _fresh("h", taken)
    target_cell = _fresh("t", taken)
    top = _fresh("A", taken)
    target: dict[str, str] = {target_cell: chord, top: target_cell}
    sources: dict[str, list[str]] = {top: sorted(tree.nodes)}

    # Pre-order walk with an explicit stack: (node, the 1-face it targets,
    # its first point, slots left).  A leaf slot spans points (i, i + 1); a
    # node spans its first slot to its last, and gives that span to the
    # 1-face it targets: its parent's slot, or the chord for the root.
    plugged = {(a, b): c for a, b, c in tree.triplets}
    spans: dict[str, tuple[int, int]] = {}
    leaves: list[str] = []
    todo = [(tree.root, chord, 0, iter(sorted(tree.arity[tree.root])))]
    while todo:
        node, edge, lo, slots = todo[-1]
        for slot in slots:
            child = plugged.get((node, slot))
            if child is None:
                spans[slot] = (len(leaves), len(leaves) + 1)
                leaves.append(slot)
            else:
                todo.append((child, slot, len(leaves), iter(sorted(tree.arity[child]))))
                break
        else:
            todo.pop()
            spans[edge] = (lo, len(leaves))
            target[node] = edge
            sources[node] = sorted(tree.arity[node])
    sources[target_cell] = leaves

    points = [_fresh(f"z{i}", taken) for i in range(len(leaves) + 1)]
    for edge, (lo, hi) in spans.items():
        target[edge] = points[hi]
        sources[edge] = [points[lo]]
    faces = {**dict.fromkeys(points, 0), **dict.fromkeys(spans, 1),
             **dict.fromkeys(tree.nodes, 2), target_cell: 2, top: 3}
    return FaceComplex(faces, target, sources)
