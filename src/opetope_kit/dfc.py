"""Axioms and constructions for dendritic face complexes.

A validated face complex is *dendritic* when it has a greatest element,
every two-step chain completes to a unique lozenge obeying the sign rule,
and the sources of each face are free of one-step minus cycles.  On such a
complex the sources of any face carry a rooted tree structure whose
triplets are read off lozenges; most path and certificate algorithms in
this package walk that tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Mapping

from .core import (
    MINUS,
    PLUS,
    AxiomReport,
    FaceComplex,
    Violation,
    sign_product,
)
from .errors import (
    AmbiguousCompletion,
    DimensionTooLow,
    InternalInvariantBroken,
    LozengeError,
    NoCompletion,
    PreconditionViolation,
    SignRuleViolation,
)


# -- greatest element ----------------------------------------------------


def greatest_element(complex_: FaceComplex) -> str | None:
    """The face whose downward closure is the whole complex, or None."""
    if check_greatest_element(complex_).passed:
        return complex_.stratum(complex_.dimension)[0]
    return None


def check_greatest_element(complex_: FaceComplex) -> AxiomReport:
    # a single top face is greatest when every other face is covered by
    # some face; the downsets of the top faces only name a failure's witness
    top = complex_.stratum(complex_.dimension)
    if len(top) == 1 and all(map(any, map(complex_.pencils, complex_.faces()[:-1]))):
        return AxiomReport()
    covered: set[str] = set()
    for x in top:
        covered |= complex_.downset(x)
    missing = sorted(set(complex_.faces()) - covered)
    if missing:
        witness = missing[0]
        detail = (f"no single face dominates every face; {witness} is not "
                  f"below any top-dimensional face")
    else:
        witness = top[1]
        detail = (f"no single face dominates every face; {witness} is a "
                  f"second top-dimensional face")
    return AxiomReport((Violation("greatest-element", (witness,), detail),))


# -- lozenges ------------------------------------------------------------


@dataclass(frozen=True)
class Lozenge:
    """A completed diamond: bottom < left < top and bottom < right < top.

    ``signs`` records (alpha, beta, alpha', beta') where beta joins bottom
    to left, alpha joins left to top, and the primed pair joins through
    the right face.  The sign rule states alpha*beta == -(alpha'*beta').
    """

    top: str
    left: str
    right: str
    bottom: str
    signs: tuple[str, str, str, str]

    @property
    def sign_rule_holds(self) -> bool:
        return _sign_rule_holds(self.signs)


def _sign_rule_holds(signs: tuple[str, str, str, str]) -> bool:
    a, b, a2, b2 = signs
    return sign_product(a, b) != sign_product(a2, b2)


def _completion(bottom: str, left: str, top: str, alpha: str, beta: str,
                others: list[tuple[str, str, str]]) -> tuple[str, tuple[str, str, str, str]]:
    """The right face and signs of the lozenge over the chain
    ``bottom <beta left <alpha top``, given the other faces between
    ``bottom`` and ``top`` as (face, alpha', beta') triples.  Raises the
    ``LozengeError`` that witnesses the chain's failure."""
    if not others:
        raise NoCompletion(bottom, left, top)
    if len(others) > 1:
        raise AmbiguousCompletion(bottom, left, top, sorted(y for y, _, _ in others))
    (right, alpha2, beta2), = others
    signs = (alpha, beta, alpha2, beta2)
    if not _sign_rule_holds(signs):
        raise SignRuleViolation(bottom, left, top, right, signs)
    return right, signs


def complete_half_lozenge(complex_: FaceComplex, bottom: str, left: str, top: str) -> Lozenge:
    """Find the unique second face between ``bottom`` and ``top``.

    Only the two pencils of ``bottom`` are looked at: the candidates are
    the faces in them other than ``left`` that ``top`` covers.  Raises
    ``NoCompletion`` / ``AmbiguousCompletion`` when zero or several
    candidates exist and ``SignRuleViolation`` when the single candidate
    breaks the sign rule; each exception is a ready-made witness for the
    oriented-thinness check.
    """
    beta = complex_.cover_sign(bottom, left)
    alpha = complex_.cover_sign(left, top)
    if beta is None or alpha is None:
        raise PreconditionViolation(
            f"{bottom} < {left} < {top} is not a two-step chain")
    others = []
    for beta2, pencil in zip((PLUS, MINUS), complex_.pencils(bottom)):
        for y in pencil:
            if y == left:
                continue
            alpha2 = complex_.cover_sign(y, top)
            if alpha2 is not None:
                others.append((y, alpha2, beta2))
    right, signs = _completion(bottom, left, top, alpha, beta, others)
    return Lozenge(top, left, right, bottom, signs)


def check_oriented_thinness(complex_: FaceComplex) -> AxiomReport:
    """Every two-step chain must complete to a unique sign-rule lozenge.

    Each face ``x`` of dimension >= 2 is done in one pass: the chains
    ``z < y < x`` are read from the targets and sources of ``x`` and of
    each ``y``, and grouped by their bottom face ``z``.  The completions of
    a chain are the faces other than ``y`` that cover ``z`` and are covered
    by ``x``; each of them is the middle face of a chain from ``z`` to
    ``x``, so they are exactly the other entries of ``z``'s group, with the
    same signs that ``complete_half_lozenge`` reads from the pencils of
    ``z``.  A group of two chains that obey the sign rule is a lozenge and
    passes; only the other groups complete each chain to name its failure.
    """
    bad: list[Violation] = []
    for x in chain.from_iterable(map(complex_.stratum, range(2, complex_.dimension + 1))):
        below: dict[str, list[tuple[str, str, str]]] = {}
        for y, alpha in ((complex_.gamma(x), PLUS), *((y, MINUS) for y in complex_.delta(x))):
            below.setdefault(complex_.gamma(y), []).append((y, alpha, PLUS))
            for z in complex_.delta(y):
                below.setdefault(z, []).append((y, alpha, MINUS))
        for z, group in below.items():
            # a lozenge: two chains whose sign products differ (the sign rule,
            # inlined as it runs once per bottom face)
            if len(group) == 2 and (group[0][1] == group[0][2]) != (group[1][1] == group[1][2]):
                continue
            for y, alpha, beta in group:
                try:
                    _completion(z, y, x, alpha, beta, [entry for entry in group if entry[0] != y])
                except LozengeError as err:
                    bad.append(Violation("oriented-thinness", (z, y, x), str(err)))
    return AxiomReport.of(bad)


def check_acyclicity(complex_: FaceComplex) -> AxiomReport:
    """Within the sources of any face the relation 'target of one is a
    source of the other' has no directed cycle.

    A cycle among the sources of a face of dimension k maps, through their
    targets, to a cycle of the plus steps on stratum k - 2 (each source of
    a face one dimension up steps to its target).  So one walk over those
    steps, read from the stored pencils, clears every face of dimension k
    when it finds no cycle; only otherwise is each face walked on its own,
    to name its cycle.
    """
    bad: list[Violation] = []
    for k in range(2, complex_.dimension + 1):
        steps = {w: [complex_.gamma(y) for y in complex_.pencils(w)[1]]
                 for w in complex_.stratum(k - 2)}
        if not _directed_cycle(steps):
            continue
        for x in complex_.stratum(k):
            sources = complex_.delta(x)
            # each face below the sources, to the sources it is a source of
            consumers: dict[str, list[str]] = {}
            for y in sources:
                for w in complex_.delta(y):
                    consumers.setdefault(w, []).append(y)
            edges = {y2: consumers.get(complex_.gamma(y2), []) for y2 in sources}
            cycle = _directed_cycle(edges)
            if cycle:
                bad.append(Violation(
                    "acyclicity", tuple(cycle),
                    f"sources of {x} contain the cycle {' -> '.join(cycle + [cycle[0]])}"))
    return AxiomReport.of(bad)


def _directed_cycle(edges: dict[str, list[str]]) -> list[str]:
    """A directed cycle in a small graph, or [] when acyclic; depth-first
    with an explicit stack, visiting nodes and successors in sorted order."""
    state: dict[str, int] = {}
    path: list[str] = []
    for start in sorted(edges):
        if state.get(start, 0):
            continue
        state[start] = 1
        path.append(start)
        todo = [iter(sorted(edges[start]))]
        while todo:
            for v in todo[-1]:
                if state.get(v, 0) == 1:
                    return path[path.index(v):]
                if state.get(v, 0) == 0:
                    state[v] = 1
                    path.append(v)
                    todo.append(iter(sorted(edges[v])))
                    break
            else:
                todo.pop()
                state[path.pop()] = 2
    return []


def is_dfc(complex_: FaceComplex) -> AxiomReport:
    """Greatest element, oriented thinness and acyclicity together, each
    block in its own order."""
    return AxiomReport(check_greatest_element(complex_).violations
                       + check_oriented_thinness(complex_).violations
                       + check_acyclicity(complex_).violations)


# -- rooted trees ---------------------------------------------------------


@dataclass(frozen=True)
class RootedTree:
    """A finite rooted tree with named slots.

    Each node carries a finite arity set of slots; a triplet
    ``(parent, slot, child)`` plugs the child into one slot of the parent.
    Slots left unplugged are the leaves.  A distinguished root must be
    reachable from every node by a unique descending path.
    """

    nodes: frozenset[str]
    arity: Mapping[str, frozenset[str]]
    triplets: frozenset[tuple[str, str, str]]
    root: str

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(
            self, "arity",
            {a: frozenset(slots) for a, slots in dict(self.arity).items()})
        object.__setattr__(self, "triplets", frozenset(self.triplets))
        # parent and children indices, built once for the queries below
        ups: dict[str, list[tuple[str, str]]] = {}
        downs: dict[str, list[tuple[str, str]]] = {}
        for a, b, c in self.triplets:
            ups.setdefault(c, []).append((a, b))
            downs.setdefault(a, []).append((b, c))
        object.__setattr__(self, "_ups", ups)
        object.__setattr__(
            self, "_downs", {a: tuple(sorted(pairs)) for a, pairs in downs.items()})

    def leaves(self) -> frozenset[tuple[str, str]]:
        """The (node, slot) pairs not plugged by any triplet."""
        used = {(a, b) for a, b, _ in self.triplets}
        return frozenset(
            (a, b)
            for a in self.nodes
            for b in self.arity.get(a, ())
            if (a, b) not in used)

    def children(self, node: str) -> tuple[tuple[str, str], ...]:
        """Sorted (slot, child) pairs below ``node``."""
        return self._downs.get(node, ())

    def parent(self, node: str) -> tuple[str, str] | None:
        """The (parent, slot) above ``node``, or None for the root."""
        ups = self._ups.get(node)
        if not ups:
            return None
        if len(ups) > 1:
            raise InternalInvariantBroken(f"node {node} has several parents")
        return ups[0]

    def descending_path(self, node: str) -> list[str]:
        """Node sequence from ``node`` down to the root."""
        path = [node]
        seen = {node}
        while path[-1] != self.root:
            up = self.parent(path[-1])
            if up is None or up[0] in seen:
                raise InternalInvariantBroken(
                    f"no unique descending path from {node}")
            path.append(up[0])
            seen.add(up[0])
        return path


def validate_rooted_tree(tree: RootedTree) -> AxiomReport:
    """Triplet well-formedness plus the unique-descending-path law."""
    bad: list[Violation] = []
    if tree.root not in tree.nodes:
        bad.append(Violation("rooted-tree", (tree.root,), f"root {tree.root} is not a node"))
        return AxiomReport.of(bad)
    plugged: dict[tuple[str, str], str] = {}
    for a, b, c in sorted(tree.triplets):
        if a not in tree.nodes or c not in tree.nodes:
            bad.append(Violation("rooted-tree", (a, c), f"triplet ({a}, {b}, {c}) uses unknown nodes"))
            continue
        if b not in tree.arity.get(a, frozenset()):
            bad.append(Violation("rooted-tree", (a, c), f"slot {b} is not in the arity of {a}"))
            continue
        if (a, b) in plugged:
            bad.append(Violation(
                "rooted-tree", (a, b),
                f"slot {b} of {a} is plugged twice ({plugged[(a, b)]} and {c})"))
            continue
        plugged[(a, b)] = c
    if bad:
        return AxiomReport.of(bad)

    parents = tree._ups
    for n in sorted(tree.nodes):
        ups = parents.get(n, ())
        if n == tree.root:
            if ups:
                bad.append(Violation(
                    "rooted-tree", (n,),
                    f"the root {n} is plugged into {sorted(a for a, _ in ups)[0]}"))
        elif len(ups) != 1:
            bad.append(Violation(
                "rooted-tree", (n,),
                f"node {n} has {len(ups)} descending paths to choose from"))
    if bad:
        return AxiomReport.of(bad)

    # a walk ends at the first node known to reach the root; a failing walk
    # never meets one, so its witnesses are the whole walk
    reaching = {tree.root}
    for n in sorted(tree.nodes):
        cur, seen = n, {n}
        while cur not in reaching:
            cur = parents[cur][0][0]
            if cur in seen:
                bad.append(Violation(
                    "rooted-tree", tuple(sorted(seen)),
                    f"node {n} never reaches the root (cycle through {cur})"))
                break
            seen.add(cur)
        else:
            reaching |= seen
    return AxiomReport.of(bad)


def face_tree(complex_: FaceComplex, x: str) -> RootedTree:
    """The rooted tree carried by the sources of ``x``.

    Nodes are the sources of ``x``; the arity of a node is its own source
    set (empty for dimension-0 nodes); a child is plugged into a slot when
    its target equals that slot.  For dim(x) >= 2 the root is the unique
    source whose target is the target of the target of ``x``.  The caller
    is expected to pass a dendritic complex; on anything else the
    defensive validation fails with ``InternalInvariantBroken``.
    """
    if complex_.dim(x) < 1:
        raise DimensionTooLow(f"face {x} has dimension 0")
    nodes = complex_.delta(x)
    arity = {
        y: (complex_.delta(y) if complex_.dim(y) >= 1 else frozenset())
        for y in nodes
    }
    triplets = {(y, z, y2) for y in nodes for z in arity[y]
                for y2 in complex_.pencils(z)[0] if y2 in nodes}
    if complex_.dim(x) == 1:
        (root,) = nodes
    else:
        anchor = complex_.gamma(complex_.gamma(x))
        roots = [y for y in complex_.pencils(anchor)[0] if y in nodes]
        if len(roots) != 1:
            raise InternalInvariantBroken(
                f"{len(roots)} root candidates among sources of {x}")
        root = roots[0]
    tree = RootedTree(frozenset(nodes), arity, frozenset(triplets), root)
    report = validate_rooted_tree(tree)
    if not report.passed:
        raise InternalInvariantBroken(
            "sources of " + x + " are not a rooted tree: "
            + "; ".join(v.detail for v in report.violations))
    return tree
