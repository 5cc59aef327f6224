"""Brute-force oracles and fixtures shared by the unit and acceptance tests.

Everything here is intentionally dumb: plain exhaustive searches whose
only job is to be obviously correct, so the clever implementations have
something independent to agree with.  The pinned (4, 9) opetopes, the
fixture trees, the corpus fixtures (the complexes ``scripts/gen_corpus.py``
writes to ``corpus/``), the single-edit mutation generator, seeded byte
edits and wrong-shape JSON documents close the file.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterator

from opetope_kit import (
    FaceComplex,
    RootedTree,
    arrow,
    point,
    three_cell_from_tree,
    three_one,
    two_cell,
)
from opetope_kit.core import MINUS, PLUS, opposite
from opetope_kit.relations import ClosedRelation


def all_chains(complex_: FaceComplex):
    """Every two-step chain (bottom, middle, top) of covers."""
    for top in complex_.faces():
        if complex_.dim(top) < 2:
            continue
        for middle, _ in complex_.covers(top):
            for bottom, _ in complex_.covers(middle):
                yield bottom, middle, top


def exhaustive_simple_zigzags(complex_: FaceComplex, anchor: str,
                              start: str, end: str, max_junctions: int):
    """All simple zig-zags between two sources of the anchor, found by
    exhaustive alternation, as (faces, signs) tuples."""
    sources = sorted(complex_.delta(anchor))
    found = []

    def grow(faces: list[str], signs: list[str]) -> None:
        if faces[-1] == end:
            found.append((tuple(faces), tuple(signs)))
        if len(signs) >= max_junctions:
            return
        current = faces[-1]
        steps: list[tuple[str, str]] = []
        if complex_.dim(current) >= 1:
            steps.append((PLUS, complex_.gamma(current)))
            steps.extend((MINUS, d) for d in sorted(complex_.delta(current)))
        for sign, lower in steps:
            if len(faces) >= 2 and lower == faces[-2]:
                continue  # consecutive lower faces must differ
            for nxt in sources:
                if complex_.cover_sign(lower, nxt) == opposite(sign):
                    grow(faces + [lower, nxt], signs + [sign])

    grow([start], [])
    return found


def brute_force_lower_reachable(complex_: FaceComplex, k: int):
    """Pairs joined by a minus-chain of length >= 1, by path search."""
    names = complex_.stratum(k)
    step = {}
    for x in names:
        step[x] = [x2 for x2 in names
                   if k >= 1 and complex_.gamma(x) in complex_.delta(x2)]
    reach = set()
    for x in names:
        todo = list(step[x])
        seen = set()
        while todo:
            cur = todo.pop()
            if cur in seen:
                continue
            seen.add(cur)
            reach.add((x, cur))
            todo.extend(step[cur])
    return reach


def warshall_closure(names, pairs) -> set[tuple[str, str]]:
    """Transitive closure of a set of pairs over ``names``, by Warshall's
    triple loop on plain pair sets."""
    closed = set(pairs)
    for mid in names:
        for x in names:
            if (x, mid) in closed:
                for y in names:
                    if (mid, y) in closed:
                        closed.add((x, y))
    return closed


def order_pairs(closed: ClosedRelation) -> frozenset[tuple[str, str]]:
    """Every pair (x, y) with x strictly below y, read back from the mask
    rows of ``closed``."""
    faces = closed.faces
    return frozenset((x, y) for x, mask in zip(faces, closed.masks)
                     for j, y in enumerate(faces) if mask >> j & 1)


def closed_from_pairs(names, pairs) -> ClosedRelation:
    """The closure of hand-written steps ``pairs`` over the sorted
    ``names``, which may hold faces no pair names."""
    faces = tuple(sorted(names))
    index = dict(zip(faces, range(len(faces))))
    steps: list[list[int]] = [[] for _ in faces]
    for x, y in pairs:
        steps[index[x]].append(index[y])
    return ClosedRelation(faces, index, steps)


def positive_parenthesis_chains(complex_: FaceComplex, e: str, beta: str,
                                c: str, b: str):
    """All chains closing the configuration e <beta d <+ c <- b.

    A chain lists c = c0, d0, c1, d1, ..., cp, dp where every c_i is a
    source of b, every d_i is a source of c_i lying over e with sign beta,
    each following c is the face whose target is the previous d, and the
    last d is a source of the target of b.
    """
    return _parenthesis_chains(complex_, e, beta, b, start=[c], fixed_d=None)


def negative_parenthesis_chains(complex_: FaceComplex, e: str, beta: str,
                                d: str, c: str, b: str):
    """Same shape but the first lower face is forced to be ``d``."""
    return _parenthesis_chains(complex_, e, beta, b, start=[c], fixed_d=d)


def _parenthesis_chains(complex_, e, beta, b, start, fixed_d):
    target_of_b = complex_.gamma(b)
    sources_of_b = complex_.delta(b)
    out = []
    limit = 2 * len(sources_of_b) + 2

    def grow(seq):
        if len(seq) > limit:
            return
        current_c = seq[-1]
        if fixed_d is not None and len(seq) == 1:
            candidates = [fixed_d] if fixed_d in complex_.delta(current_c) else []
        else:
            candidates = [d for d in sorted(complex_.delta(current_c))
                          if complex_.cover_sign(e, d) == beta]
        for d in candidates:
            if d in complex_.delta(target_of_b):
                out.append(tuple(seq + [d]))
            for c_next in sorted(sources_of_b):
                if complex_.gamma(c_next) == d:
                    grow(seq + [d, c_next])

    grow(list(start))
    return out


def cancel_backtracks(faces: tuple[str, ...], signs: tuple[str, ...]):
    """Remove immediate retracing from a zig-zag until it is simple.

    A backtrack is a junction pair passing through the same lower face and
    returning to the same upper face; cancelling one deletes two junctions.
    """
    faces = list(faces)
    signs = list(signs)
    changed = True
    while changed:
        changed = False
        for i in range(len(signs) - 1):
            same_lower = faces[2 * i + 1] == faces[2 * i + 3]
            returns = faces[2 * i] == faces[2 * i + 4]
            if same_lower and returns:
                del faces[2 * i + 1:2 * i + 5]
                del signs[i:i + 2]
                changed = True
                break
    return tuple(faces), tuple(signs)


def predecessor_sort(complex_: FaceComplex, pairs) -> list[str]:
    """Stratum-0 faces sorted by how many faces sit strictly below them."""
    names = complex_.stratum(0)
    below = {x: sum(1 for y in names if (y, x) in pairs) for x in names}
    return sorted(names, key=lambda x: (below[x], x))


def all_relabelings(complex_: FaceComplex):
    """A deterministic batch of dimension-preserving relabelings."""
    strata = [complex_.stratum(k) for k in range(complex_.dimension + 1)]
    perms_per_stratum = [
        list(itertools.permutations(names))[:3] for names in strata]
    for combo in itertools.product(*perms_per_stratum):
        mapping = {}
        for names, perm in zip(strata, combo):
            mapping.update({old: f"r_{new}" for old, new in zip(names, perm)})
        yield mapping


def disjoint_arrows(m: int) -> FaceComplex:
    """``m`` arrows ``s_i -> t_i`` with no shared point: every permutation
    of the arrows is an automorphism."""
    faces = {}
    target = {}
    sources = {}
    for i in range(m):
        faces.update({f"s{i:02d}": 0, f"t{i:02d}": 0, f"a{i:02d}": 1})
        target[f"a{i:02d}"] = f"t{i:02d}"
        sources[f"a{i:02d}"] = [f"s{i:02d}"]
    return FaceComplex(faces, target, sources)


def chain_tree_cell(n: int) -> FaceComplex:
    """The 3-cell of a chain of ``n`` binary nodes, each child plugged into
    its parent's first slot, so every slot arrow starts at the first point."""
    nodes = [f"n{i:05d}" for i in range(n)]
    arity = {node: frozenset({f"a{i:05d}", f"b{i:05d}"}) for i, node in enumerate(nodes)}
    triplets = {(nodes[i], f"a{i:05d}", nodes[i + 1]) for i in range(n - 1)}
    return three_cell_from_tree(
        RootedTree(frozenset(nodes), arity, frozenset(triplets), nodes[0]))


def two_sided_tree_cell(n: int) -> FaceComplex:
    """The 3-cell of a binary root whose first slot holds a chain of ``n``
    binary nodes, each plugged into its parent's last slot, and whose last
    slot holds such a chain plugged into first slots: the point between
    the two halves ends about ``n`` arrows and starts about ``n``."""
    arity = {"r": frozenset({"p", "q"})}
    triplets = {("r", "p", "l00000"), ("r", "q", "m00000")}
    for i in range(n):
        arity[f"l{i:05d}"] = frozenset({f"la{i:05d}", f"lb{i:05d}"})
        arity[f"m{i:05d}"] = frozenset({f"ma{i:05d}", f"mb{i:05d}"})
        if i + 1 < n:
            triplets.add((f"l{i:05d}", f"lb{i:05d}", f"l{i + 1:05d}"))
            triplets.add((f"m{i:05d}", f"ma{i:05d}", f"m{i + 1:05d}"))
    return three_cell_from_tree(RootedTree(frozenset(arity), arity, frozenset(triplets), "r"))


def stacked(parent, names, covers) -> FaceComplex:
    """``parent`` with ``names`` stacked on it as a new top stratum, each
    face with its ``(target, sources)`` pair of ``covers`` (with no parent,
    ``names`` are points and take no covers), built by the full constructor."""
    if parent is None:
        return FaceComplex(dict.fromkeys(names, 0), {}, {})
    dims, target, sources = parent.to_data()
    dims.update(dict.fromkeys(names, parent.dimension + 1))
    for x, (t, s) in zip(names, covers):
        target[x], sources[x] = t, s
    return FaceComplex(dims, target, sources)


def seeded_relabel(complex_: FaceComplex, seed: int) -> FaceComplex:
    """The complex with its faces renamed in a seeded random order."""
    names = list(complex_.faces())
    random.Random(seed).shuffle(names)
    return complex_.relabel({old: f"r{i}" for i, old in enumerate(names)})


def brute_force_isomorphic(left: FaceComplex, right: FaceComplex) -> bool:
    """Whether some dimension-preserving bijection carries targets to
    targets and source sets onto source sets, by plain backtracking over
    the faces of ``left`` in ``faces()`` order (lower dimensions first)."""
    if len(left) != len(right) or left.dimension != right.dimension:
        return False
    order = left.faces()
    mapping: dict[str, str] = {}

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        x = order[i]
        for y in right.stratum(left.dim(x)):
            if y in mapping.values():
                continue
            if left.dim(x) >= 1 and (
                    mapping[left.gamma(x)] != right.gamma(y)
                    or {mapping[s] for s in left.delta(x)} != right.delta(y)):
                continue
            mapping[x] = y
            if extend(i + 1):
                return True
            del mapping[x]
        return False

    return extend(0)


def arrow_cycles(*lengths: int) -> FaceComplex:
    """Disjoint directed cycles of arrows, one per length (each at least
    2).  Colour refinement cannot tell one cycle length from another."""
    faces = {}
    target = {}
    sources = {}
    for c, length in enumerate(lengths):
        for i in range(length):
            faces.update({f"p{c}_{i:02d}": 0, f"e{c}_{i:02d}": 1})
            target[f"e{c}_{i:02d}"] = f"p{c}_{(i + 1) % length:02d}"
            sources[f"e{c}_{i:02d}"] = [f"p{c}_{i:02d}"]
    return FaceComplex(faces, target, sources)


def tree_opetope_count(dimension: int, faces: int) -> int:
    """The number of positive opetopes of ``dimension`` <= 3 with ``faces``
    faces, from closed forms over trees and without building a complex.

    A positive n-opetope is a tree of (n - 1)-opetopes with no nullary
    node.  So there is one point and one arrow, one 2-opetope (a string of
    n >= 1 arrows) with 2n + 3 faces, and a 3-opetope for each planar tree
    of 2-opetopes with S >= 1 inputs in all, with 2S + 5 faces; such trees
    are counted by the Catalan number of S.
    """
    if dimension == 0:
        return int(faces == 1)
    if dimension == 1:
        return int(faces == 3)
    if dimension == 2:
        return int(faces >= 5 and faces % 2 == 1)
    if dimension == 3:
        if faces < 7 or faces % 2 == 0:
            return 0
        s = (faces - 5) // 2
        return math.comb(2 * s, s) // (s + 1)
    raise ValueError(f"no closed form for dimension {dimension}")


# The canonical forms of the (4, 9) stream, which is also the (4, 10) one.
OPETOPES_4_9 = [
    ((1,), ()),
    ((2, 1), (((1, (0,)),),)),
    ((2, 2, 1), (((1, (0,)), (1, (0,))), ((3, (2,)),))),
    ((3, 3, 1), (((1, (0,)), (2, (1,)), (2, (0,))), ((5, (3, 4)),))),
    ((2, 2, 2, 1), (((1, (0,)), (1, (0,))), ((3, (2,)), (3, (2,))), ((5, (4,)),))),
    ((4, 4, 1), (((1, (0,)), (2, (1,)), (3, (2,)), (3, (0,))), ((7, (4, 5, 6)),))),
    ((2, 3, 3, 1), (((1, (0,)), (1, (0,)), (1, (0,))), ((3, (2,)), (4, (3,)), (4, (2,))),
                    ((7, (5, 6)),))),
    ((3, 3, 2, 1), (((1, (0,)), (2, (1,)), (2, (0,))), ((5, (3, 4)), (5, (3, 4))), ((7, (6,)),))),
    ((2, 2, 2, 2, 1), (((1, (0,)), (1, (0,))), ((3, (2,)), (3, (2,))), ((5, (4,)), (5, (4,))),
                       ((7, (6,)),))),
]


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


def mutate_bytes(data: bytes, rng: random.Random, donors: list[bytes]) -> bytes:
    """One byte-level edit, or two in a quarter of the inputs: a flipped
    bit, a deleted run of bytes, a run spliced in from a corpus file, or a
    deleted or duplicated line."""
    for _ in range(1 + (rng.random() < 0.25)):
        if not data:
            break
        kind, at = rng.randrange(5), rng.randrange(len(data))
        if kind == 0:
            data = data[:at] + bytes([data[at] ^ (1 << rng.randrange(8))]) + data[at + 1:]
        elif kind == 1:
            data = data[:at] + data[at + rng.randint(1, 4):]
        elif kind == 2:
            donor = rng.choice(donors)
            start = rng.randrange(len(donor))
            data = data[:at] + donor[start:start + rng.randint(1, 12)] + data[at:]
        else:
            lines = data.split(b"\n")
            i = rng.randrange(len(lines))
            lines[i:i + 1] = [lines[i]] * (kind - 2)
            data = b"\n".join(lines)
    return data


WRONG_SHAPES = (None, [], {}, "x", 1, -1, True, 1.5)


def _json_paths(value, path=()):
    """The path of ``value`` and of every value nested in it."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _json_paths(child, path + (key,))


def _replaced(value, path, new):
    """A copy of ``value`` with ``new`` at ``path``."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], new)
    return copy


def wrong_shape_documents(data) -> Iterator:
    """``data`` with one of its values, or itself, replaced by one value of
    ``WRONG_SHAPES``: every such document, paths in pre-order."""
    for path in _json_paths(data):
        for value in WRONG_SHAPES:
            yield _replaced(data, path, value)
