"""Canonical forms and isomorphism testing for small complexes.

The canonical form of a complex is the least encoding of its strata and
covering data among the labellings that colour refinement reaches, with
branching over the members of the first unresolved colour class.

Each call numbers the faces in ``faces()`` order, one stratum at a time,
and every step reads only that integer index: per face the target
position, the sorted source positions and the plus and minus coface
positions.  Stacking a stratum appends its faces and gives the old top
faces their cofaces, so the enumerator numbers each parent once and
stacks every candidate stratum on a copy, with no complex built for it.
A colour is the first position of its class in the colour order, so a
discrete colouring is the labelling itself.

The refinement keeps the synchronous round rule: a face's new colour ranks
(old colour, target colour, sorted source colours, sorted plus- and
minus-coface colours).  Since the old colour leads, each class splits on
its own, in place, by the rest of that key, and a class that does not
split keeps its colour number.  When a class splits, every part but one
largest part is marked.  A face next to no marked face sees each split
neighbour class only through its unmarked part, so its key changes from
the last round's by one fixed renaming of colours; the faces of its class
that are next to no marked face therefore still share one key, and one of
them stands for all.  So a round computes keys only for the faces next to
a marked face, plus one face per class for the rest, and a class with no
face next to a marked one is not visited.  The rounds stop as soon as
nothing splits or every face is alone.  Individualising a face splits its
class into [that face] followed by the rest and marks that face.  This
reproduces the colours of recomputing every key in every round, in fewer
steps: a chain of n faces needs about n/2 rounds, and each round now keys
a few faces instead of all of them.

The search keeps the first leaf in depth-first order whose certificate is
least.  A later leaf with the same certificate gives an automorphism: the
face labelled ``i`` at the kept leaf goes to the face labelled ``i`` here.
It fixes the path the two leaves share and maps the kept leaf's child at
the end of that path onto this leaf's, so the rest of this child's subtree
is an image of one already searched and the search returns to that node.
A child is also skipped when an automorphism found so far that fixes the
path to it maps an explored sibling onto it, or when it is literally
interchangeable with one (equal target, sources and cofaces).  Each
skipped subtree holds no leaf that beats, or ties earlier than, the kept
one, so the kept leaf is the one a full search would keep.
"""

from __future__ import annotations

import functools
from typing import Optional

from .core import FaceComplex

Certificate = tuple


class _Index:
    """The complex with its faces numbered in ``faces()`` order.

    A point's target is the position -1, the extra colour slot after the
    last face, whose colour is always -1, so every face has the same key
    shape and a stratum stacked on top never renumbers it.
    """

    __slots__ = ("names", "offsets", "target", "sources", "plus", "minus", "around")

    def __init__(self, complex_: Optional[FaceComplex] = None):
        """The index of ``complex_``, stacked one stratum at a time; with no
        complex, the empty index that :meth:`extend` starts from."""
        self.names: tuple[str, ...] = ()
        self.offsets = [0]
        self.target, self.sources, self.plus, self.minus, self.around = [], [], [], [], []
        if complex_ is not None:
            for k in range(complex_.dimension + 1):
                stratum = complex_.stratum(k)
                self._stack(stratum, [(complex_.gamma(x), complex_.delta(x))
                                      for x in stratum] if k else ())

    def extend(self, names, covers) -> "_Index":
        """A new index with ``names`` stacked on top, each face with its
        ``(target, sources)`` pair of ``covers`` read in the old top stratum
        (points take no covers)."""
        index = _Index()
        index.names, index.offsets = self.names, self.offsets[:]
        index.target, index.sources = self.target[:], self.sources[:]
        index.plus, index.minus, index.around = self.plus[:], self.minus[:], self.around[:]
        index._stack(names, covers)
        return index

    def _stack(self, names, covers) -> None:
        """Append a top stratum in place, giving the old top faces their
        cofaces."""
        start = len(self.names)
        self.names += tuple(names)
        self.offsets.append(len(self.names))
        blank = [()] * len(names)
        self.plus += blank
        self.minus += blank
        if not start:
            self.target += [-1] * len(names)
            self.sources += blank
            self.around += blank
            return
        low = self.offsets[-3]
        top = range(low, start)
        position = dict(zip(self.names[low:start], top))
        plus, minus = {x: [] for x in top}, {x: [] for x in top}
        for x, (t, s) in enumerate(covers, start):
            t, s = position[t], tuple(sorted([position[y] for y in s]))
            self.target.append(t)
            self.sources.append(s)
            self.around.append(s + (t,))
            plus[t].append(x)
            for y in s:
                minus[y].append(x)
        for x in top:
            self.plus[x], self.minus[x] = up, down = tuple(plus[x]), tuple(minus[x])
            # Every face adjacent to each face; a point's stand-in target is not.
            self.around[x] = self.sources[x] + up + down + ((self.target[x],) if low else ())

    def initial(self) -> tuple[list[int], dict[int, list[int]]]:
        """Faces coloured by dimension, and the classes by first position."""
        colours = [-1] * (len(self.names) + 1)
        classes = {}
        for first, stop in zip(self.offsets, self.offsets[1:]):
            classes[first] = list(range(first, stop))
            colours[first:stop] = [first] * (stop - first)
        return colours, classes

    def swap_key(self, x: int):
        """Faces with equal keys are interchangeable by an automorphism."""
        return (self.target[x], self.sources[x], self.plus[x], self.minus[x])

    def certificate(self, labels: list[int]) -> Certificate:
        n, offsets = len(self.names), self.offsets
        by_label = [0] * n
        for x in range(n):
            by_label[labels[x]] = x
        profile = tuple(b - a for a, b in zip(offsets, offsets[1:]))
        rows = []
        for k in range(1, len(profile)):
            rows.append(tuple(
                (labels[self.target[x]], tuple(sorted([labels[y] for y in self.sources[x]])))
                for x in by_label[offsets[k]:offsets[k + 1]]))
        return (profile, tuple(rows))


def _refine(index: _Index, colours: list[int], classes: dict[int, list[int]],
            changed) -> None:
    """Refine in place until stable, starting from the faces next to the
    ``changed`` ones; colour order refines the previous one.  See the
    module docstring for why the faces far from a change need one key."""
    target, sources, plus, minus, around = (
        index.target, index.sources, index.plus, index.minus, index.around)
    n = len(index.names)
    while changed and len(classes) < n:
        near = {y for x in changed for y in around[x]}
        splits = []
        for first in {colours[y] for y in near}:
            members = classes[first]
            if len(members) == 1:
                continue
            parts: dict[tuple, list[int]] = {}
            rest = None
            for x in members:
                if rest is not None and x not in near:
                    parts[rest].append(x)
                    continue
                down, up, low = sources[x], plus[x], minus[x]
                k = (colours[target[x]],
                     tuple(sorted([colours[y] for y in down])) if down else (),
                     tuple(sorted([colours[w] for w in up])) if up else (),
                     tuple(sorted([colours[w] for w in low])) if low else ())
                parts.setdefault(k, []).append(x)
                if x not in near:
                    rest = k
            if len(parts) > 1:
                splits.append((first, [parts[k] for k in sorted(parts)]))
        changed = []
        for first, parts in splits:
            largest = max(parts, key=len)
            for part in parts:
                classes[first] = part
                for x in part:
                    colours[x] = first
                first += len(part)
                if part is not largest:
                    changed.extend(part)


def _individualize(index: _Index, colours: list[int], classes: dict[int, list[int]],
                   first: int, chosen: int) -> tuple[list[int], dict[int, list[int]]]:
    """Split class ``first`` into [chosen] followed by the rest, and refine."""
    colours, classes = colours[:], dict(classes)
    members = classes[first]
    rest = [x for x in members if x != chosen]
    classes[first], classes[first + 1] = [chosen], rest
    for x in rest:
        colours[x] = first + 1
    _refine(index, colours, classes, [chosen])
    return colours, classes


class _Search:
    """Depth-first search for the first leaf with the least certificate."""

    def __init__(self, index: _Index):
        self.index = index
        self.best: Optional[tuple[Certificate, list[int]]] = None
        self.best_path: list[int] = []
        self.automorphisms: list[list[int]] = []
        self.path: list[int] = []

    def leaf(self, colours: list[int]) -> Optional[int]:
        """Keep or compare one leaf; after an automorphism, return the depth
        of the deepest node the kept leaf shares with this one."""
        cert = self.index.certificate(colours)
        if self.best is None or cert < self.best[0]:
            self.best, self.best_path = (cert, colours), self.path[:]
            return None
        if cert != self.best[0]:
            return None
        at = [0] * len(self.index.names)
        for x, label in enumerate(colours[:-1]):
            at[label] = x
        self.automorphisms.append([at[label] for label in self.best[1][:-1]])
        depth = 0
        while self.path[depth] == self.best_path[depth]:
            depth += 1
        return depth

    def explored_orbit(self, explored: list[int]) -> set[int]:
        """The images of ``explored`` under the automorphisms found so far
        that fix the current path pointwise."""
        path = self.path
        generators = [g for g in self.automorphisms if all(g[p] == p for p in path)]
        orbit, todo = set(explored), list(explored)
        while todo:
            x = todo.pop()
            for g in generators:
                if g[x] not in orbit:
                    orbit.add(g[x])
                    todo.append(g[x])
        return orbit

    def node(self, colours: list[int], classes: dict[int, list[int]]) -> tuple:
        """A search node: its colouring, the class it branches on, the
        members left to try, and the swap keys and members tried."""
        first = min(c for c, members in classes.items() if len(members) > 1)
        return colours, classes, first, iter(classes[first]), set(), []

    def run(self, colours: list[int], classes: dict[int, list[int]]) -> None:
        """Search below the root with an explicit stack of nodes, so the
        depth is not bounded by the interpreter's recursion limit.  The
        node at depth ``d`` sits at ``stack[d]`` while ``self.path`` holds
        the ``d`` faces individualised above it.  After an automorphism the
        search returns to the node at the depth ``leaf`` gives: the rest of
        every deeper node's subtree is an image of one already searched."""
        n = len(self.index.names)
        if len(classes) == n:
            self.leaf(colours)
            return
        stack = [self.node(colours, classes)]
        while stack:
            colours, classes, first, members, seen_keys, explored = stack[-1]
            for x in members:
                key = self.index.swap_key(x)
                if key in seen_keys or (self.automorphisms and x in self.explored_orbit(explored)):
                    continue
                seen_keys.add(key)
                explored.append(x)
                break
            else:
                stack.pop()
                if stack:
                    self.path.pop()
                continue
            self.path.append(x)
            colours, classes = _individualize(self.index, colours, classes, first, x)
            if len(classes) < n:
                stack.append(self.node(colours, classes))
                continue
            back = self.leaf(colours)
            self.path.pop()
            while back is not None and back < len(self.path):
                stack.pop()
                self.path.pop()


def _least(index: _Index) -> tuple[Certificate, list[int]]:
    """The least certificate of ``index`` and the labelling that gives it."""
    colours, classes = index.initial()
    _refine(index, colours, classes, range(len(index.names)))
    search = _Search(index)
    search.run(colours, classes)
    return search.best


def canonical_labeling(complex_: FaceComplex) -> tuple[Certificate, dict[str, int]]:
    """The least certificate together with one labelling realizing it."""
    index = _Index(complex_)
    cert, labels = _least(index)
    return cert, dict(zip(index.names, labels))


def canonical_form(complex_: FaceComplex) -> Certificate:
    """A hashable value equal for exactly the isomorphic complexes."""
    return canonical_labeling(complex_)[0]


@functools.lru_cache(maxsize=1024)
def canonical_face_name(k: int, i: int) -> str:
    """The name given to face ``i`` of dimension ``k`` in complexes built from
    certificates.

    Cached, so that the many complexes an enumeration builds share one
    string per name."""
    return f"x{k}_{i:02d}"


def complex_from_certificate(cert: Certificate) -> FaceComplex:
    """Rebuild the canonical representative named ``x<dim>_<index>``."""
    profile, rows = cert
    faces = {}
    for k, count in enumerate(profile):
        for i in range(count):
            faces[canonical_face_name(k, i)] = k
    names = dict(enumerate(faces))  # label -> name; a bad label raises KeyError
    target = {}
    sources = {}
    for k in range(1, len(profile)):
        for i, (gamma_label, delta_labels) in enumerate(rows[k - 1]):
            me = canonical_face_name(k, i)
            target[me] = names[gamma_label]
            sources[me] = frozenset(names[lbl] for lbl in delta_labels)
    return FaceComplex(faces, target, sources)


def canonical_complex(complex_: FaceComplex) -> FaceComplex:
    """The canonical representative of the isomorphism class."""
    return complex_from_certificate(canonical_form(complex_))


def are_isomorphic(left: FaceComplex, right: FaceComplex) -> Optional[dict[str, str]]:
    """A dimension- and boundary-preserving bijection, or None.

    The witness sends each face of ``left`` to the face of ``right``
    carrying the same canonical label, so it is deterministic.
    """
    cert_left, lab_left = canonical_labeling(left)
    cert_right, lab_right = canonical_labeling(right)
    if cert_left != cert_right:
        return None
    by_label = {label: face for face, label in lab_right.items()}
    return {face: by_label[label] for face, label in lab_left.items()}
