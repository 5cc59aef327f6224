"""Derived order relations and distinguished face subsets.

Within one stratum two one-step relations exist: ``x`` steps minus to
``x'`` when the target of ``x`` is a source of ``x'``, and ``x`` steps
plus to ``x'`` when some face one dimension up has ``x`` among its sources
and ``x'`` as its target.  Their transitive closures are the strict orders
used by every axiom checker.  Comparability and the reflexive extension
are answered as queries on the closed relation instead of being stored.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .core import MINUS, PLUS, FaceComplex
from .errors import DimensionOutOfRange, DimensionTooLow, UnknownFaceReference


@dataclass(frozen=True)
class StepRelation:
    """One-step relation between faces of a single dimension."""

    dimension: int
    sign: str
    pairs: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class FacePath:
    """An alternating walk between two adjacent dimensions.

    A *lower* path starts and ends on the higher dimension and alternates
    face, target, face, ...; an *upper* path starts and ends on the lower
    dimension.  ``faces`` stores the full alternating sequence.
    """

    kind: str  # "lower" or "upper"
    faces: tuple[str, ...]

    @property
    def junctions(self) -> int:
        return (len(self.faces) - 1) // 2

    def holds_in(self, complex_: FaceComplex) -> bool:
        if self.kind == "lower":
            return is_lower_path(complex_, self.faces)
        return is_upper_path(complex_, self.faces)


@dataclass(frozen=True)
class ClosedRelation:
    """Transitive closure of a step relation, with O(1) membership."""

    dimension: int
    sign: str
    pairs: frozenset[tuple[str, str]]

    def contains(self, x: str, y: str) -> bool:
        """Strict comparison: x below y."""
        return (x, y) in self.pairs

    def comparable(self, x: str, y: str) -> bool:
        """Either strict direction holds (x != y required)."""
        return (x, y) in self.pairs or (y, x) in self.pairs

    def le(self, x: str, y: str) -> bool:
        """Reflexive extension of the strict order."""
        return x == y or (x, y) in self.pairs

    def is_irreflexive(self) -> bool:
        return all(x != y for x, y in self.pairs)


def step_minus(complex_: FaceComplex, k: int) -> StepRelation:
    """Pairs (x, x') of k-faces with the target of x among sources of x'.

    On stratum 0 the relation is empty by definition.
    """
    pairs: set[tuple[str, str]] = set()
    if k > 0:
        for x in complex_.stratum(k):
            for x2, sign in complex_.cofaces(complex_.gamma(x)):
                if sign == MINUS:
                    pairs.add((x, x2))
    return StepRelation(k, MINUS, frozenset(pairs))


def step_plus(complex_: FaceComplex, k: int) -> StepRelation:
    """Pairs (x, x') witnessed by a (k+1)-face with source x and target x'."""
    pairs: set[tuple[str, str]] = set()
    for w in complex_.stratum(k + 1):
        t = complex_.gamma(w)
        for x in complex_.delta(w):
            pairs.add((x, t))
    return StepRelation(k, PLUS, frozenset(pairs))


def closure(rel: StepRelation) -> ClosedRelation:
    """Minimal transitive superset, by depth-first reachability."""
    succ: dict[str, list[str]] = defaultdict(list)
    for u, v in rel.pairs:
        succ[u].append(v)
    closed: set[tuple[str, str]] = set()
    for start in succ:
        reached: set[str] = set()
        todo = list(succ[start])
        while todo:
            cur = todo.pop()
            if cur in reached:
                continue
            reached.add(cur)
            closed.add((start, cur))
            todo.extend(succ.get(cur, ()))
    return ClosedRelation(rel.dimension, rel.sign, frozenset(closed))


def closed_minus(complex_: FaceComplex, k: int) -> ClosedRelation:
    return closure(step_minus(complex_, k))


def closed_plus(complex_: FaceComplex, k: int) -> ClosedRelation:
    return closure(step_plus(complex_, k))


def gamma_set(complex_: FaceComplex, k: int) -> frozenset[str]:
    """The k-faces that are targets of some (k+1)-face."""
    if not 0 <= k <= complex_.dimension:
        raise DimensionOutOfRange(f"no stratum {k} in a complex of dim {complex_.dimension}")
    return frozenset(complex_.gamma(w) for w in complex_.stratum(k + 1))


def lambda_set(complex_: FaceComplex, k: int) -> frozenset[str]:
    """The k-faces that are not a target; complements :func:`gamma_set`."""
    return frozenset(complex_.stratum(k)) - gamma_set(complex_, k)


def boundary_sets(complex_: FaceComplex, x: str) -> tuple[frozenset[str], frozenset[str]]:
    """The sources of the sources of ``x`` and the targets of its sources,
    for a face of dim >= 2."""
    dd: set[str] = set()
    gd: set[str] = set()
    for b in complex_.delta(x):
        dd |= complex_.delta(b)
        gd.add(complex_.gamma(b))
    return frozenset(dd), frozenset(gd)


def iota(complex_: FaceComplex, x: str) -> frozenset[str]:
    """Faces two dimensions below ``x`` that are both a source of a source
    and the target of a source."""
    if complex_.dim(x) < 2:
        raise DimensionTooLow(f"face {x} has dim {complex_.dim(x)} < 2")
    dd, gd = boundary_sets(complex_, x)
    return dd & gd


def _check_known(complex_: FaceComplex, seq) -> None:
    for name in seq:
        if name not in complex_:
            raise UnknownFaceReference(f"unknown face {name!r}")


def is_lower_path(complex_: FaceComplex, seq) -> bool:
    """Alternating sequence x0, y0, x1, ..., xp where each x emits its
    target y which feeds the next x as a source.  Singletons are trivially
    paths."""
    seq = list(seq)
    _check_known(complex_, seq)
    if not seq:
        return False
    if len(seq) == 1:
        return True
    if len(seq) % 2 == 0:
        return False
    k = complex_.dim(seq[0])
    if k < 1:
        return False
    for i, name in enumerate(seq):
        if complex_.dim(name) != (k if i % 2 == 0 else k - 1):
            return False
    for i in range(0, len(seq) - 2, 2):
        x, y, x2 = seq[i], seq[i + 1], seq[i + 2]
        if complex_.gamma(x) != y or y not in complex_.delta(x2):
            return False
    return True


def is_upper_path(complex_: FaceComplex, seq) -> bool:
    """Alternating sequence y0, x1, y1, ..., xp, yp where each y is a
    source of the next x and each x emits the following y as its target."""
    seq = list(seq)
    _check_known(complex_, seq)
    if not seq:
        return False
    if len(seq) == 1:
        return True
    if len(seq) % 2 == 0:
        return False
    k = complex_.dim(seq[0])
    for i, name in enumerate(seq):
        if complex_.dim(name) != (k if i % 2 == 0 else k + 1):
            return False
    for i in range(0, len(seq) - 2, 2):
        y, x, y2 = seq[i], seq[i + 1], seq[i + 2]
        if y not in complex_.delta(x) or complex_.gamma(x) != y2:
            return False
    return True
