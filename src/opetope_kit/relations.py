"""Derived order relations and distinguished face subsets.

Each stratum carries two strict orders.  ``x`` steps minus to ``x'`` when
the target of ``x`` is a source of ``x'``, and ``x`` steps plus to ``x'``
when some face one dimension up has ``x`` among its sources and ``x'`` as
its target; ``<-`` and ``<+`` are the transitive closures of these steps
and are read by every axiom checker.  A closed relation stores one
reachability bitmask per face of the stratum, a Python ``int`` whose bit
``j`` marks the ``j``-th face in name order, so every axiom scan reads
whole rows of the order at once and no pair of the order is ever stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from .core import FaceComplex
from .errors import DimensionOutOfRange, DimensionTooLow


@dataclass(frozen=True)
class FacePath:
    """An alternating walk between two adjacent dimensions.

    A *lower* path starts and ends on the higher dimension and alternates
    face, target, face, ...; an *upper* path starts and ends on the lower
    dimension.  ``faces`` stores the full alternating sequence.
    """

    kind: str  # "lower" or "upper"
    faces: tuple[str, ...]

    def holds_in(self, complex_: FaceComplex) -> bool:
        if self.kind == "lower":
            return is_lower_path(complex_, self.faces)
        return is_upper_path(complex_, self.faces)


class ClosedRelation:
    """Transitive closure of a one-step relation, as reachability bitmasks.

    Position ``i`` is the face ``faces[i]``, ``steps[i]`` lists the
    positions it steps to, and bit ``j`` of ``masks[i]`` is set when
    ``faces[i]`` lies strictly below ``faces[j]``.
    """

    __slots__ = ("faces", "index", "masks", "steps", "_comparable")

    def __init__(self, faces: tuple[str, ...], index: dict[str, int],
                 steps: list[list[int]]):
        self.faces = faces
        self.index = index
        self.masks = _reach(steps)
        self.steps = steps
        self._comparable: list[int] | None = None

    def comparable_masks(self) -> list[int]:
        """For each position, the positions comparable with it in either
        direction; the reverse direction is walked on the first call only."""
        if self._comparable is None:
            pred: list[list[int]] = [[] for _ in self.faces]
            for u, vs in enumerate(self.steps):
                for v in vs:
                    pred[v].append(u)
            self._comparable = [up | down for up, down in zip(self.masks, _reach(pred))]
        return self._comparable


def _reach(succ: list[list[int]]) -> list[int]:
    """For each node, the bitmask of the nodes it reaches by one step or more.

    A depth-first walk with an explicit stack ORs the successors' bits and
    masks into a node's mask when the node finishes; a node without
    successors keeps the empty mask and is never pushed.  A successor still
    on the stack closes a cycle and is not finished yet, so then the pass
    is repeated over the finishing order until no mask changes.
    """
    masks = [0] * len(succ)
    state = [0] * len(succ)  # 0 unseen, 1 on the stack, 2 finished
    order: list[int] = []
    cyclic = False
    for root, first in enumerate(succ):
        if state[root] or not first:
            continue
        state[root] = 1
        stack = [(root, iter(first))]
        while stack:
            u, todo = stack[-1]
            for v in todo:
                seen = state[v]
                if not seen and succ[v]:
                    state[v] = 1
                    stack.append((v, iter(succ[v])))
                    break
                if seen == 1:
                    cyclic = True
            else:
                stack.pop()
                state[u] = 2
                mask = 0
                for v in succ[u]:
                    mask |= masks[v] | 1 << v
                masks[u] = mask
                order.append(u)
    while cyclic:
        cyclic = False
        for u in order:
            mask = masks[u]
            for v in succ[u]:
                mask |= masks[v]
            if mask != masks[u]:
                masks[u] = mask
                cyclic = True
    return masks


def plus_order(faces: tuple[str, ...], covers) -> ClosedRelation:
    """The order ``<+`` on the stratum ``faces``, from ``covers``: the
    target and the source set of each face one dimension up, in name
    order.  One scan hands each target to each of its sources."""
    index = dict(zip(faces, range(len(faces))))
    steps: list[list[int]] = [[] for _ in faces]
    for t, sources in covers:
        j = index[t]
        for y in sources:
            steps[index[y]].append(j)
    return ClosedRelation(faces, index, steps)


def closed_minus(complex_: FaceComplex, k: int) -> ClosedRelation:
    """The order ``<-`` on stratum ``k``: ``x`` steps minus to ``x'`` when
    the target of ``x`` is a source of ``x'``.  Empty on stratum 0, whose
    faces have no target."""
    faces = complex_.stratum(k)
    index = dict(zip(faces, range(len(faces))))
    return ClosedRelation(faces, index, [
        [index[w] for w in complex_.pencils(complex_.gamma(x))[1]] if k else []
        for x in faces])


def gamma_set(complex_: FaceComplex, k: int) -> frozenset[str]:
    """The k-faces that are targets of some (k+1)-face."""
    if not 0 <= k <= complex_.dimension:
        raise DimensionOutOfRange(f"no stratum {k} in a complex of dim {complex_.dimension}")
    return frozenset(complex_.gamma(w) for w in complex_.stratum(k + 1))


def lambda_set(complex_: FaceComplex, k: int) -> frozenset[str]:
    """The k-faces that are not a target; complements :func:`gamma_set`."""
    return frozenset(complex_.stratum(k)) - gamma_set(complex_, k)


def boundary_sets(complex_: FaceComplex, sources) -> tuple[frozenset[str], frozenset[str]]:
    """The sources of the faces in ``sources`` and their targets: for the
    source set of a face of dim >= 2, its source-sources and source-targets."""
    dd: set[str] = set()
    gd: set[str] = set()
    for b in sources:
        dd |= complex_.delta(b)
        gd.add(complex_.gamma(b))
    return frozenset(dd), frozenset(gd)


def iota(complex_: FaceComplex, x: str) -> frozenset[str]:
    """Faces two dimensions below ``x`` that are both a source of a source
    and the target of a source."""
    if complex_.dim(x) < 2:
        raise DimensionTooLow(f"face {x} has dim {complex_.dim(x)} < 2")
    dd, gd = boundary_sets(complex_, complex_.delta(x))
    return dd & gd


def _alternates(complex_: FaceComplex, seq, step: int, junction) -> bool:
    """Whether ``seq`` has odd length, alternates between the dimension
    ``k`` of its first face and ``k + step``, and ``junction`` holds on each
    triple from an even position.  Every name is looked up first, so an
    unknown one raises :class:`UnknownFaceReference`."""
    seq = list(seq)
    dims = [complex_.dim(name) for name in seq]
    if len(seq) % 2 == 0:
        return False
    if any(d != dims[0] + step * (i % 2) for i, d in enumerate(dims)):
        return False
    return all(junction(*seq[i:i + 3]) for i in range(0, len(seq) - 2, 2))


def is_lower_path(complex_: FaceComplex, seq) -> bool:
    """Alternating sequence x0, y0, x1, ..., xp where each x emits its
    target y which feeds the next x as a source.  Singletons are trivially
    paths."""
    return _alternates(complex_, seq, -1, lambda x, y, x2: complex_.gamma(x) == y
                       and y in complex_.delta(x2))


def is_upper_path(complex_: FaceComplex, seq) -> bool:
    """Alternating sequence y0, x1, y1, ..., xp, yp where each y is a
    source of the next x and each x emits the following y as its target."""
    return _alternates(complex_, seq, 1, lambda y, x, y2: y in complex_.delta(x)
                       and complex_.gamma(x) == y2)
