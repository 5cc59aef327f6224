"""The five axioms singling out opetopic cardinals and positive opetopes.

A validated face complex is an *opetopic cardinal* when it satisfies
globularity, strictness, disjointness and pencil linearity; it is a
*positive opetope* when additionally each stratum has exactly one face
that is not a source of the stratum above (principality).  Each check
returns a report with every violating face, in lexicographic order, so a
failing complex can be repaired or used as a counterexample.

Each axiom is checked level by level, by one generator per axiom that
reads one :class:`Level` record: the faces of a stratum with their
targets and source sets, and the complex below them.  The whole-complex
checks build each record from the complex (:func:`settled_violations`).
The opetope search builds it from a parent stage and a candidate
assignment of the stratum above, so every axiom that the new stratum
settles is decided before the candidate is canonicalised or built, and
only the candidates that pass are canonicalised.  Before that it drops,
once per parent, each (target, sources) option that fails on its own
(:func:`face_violations`): globularity reads only the face and the
parent, and a source minus-comparable with the target stays so however
many faces add plus steps beside it.

Each axiom generator yields, for each violation, a callable that takes no
argument and builds the :class:`Violation`, with the loop's values bound
when it is yielded.  The report paths call it; the search only asks
whether there is one, so it never formats a message or finds a cycle.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .core import AxiomReport, FaceComplex, Violation
from .relations import ClosedRelation, boundary_sets, closed_minus, plus_order

_AXIOMS = ("globularity", "strictness", "disjointness", "pencil-linearity",
           "principality")

Deferred = Iterator[Callable[[], Violation]]


def _fmt(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


class Level:
    """What the axioms that stratum ``k`` >= 1 settles read, and nothing more.

    ``below`` is a complex holding strata ``0..k-1`` (any stratum above is
    never read), ``names`` the faces of stratum ``k`` in name order and
    ``covers`` their (target, source set) pairs: the checker builds a level
    from a complex, the opetope search from a parent and an assignment.
    ``faces`` is stratum ``k - 1``; ``plus`` and ``minus`` are its two
    orders, each built when first read.  ``minus`` reads only ``below``,
    so a caller that extends one parent many times passes it in.
    """

    __slots__ = ("k", "below", "names", "covers", "faces", "_plus", "_minus")

    def __init__(self, k: int, below: FaceComplex, names, covers,
                 minus: ClosedRelation | None = None):
        self.k, self.below, self.names, self.covers = k, below, names, covers
        self.faces = below.stratum(k - 1)
        self._plus, self._minus = None, minus

    @staticmethod
    def of(complex_: FaceComplex, k: int) -> "Level":
        names = complex_.stratum(k)
        return Level(k, complex_, names,
                     [(complex_.gamma(x), complex_.delta(x)) for x in names])

    @property
    def plus(self) -> ClosedRelation:
        if self._plus is None:
            self._plus = plus_order(self.faces, self.covers)
        return self._plus

    @property
    def minus(self) -> ClosedRelation:
        if self._minus is None:
            self._minus = closed_minus(self.below, self.k - 1)
        return self._minus


def _globularity(level: Level) -> Deferred:
    if level.k < 2:
        return
    below = level.below
    for x, (t, sources) in zip(level.names, level.covers):
        dd, gd = boundary_sets(below, sources)
        gg = {below.gamma(t)}
        dg = below.delta(t)
        if gg != gd - dd:
            yield lambda x=x, gg=gg, left=gd - dd: Violation(
                "globularity", (x,),
                f"target-of-target of {x} is {_fmt(gg)} but source-targets minus "
                f"source-sources is {_fmt(left)}")
        if dg != dd - gd:
            yield lambda x=x, dg=dg, left=dd - gd: Violation(
                "globularity", (x,),
                f"sources-of-target of {x} are {_fmt(dg)} but source-sources minus "
                f"source-targets is {_fmt(left)}")


def _find_cycle(plus: ClosedRelation, start: int) -> tuple[str, ...]:
    """A shortest one-step cycle through position ``start``, which lies on one."""
    parent: dict[int, int] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(plus.steps[u]):
                if v == start:
                    path = [u]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return tuple(plus.faces[p] for p in reversed(path))
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt


def _plus_cycle(plus: ClosedRelation, start: int, k: int) -> Violation:
    cycle = _find_cycle(plus, start)
    return Violation("strictness", cycle,
                     f"plus-cycle in dimension {k}: {' -> '.join(cycle + (cycle[0],))}")


def _strictness(level: Level) -> Deferred:
    plus, k = level.plus, level.k - 1
    loops = [i for i, mask in enumerate(plus.masks) if mask >> i & 1]
    if loops:
        yield lambda: _plus_cycle(plus, loops[0], k)
    if k > 0:
        return
    faces = plus.faces
    for i, j in _incomparable(plus, range(len(faces))):
        yield lambda x=faces[i], y=faces[j]: Violation(
            "strictness", (x, y),
            f"dimension-0 faces {x} and {y} are not plus-comparable")


def _disjointness(level: Level) -> Deferred:
    plus = level.plus
    if level.k < 2 or not any(plus.masks):
        return
    minus = level.minus
    if not any(minus.masks):
        return
    # each pair comparable in both orders shows in the row of its plus-lower
    # face, and in both rows when the two lie on a plus-cycle
    minus_comparable = minus.comparable_masks()
    pairs = []
    for i, up in enumerate(plus.masks):
        both = up & minus_comparable[i] & ~(1 << i)
        while both:
            low = both & -both
            j = low.bit_length() - 1
            pairs.append((i, j) if i < j else (j, i))
            both ^= low
    faces = plus.faces
    for i, j in sorted(set(pairs)):
        yield lambda x=faces[i], y=faces[j]: Violation(
            "disjointness", (x, y),
            f"faces {x} and {y} are comparable in both orders")


def _incomparable(plus: ClosedRelation, members: Iterable[int]) -> list[tuple[int, int]]:
    """The pairs of members, lower position first and in position order,
    that the plus order leaves incomparable.

    A face that reaches another without being reached back reaches more
    faces, itself counted, than the other.  So once the members are ranked
    by that count, a member is comparable with one ranked below it exactly
    when its own mask holds that one, and no mask of the reverse direction
    is needed.
    """
    masks = plus.masks
    pairs = []
    below = 0
    for i in sorted(members, key=lambda i: (masks[i] | 1 << i).bit_count()):
        apart = below & ~masks[i]
        while apart:
            low = apart & -apart
            j = low.bit_length() - 1
            pairs.append((i, j) if i < j else (j, i))
            apart ^= low
        below |= 1 << i
    pairs.sort()
    return pairs


def _pencil_linearity(level: Level) -> Deferred:
    plus, below = level.plus, level.below
    faces, index = plus.faces, plus.index
    for y in below.stratum(level.k - 2):
        for label, pencil in zip(("target", "source"), below.pencils(y)):
            if len(pencil) < 2:
                continue
            for i, j in _incomparable(plus, [index[x] for x in pencil]):
                yield lambda y=y, label=label, x=faces[i], x2=faces[j]: Violation(
                    "pencil-linearity", (y, x, x2),
                    f"{label} pencil over {y}: {x} and {x2} are "
                    f"not plus-comparable")


def _principality(level: Level) -> Deferred:
    used: set[str] = set()
    for _, sources in level.covers:
        used |= sources
    left = [y for y in level.faces if y not in used]
    if len(left) != 1:
        yield lambda: Violation(
            "principality", tuple(left),
            f"stratum {level.k - 1} has {len(left)} non-source faces {_fmt(left)}, "
            f"expected 1")


def level_violations(level: Level) -> Deferred:
    """The violations that ``level`` settles, each as a callable that
    builds it, cheapest axiom first: a pruner that stops at the first one
    builds a closure only after principality passes."""
    yield from _principality(level)
    yield from _strictness(level)
    yield from _disjointness(level)
    yield from _pencil_linearity(level)
    yield from _globularity(level)


def face_violations(k: int, parent: FaceComplex, name: str, option,
                    minus: ClosedRelation) -> Deferred:
    """The violations that the face ``name`` of stratum ``k`` >= 2, with
    the (target, sources) ``option`` over ``parent``, settles whatever faces
    sit beside it: its globularity, and a source minus-comparable with its
    target, as faces beside it only add plus steps.  ``minus`` is the minus
    order of stratum ``k - 1`` of ``parent``."""
    level = Level(k, parent, (name,), [option], minus)
    yield from _globularity(level)
    yield from _disjointness(level)


def settled_violations(complex_: FaceComplex, k: int) -> Iterator[Violation]:
    """The violations that stratum ``k`` >= 1 fixes for good.

    These are principality, strictness, disjointness and pencil linearity
    at level ``k - 1`` and globularity of the ``k``-faces.  None of them
    reads a stratum above ``k``, so they are the same on the truncation to
    strata ``0..k`` as on any complex stacked on it, and the enumerator
    prunes on them, on a :class:`Level` built before any stage is.
    """
    return (make() for make in level_violations(Level.of(complex_, k)))


def _at_each_level(complex_: FaceComplex, axiom) -> Iterator[Violation]:
    for k in range(1, complex_.dimension + 2):
        for make in axiom(Level.of(complex_, k)):
            yield make()


def check_globularity(complex_: FaceComplex) -> AxiomReport:
    """Faces of dim >= 2 must have boundaries that close up: the target of
    the target is the one source-target that is not a source of a source,
    and the sources of the target are the sources of sources that are not
    source-targets."""
    return AxiomReport.of(_at_each_level(complex_, _globularity), ("globularity",))


def check_strictness(complex_: FaceComplex) -> AxiomReport:
    """No stratum may carry a plus-cycle, and any two distinct faces of
    dimension 0 must be plus-comparable."""
    return AxiomReport.of(_at_each_level(complex_, _strictness), ("strictness",))


def check_disjointness(complex_: FaceComplex) -> AxiomReport:
    """Above dimension 0 no pair of faces may be comparable in both the
    plus and the minus order."""
    return AxiomReport.of(_at_each_level(complex_, _disjointness), ("disjointness",))


def check_pencil_linearity(complex_: FaceComplex) -> AxiomReport:
    """For every face y, the faces one dimension up having y as target,
    and those having y as a source, must each be totally plus-ordered."""
    return AxiomReport.of(_at_each_level(complex_, _pencil_linearity), ("pencil-linearity",))


def check_principality(complex_: FaceComplex) -> AxiomReport:
    """Each stratum must contain exactly one face that is a source of no
    face above (for the top stratum, that leaves the whole stratum)."""
    return AxiomReport.of(_at_each_level(complex_, _principality), ("principality",))


def _all_levels(complex_: FaceComplex) -> Iterator[Violation]:
    return _at_each_level(complex_, level_violations)


def is_opetopic_cardinal(complex_: FaceComplex) -> AxiomReport:
    """Globularity, strictness, disjointness and pencil linearity."""
    return AxiomReport.of(_all_levels(complex_), _AXIOMS[:-1])


def is_positive_opetope(complex_: FaceComplex) -> AxiomReport:
    """An opetopic cardinal that is also principal."""
    return AxiomReport.of(_all_levels(complex_), _AXIOMS)
