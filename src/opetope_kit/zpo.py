"""The five axioms singling out opetopic cardinals and positive opetopes.

A validated face complex is an *opetopic cardinal* when it satisfies
globularity, strictness, disjointness and pencil linearity; it is a
*positive opetope* when additionally each stratum has exactly one face
that is not a source of the stratum above (principality).  Each check
returns a report with every violating face, in lexicographic order, so a
failing complex can be repaired or used as a counterexample.

Each axiom is checked level by level, by one generator per axiom.  The
enumerator's pruner and the whole-complex checks both run them, through
:func:`settled_violations`.  Principality reads only names and source
sets, so the opetope search also decides it through
:func:`principality_from_sources` before it builds a stage.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import AxiomReport, FaceComplex, Violation
from .relations import ClosedRelation, boundary_sets, closed_minus, closed_plus

_AXIOMS = ("globularity", "strictness", "disjointness", "pencil-linearity",
           "principality")


def _fmt(names) -> str:
    return "{" + ", ".join(sorted(names)) + "}"


def _globularity(complex_: FaceComplex, k: int) -> Iterator[Violation]:
    if k < 2:
        return
    for x in complex_.stratum(k):
        dd, gd = boundary_sets(complex_, x)
        gg = {complex_.gamma(complex_.gamma(x))}
        dg = complex_.delta(complex_.gamma(x))
        if gg != gd - dd:
            yield Violation(
                "globularity", (x,),
                f"target-of-target of {x} is {_fmt(gg)} but source-targets minus "
                f"source-sources is {_fmt(gd - dd)}")
        if dg != dd - gd:
            yield Violation(
                "globularity", (x,),
                f"sources-of-target of {x} are {_fmt(dg)} but source-sources minus "
                f"source-targets is {_fmt(dd - gd)}")


def _find_cycle(plus: ClosedRelation, start: int) -> tuple[str, ...]:
    """A shortest one-step cycle through position ``start``, as a face sequence."""
    parent: dict[int, int] = {}
    frontier = [start]
    seen = {start}
    while frontier:
        nxt = []
        for u in frontier:
            for v in sorted(plus.steps[u]):
                if v == start:
                    path = [u]
                    while path[-1] != start and path[-1] in parent:
                        path.append(parent[path[-1]])
                    return tuple(plus.faces[p] for p in reversed(path))
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    return (plus.faces[start],)


def _strictness(complex_: FaceComplex, k: int, plus: ClosedRelation) -> Iterator[Violation]:
    loops = [i for i, mask in enumerate(plus.masks) if mask >> i & 1]
    if loops:
        cycle = _find_cycle(plus, loops[0])
        yield Violation(
            "strictness", cycle,
            f"plus-cycle in dimension {k}: {' -> '.join(cycle + (cycle[0],))}")
    if k > 0:
        return
    faces = plus.faces
    for i, j in _incomparable(plus, range(len(faces))):
        x, y = faces[i], faces[j]
        yield Violation(
            "strictness", (x, y),
            f"dimension-0 faces {x} and {y} are not plus-comparable")


def _disjointness(complex_: FaceComplex, k: int, plus: ClosedRelation) -> Iterator[Violation]:
    if k < 1 or not any(plus.masks):
        return
    minus = closed_minus(complex_, k)
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
        x, y = faces[i], faces[j]
        yield Violation(
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


def _pencil_linearity(complex_: FaceComplex, k: int,
                      plus: ClosedRelation) -> Iterator[Violation]:
    faces, index = plus.faces, plus.index
    for y in complex_.stratum(k - 1):
        for label, pencil in zip(("target", "source"), complex_.pencils(y)):
            if len(pencil) < 2:
                continue
            for i, j in _incomparable(plus, [index[x] for x in pencil]):
                x, x2 = faces[i], faces[j]
                yield Violation(
                    "pencil-linearity", (y, x, x2),
                    f"{label} pencil over {y}: {x} and {x2} are "
                    f"not plus-comparable")


def principality_from_sources(stratum: Iterable[str],
                              source_sets: Iterable[frozenset[str]],
                              k: int) -> Iterator[Violation]:
    """Principality at level ``k``, from the names of stratum ``k`` and the
    source sets of the faces of stratum ``k + 1``.

    Nothing else is read, so the enumerator decides it on an assignment
    before building the stage.
    """
    used: set[str] = set()
    for sources in source_sets:
        used |= sources
    left = [y for y in stratum if y not in used]
    if len(left) != 1:
        yield Violation(
            "principality", tuple(left),
            f"stratum {k} has {len(left)} non-source faces {_fmt(left)}, expected 1")


def _principality(complex_: FaceComplex, k: int) -> Iterator[Violation]:
    return principality_from_sources(complex_.stratum(k),
                                     map(complex_.delta, complex_.stratum(k + 1)), k)


def settled_violations(complex_: FaceComplex, k: int) -> Iterator[Violation]:
    """The violations that stratum ``k`` >= 1 fixes for good.

    These are principality, strictness, disjointness and pencil linearity
    at level ``k - 1`` and globularity of the ``k``-faces.  None of them
    reads a stratum above ``k``, so they are the same on the truncation to
    strata ``0..k`` as on any complex stacked on it, and the enumerator
    prunes on them.  The cheapest axiom comes first, for that pruner.
    """
    level = k - 1
    yield from _principality(complex_, level)
    plus = closed_plus(complex_, level)
    yield from _strictness(complex_, level, plus)
    yield from _disjointness(complex_, level, plus)
    yield from _pencil_linearity(complex_, level, plus)
    yield from _globularity(complex_, k)


def _at_each_level(complex_: FaceComplex, axiom) -> Iterator[Violation]:
    for k in range(complex_.dimension + 1):
        yield from axiom(complex_, k, closed_plus(complex_, k))


def check_globularity(complex_: FaceComplex) -> AxiomReport:
    """Faces of dim >= 2 must have boundaries that close up: the target of
    the target is the one source-target that is not a source of a source,
    and the sources of the target are the sources of sources that are not
    source-targets."""
    return AxiomReport.of((v for k in range(2, complex_.dimension + 1)
                           for v in _globularity(complex_, k)), ("globularity",))


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
    return AxiomReport.of((v for k in range(complex_.dimension + 1)
                           for v in _principality(complex_, k)), ("principality",))


def _all_levels(complex_: FaceComplex) -> Iterator[Violation]:
    for k in range(1, complex_.dimension + 2):
        yield from settled_violations(complex_, k)


def is_opetopic_cardinal(complex_: FaceComplex) -> AxiomReport:
    """Globularity, strictness, disjointness and pencil linearity."""
    return AxiomReport.of(_all_levels(complex_), _AXIOMS[:-1])


def is_positive_opetope(complex_: FaceComplex) -> AxiomReport:
    """An opetopic cardinal that is also principal."""
    return AxiomReport.of(_all_levels(complex_), _AXIOMS)
