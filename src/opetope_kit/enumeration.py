"""Exhaustive enumeration of small complexes up to isomorphism.

Classes are produced stratum by stratum over class representatives
(McKay's canonical construction path): the classes of a profile
``(n_0, ..., n_k)`` are the extensions of one representative per class of
``(n_0, ..., n_{k-1})``, kept once per canonical form.  Within the new
stratum the faces are interchangeable, so assignments are drawn as sorted
multisets, by one walk for both streams (``_least_multisets``).  An
isomorphism preserves dimension and so restricts to the prefixes:
extensions of different representatives are never isomorphic.  Every
stream is therefore exhaustive, free of isomorphic repeats, and emitted in
a deterministic order with canonical face names.  A candidate's canonical
form is read from the parent's face index, numbered once per parent, with
the assignment stacked on it as a new stratum (``iso._Index.extend``), so
no complex is built for it.  A canonical form met for the first time is
built once, by ``complex_from_certificate``: that canonical representative
is the one the walk extends and the stream yields, so each class is built
exactly once, dimension-0 bases included.
The opetope search prunes on the violations that the newest stratum
settles, which are invariant under isomorphism.  Every one of them reads
only the parent and the new stratum's targets and source sets, so the
search decides them all on the assignment, with the checker's own axioms
on a :class:`zpo.Level` built from the parent and the assignment, and
canonicalises only the candidates that pass; it numbers a parent only
once one of its candidates passes.  The minus order one stratum down
reads the parent alone and is closed once for all of its extensions.
Once per parent, the search first drops each (target, sources) option of
a face of dimension >= 2 that fails on its own (``zpo.face_violations``),
as every assignment holding it would fail: globularity reads only the
face and the parent, and a source minus-comparable with the target stays
so, as faces beside it only add plus steps.

The opetope search also skips every stratum-size profile ``(n_0, ..., n_d)``
unless ``n_d == 1`` and the Euler characteristic ``n_0 - n_1 + n_2 - ...``
is 1.  A positive opetope has one top face ``x`` of dimension ``d``.  Its
other faces lie below the sources of ``x`` (call them ``S``) or below its
target (``T``), and ``S`` meets ``T`` in the boundary of the target.  By
induction on dimension ``T`` has Euler characteristic 1, and its boundary
``1 + (-1)**d``.  The face tree of ``x`` builds ``S`` one source at a
time, each glued to the earlier ones along the faces below the one slot it
plugs into; each gluing adds 1 - 1, so ``S`` has 1 as well.  In all,
``1 + 1 - (1 + (-1)**d) + (-1)**d == 1``.  This is a sketch: the gluing
step rests on the face-tree and sources-partition theorems, and
``scripts/check_opetope_stream.py`` checks the pruned stream against the
filtered full one at (3, 9) and (4, 9).

Within one parent the opetope search also skips an assignment multiset
when a swap of two twins of the parent's top stratum (faces with one target
and one source set, or two points) maps it to a smaller one.  A top face
has no cofaces, so the swap is an automorphism of the parent and maps each
extension to an isomorphic one.  The least multiset of an orbit is never
skipped, as every swap maps it into its orbit; canonical forms deduplicate
what is left.  This is a partial form of McKay's isomorph rejection.  The
swaps, being automorphisms, permute the options the face filter keeps.
The walk carries each swap's sorted image of the prefix and inserts the
image of each new index, so it tests a step without sorting the whole
prefix again.  The full enumeration passes the walk no swaps, so it
tries every multiset.

A second, deliberately naive generator walks the full labelled assignment
space and keeps whatever survives the base validator.  It exists so that
frozen census numbers never rest on the clever path alone.
"""

from __future__ import annotations

import itertools
import math
import os
from bisect import insort
from dataclasses import dataclass
from typing import Iterator, Optional

from .core import AxiomReport, FaceComplex, build_complex
from .errors import BudgetTooLarge
from .iso import (Certificate, _Index, _least, canonical_face_name, canonical_form,
                  complex_from_certificate)
from .relations import closed_minus
from .zpo import Level, face_violations, is_positive_opetope, level_violations

WORK_LIMIT_ENV = "OPETOPE_KIT_WORK_LIMIT"
DEFAULT_WORK_LIMIT = 2_000_000


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds for an enumeration run."""

    max_dim: int
    max_faces_total: int

    def __post_init__(self):
        if self.max_dim < 0:
            raise ValueError("max_dim must be >= 0")
        if self.max_faces_total < 1:
            raise ValueError("max_faces_total must be >= 1")


def resolve_work_limit(work_limit: Optional[int]) -> int:
    if work_limit is None:
        env = os.environ.get(WORK_LIMIT_ENV)
        if not env:
            return DEFAULT_WORK_LIMIT
        try:
            work_limit = int(env)
        except ValueError:
            raise ValueError(f"{WORK_LIMIT_ENV} must be an integer, got {env!r}") from None
    if work_limit < 0:
        raise ValueError(f"the work limit must be >= 0, got {work_limit}")
    return work_limit


class _WorkMeter:
    """Counts the profiles visited and assignments tried, and names where
    the walk is, so that running over the limit says where it stopped."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.where: tuple[tuple[int, ...], Optional[int]] = ((), None)  # (profile, stratum)

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            profile, k = self.where
            at = f"profile {profile}" + ("" if k is None else f", stratum {k}")
            raise BudgetTooLarge(
                f"enumeration exceeded the work limit of {self.limit} at {at} "
                f"(profiles visited and assignments tried: candidate strata "
                f"canonicalised, and those the opetope search rejects before "
                f"canonicalising; labelled assignments in the naive recount); "
                f"raise {WORK_LIMIT_ENV} to allow more")


def _profiles(budget: EnumerationBudget, limit: int) -> Iterator[tuple[int, ...]]:
    """All stratum-size tuples within the budget (no internal zeros), sorted.

    There are ``comb(max_faces_total, n)`` tuples of length ``n``; a budget
    with more than ``limit`` tuples is refused before any is made.
    """
    total = budget.max_faces_total
    counts = (math.comb(total, n) for n in range(1, min(budget.max_dim + 1, total) + 1))
    if any(count > limit for count in itertools.accumulate(counts)):
        raise BudgetTooLarge(
            f"the budget has more than {limit} stratum-size profiles, over the "
            f"work limit; raise {WORK_LIMIT_ENV} to allow more")
    stack = [(n,) for n in range(total, 0, -1)]
    while stack:
        profile = stack.pop()
        yield profile
        if len(profile) <= budget.max_dim:
            stack.extend(profile + (n,) for n in range(total - sum(profile), 0, -1))


def _stratum_names(profile: tuple[int, ...]) -> list[tuple[str, ...]]:
    return [tuple(canonical_face_name(k, i) for i in range(n))
            for k, n in enumerate(profile)]


def _options(below: tuple[str, ...], k: int) -> list[tuple[str, frozenset[str]]]:
    """Legal (target, sources) choices for one face of dimension k >= 1."""
    opts: list[tuple[str, frozenset[str]]] = []
    for t in below:
        others = [b for b in below if b != t]
        if k == 1:
            opts.extend((t, frozenset({s})) for s in others)
        else:
            for size in range(1, len(others) + 1):
                opts.extend(
                    (t, frozenset(combo))
                    for combo in itertools.combinations(others, size))
    return sorted(opts, key=lambda ts: (ts[0], sorted(ts[1])))


def _naive_options(below: tuple[str, ...], k: int) -> list[tuple[str, frozenset[str]]]:
    """Grading-shaped but otherwise unconstrained choices; the validator
    is expected to reject the bad ones."""
    opts: list[tuple[str, frozenset[str]]] = []
    for t in below:
        if k == 1:
            opts.extend((t, frozenset({s})) for s in below)
        else:
            for size in range(1, len(below) + 1):
                opts.extend(
                    (t, frozenset(combo))
                    for combo in itertools.combinations(below, size))
    return sorted(opts, key=lambda ts: (ts[0], sorted(ts[1])))


def _twin_swaps(parent: FaceComplex, top: tuple[str, ...], options) -> list[list[int]]:
    """For each pair of twins among the parent's top faces (one target and one
    source set, or two points), the permutation of option indices it induces."""
    points, gamma, delta = parent.dimension == 0, parent.gamma, parent.delta
    index = {option: i for i, option in enumerate(options)}
    swaps = []
    for a, b in itertools.combinations(top, 2):
        if points or (gamma(a), delta(a)) == (gamma(b), delta(b)):
            swap = {a: b, b: a}
            swaps.append([index[swap.get(t, t), frozenset(swap.get(s, s) for s in sources)]
                          for t, sources in options])
    return swaps


def _swap_images(swaps, images, combo: list[int]) -> Optional[list[list[int]]]:
    """Each swap's sorted image of ``combo``, grown from ``images``, its
    image of ``combo[:-1]`` (empty at the root), by the image of the last
    index; None once a swap sorts ``combo`` lower."""
    grown = []
    for swap, image in zip(swaps, images or [[]] * len(swaps)):
        image = image.copy()
        insort(image, swap[combo[-1]])
        if image < combo:
            return None
        grown.append(image)
    return grown


def _least_multisets(options, n: int, swaps, prefix=(), images=None) -> Iterator[list]:
    """The ``n``-multisets of ``options``, in order, that no swap lowers, as
    sorted lists of option indices compare.  A prefix that a swap lowers has
    only such extensions, so it is cut; with no swaps every multiset comes.
    ``images`` holds each swap's sorted image of the prefix."""
    for i in range(prefix[-1] if prefix else 0, len(options)):
        combo = [*prefix, i]
        grown = swaps and _swap_images(swaps, images, combo)
        if grown is None:
            continue
        if len(combo) == n:
            yield [options[j] for j in combo]
        else:
            yield from _least_multisets(options, n, swaps, combo, grown)


def _classes(budget: EnumerationBudget, meter: _WorkMeter,
             opetopes_only: bool) -> Iterator[dict[Certificate, FaceComplex]]:
    """Each profile's classes, as a map from canonical form to canonical
    representative.

    ``path[k]`` holds them for the current profile's first ``k + 1`` strata
    and is dropped once the walk leaves that prefix.  Only extensions of one
    parent can share a canonical form (see the module docstring).
    """
    path: list[dict[Certificate, FaceComplex]] = []
    last: tuple[int, ...] = ()
    option_lists: dict[tuple[int, int], list] = {}  # by (faces below, k)
    for profile in _profiles(budget, meter.limit):
        meter.where = (profile, None)
        meter.tick()
        # One top face and Euler characteristic 1: see the module docstring.
        if opetopes_only and (profile[-1] != 1
                              or sum(profile[0::2]) - sum(profile[1::2]) != 1):
            continue
        while profile[:len(path)] != last[:len(path)]:
            path.pop()
        last, names = profile, _stratum_names(profile)
        for k in range(len(path), len(profile)):
            meter.where = (profile, k)
            if k == 0:
                meter.tick()
                cert = _least(_Index().extend(names[0], ()))[0]
                path.append({cert: complex_from_certificate(cert)})
                continue
            if (options := option_lists.get((profile[k - 1], k))) is None:
                options = option_lists[profile[k - 1], k] = _options(names[k - 1], k)
            classes = {}
            for parent in path[-1].values():
                kept, swaps, minus = options, [], None
                if opetopes_only:
                    minus = closed_minus(parent, k - 1)
                    if k > 1:  # both one-face axioms are vacuous on arrows
                        kept = [option for option in options if not any(
                            face_violations(k, parent, names[k][0], option, minus))]
                    swaps = _twin_swaps(parent, names[k - 1], kept)
                index = None
                for combo in _least_multisets(kept, profile[k], swaps):
                    meter.tick()
                    if opetopes_only and any(level_violations(
                            Level(k, parent, names[k], combo, minus))):
                        continue
                    if index is None:
                        index = _Index(parent)
                    cert = _least(index.extend(names[k], combo))[0]
                    if cert not in classes:
                        classes[cert] = complex_from_certificate(cert)
            path.append(classes)
        yield path[-1]


def _collect(classes: dict[Certificate, FaceComplex]) -> list[FaceComplex]:
    """The representatives in ``classes``, in stream order: by face count,
    then dimension, then canonical form."""
    return [classes[c] for c in sorted(classes, key=lambda c: (sum(c[0]), len(c[0]), c))]


def enumerate_pops(budget: EnumerationBudget,
                   work_limit: Optional[int] = None) -> Iterator[FaceComplex]:
    """Every valid complex within the budget, once per isomorphism class.

    The stream is collected and sorted before being yielded, so the order
    is deterministic regardless of generation details.
    """
    meter = _WorkMeter(resolve_work_limit(work_limit))
    yield from _collect({cert: complex_
                         for classes in _classes(budget, meter, opetopes_only=False)
                         for cert, complex_ in classes.items()})


def enumerate_positive_opetopes(budget: EnumerationBudget,
                                work_limit: Optional[int] = None) -> Iterator[FaceComplex]:
    """The positive opetopes within the budget, once per class.

    Equivalent to filtering :func:`enumerate_pops` by the positive-opetope
    check.  The search skips profiles whose top stratum is not one face or
    whose Euler characteristic is not 1 (see the module docstring),
    extends one representative per class of each prefix, and decides the
    violations a candidate stratum settles from the parent and the
    assignment, canonicalising the candidate only when there are none; the
    final filter is still the real checker.
    """
    meter = _WorkMeter(resolve_work_limit(work_limit))
    yield from _collect({cert: complex_
                         for classes in _classes(budget, meter, opetopes_only=True)
                         for cert, complex_ in classes.items()
                         if is_positive_opetope(complex_).passed})


def naive_enumerate_pops(budget: EnumerationBudget,
                         work_limit: Optional[int] = None) -> list[FaceComplex]:
    """Independent recount: all labelled assignments, filtered afterwards.

    Unlike :func:`enumerate_pops` this does not bake the base axioms into
    the generator (beyond grading, which is structural): faces may collide
    with their own target and dimension-1 faces still get single sources
    drawn with replacement.  The validator does the rejecting.
    """
    meter = _WorkMeter(resolve_work_limit(work_limit))
    certs = set()
    for profile in _profiles(budget, meter.limit):
        meter.where = (profile, None)
        meter.tick()
        names = _stratum_names(profile)
        faces = {name: k for k, stratum in enumerate(names) for name in stratum}
        upper = [name for stratum in names[1:] for name in stratum]
        spaces = [itertools.product(_naive_options(names[k - 1], k), repeat=profile[k])
                  for k in range(1, len(profile))]
        for assignment in itertools.product(*spaces):
            meter.tick()
            choices = [choice for stratum in assignment for choice in stratum]
            built = build_complex(faces, {x: t for x, (t, _) in zip(upper, choices)},
                                  {x: s for x, (_, s) in zip(upper, choices)})
            if not isinstance(built, AxiomReport):
                certs.add(canonical_form(built))
    return _collect({cert: complex_from_certificate(cert) for cert in certs})
