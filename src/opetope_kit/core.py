"""Face complexes: finitely many graded faces with signed covering data.

A face complex stores named faces, each with a dimension, and for every
face of dimension >= 1 a single *target* face together with a nonempty set
of *source* faces, all one dimension below.  The same data supports two
interchangeable readings:

* as a graded poset whose covering relation carries a sign: ``y <- x``
  when ``y`` is a source of ``x`` and ``y <+ x`` when ``y`` is the target;
* as a stack of per-dimension tables: a target function and a source
  relation from each stratum to the one below.

Construction is eager: a ``FaceComplex`` value existing means every base
axiom holds (grading, one target and at least one source per face, no face
that is both source and target of the same face, single-source faces in
dimension 1).  Everything downstream relies on that guarantee.  One pass
decides every base axiom: it indexes valid input and writes the report of
a rejection, so ``FaceComplex``, ``build_complex`` and
``validate_complex_data`` share it.  Instances are immutable and safe to
share between threads.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sized
from dataclasses import dataclass
from itertools import chain

from .errors import (
    DimensionOutOfRange,
    DimensionTooHigh,
    InvalidComplex,
    PreconditionViolation,
    UnknownFaceReference,
    ZeroDimensionalFace,
)

_NAME_RE = re.compile(r"[\w']+")

MINUS = "-"
PLUS = "+"


def sign_product(a: str, b: str) -> str:
    """Multiply two signs written as '+' / '-'."""
    return PLUS if a == b else MINUS


def opposite(sign: str) -> str:
    return MINUS if sign == PLUS else PLUS


def is_valid_face_name(name: object) -> bool:
    """Face names are nonempty runs of letters, digits, ``_`` and ``'``."""
    return isinstance(name, str) and bool(_NAME_RE.fullmatch(name))


@dataclass(frozen=True)
class Violation:
    """One failed axiom with the faces that witness the failure."""

    axiom: str
    witnesses: tuple[str, ...]
    detail: str

    def to_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "witnesses": list(self.witnesses),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a validation run: passes exactly when no violations."""

    violations: tuple[Violation, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def failed_axioms(self) -> tuple[str, ...]:
        return tuple(sorted({v.axiom for v in self.violations}))

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "violations": [v.to_dict() for v in self.violations],
        }

    @staticmethod
    def of(violations, axioms: tuple[str, ...] | None = None) -> "AxiomReport":
        """The report of ``violations``, sorted by axiom, witnesses and
        detail.  With ``axioms``, only those axioms are kept, in that order."""
        if axioms is None:
            return AxiomReport(tuple(sorted(
                violations, key=lambda v: (v.axiom, v.witnesses, v.detail))))
        rank = {axiom: i for i, axiom in enumerate(axioms)}
        return AxiomReport(tuple(sorted((v for v in violations if v.axiom in rank),
                                        key=lambda v: (rank[v.axiom], v.witnesses, v.detail))))


class _Faces(dict):
    """A map keyed by face name whose lookup rejects an unknown name, so a
    ``FaceComplex`` query needs no membership test before its lookup."""

    __slots__ = ()

    def __missing__(self, name):
        raise UnknownFaceReference(f"unknown face {name!r}")


def _indexed(faces, target, sources):
    """(dims, target, sources, strata, pencils) of a complex on which every
    base axiom holds, else raises ``InvalidComplex`` with the full report.

    The faces are read once, in the order given, and visited in name order,
    which fills each stratum and pencil sorted; each failed axiom appends a
    ``Violation`` and the report is sorted at the end.  ``target`` and
    ``sources`` are read with ``in`` before ``[]``, so a ``defaultdict``
    does not grow."""
    mappings = (dict, Mapping)  # a dict passes before the slower ABC check
    if not isinstance(target, mappings) or not isinstance(sources, mappings):
        raise TypeError("target and sources must be mappings")
    bad: list[Violation] = []
    dims: dict[str, int] = {}  # an exact dict is faster to read than a _Faces
    for entry in faces.items() if isinstance(faces, mappings) else faces:
        try:
            name, dim = entry
        except ValueError:
            bad.append(Violation("InvalidFaceName", (), f"malformed face entry {tuple(entry)!r}"))
            continue
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            bad.append(Violation("InvalidFaceName", (), f"bad face name {name!r}"))
        elif name in dims:
            bad.append(Violation("DuplicateFace", (name,), f"face {name} declared twice"))
        elif not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            bad.append(Violation("InvalidDimension", (name,), f"face {name} has dimension {dim!r}"))
        else:
            dims[name] = dim
    if not dims and not bad:
        bad.append(Violation("EmptyComplex", (), "a complex must contain at least one face"))

    strata = {d: [] for d in sorted(set(dims.values()))}
    above = {y: ([], []) for y in dims}
    tgt, src = {}, {}
    for x in sorted(dims):
        strata[d := dims[x]].append(x)
        if not d:
            continue
        if x not in target:
            bad.append(Violation("MissingTarget", (x,), f"face {x} has no target"))
        elif not isinstance(t := target[x], str) or t not in dims:
            bad.append(Violation("UnknownFaceReference", (x,), f"target of {x} is unknown face {t!r}"))
        elif dims[t] != d - 1:
            bad.append(Violation(
                "GradingViolation", (t, x), f"target of {x} (dim {d}) is {t} of dim {dims[t]}"))
        else:
            tgt[x] = t
            above[t][0].append(x)

        if x not in sources:
            bad.append(Violation("EmptySources", (x,), f"face {x} has no sources"))
            continue
        entries = sources[x]
        try:  # the size first: a one-shot iterable has none and is left unread
            count, ys = len(entries), frozenset(entries)
        except TypeError:  # no size, or an unhashable entry
            count, ys = -1, ()
        if len(ys) == count and not isinstance(entries, str):
            for y in ys:
                if dims.get(y) != d - 1:
                    break
                above[y][1].append(x)
            else:
                src[x] = ys
                if not ys:
                    bad.append(Violation("EmptySources", (x,), f"face {x} has no sources"))
                if tgt.get(x) in ys:
                    bad.append(Violation(
                        "SignClash", (tgt[x], x), f"face {tgt[x]} is both the target and a source of {x}"))
                if d == 1 and len(ys) > 1:
                    bad.append(Violation(
                        "Delta0NotFunctional", (x,), f"dimension-1 face {x} has {len(ys)} sources"))
                continue
        # the source set failed: name each bad entry
        if isinstance(entries, str) or not isinstance(entries, Sized):
            bad.append(Violation(
                "EmptySources", (x,), f"sources of {x} are not a collection: {type(entries).__name__}"))
            continue
        seen: set[str] = set()
        for y in entries:
            if not isinstance(y, str) or y not in dims:
                bad.append(Violation("UnknownFaceReference", (x,), f"source of {x} is unknown face {y!r}"))
            elif y in seen:
                bad.append(Violation("DuplicateSource", (y, x), f"face {y} listed twice among sources of {x}"))
            else:
                seen.add(y)
                if dims[y] != d - 1:
                    bad.append(Violation(
                        "GradingViolation", (y, x), f"source {y} of {x} (dim {d}) has dim {dims[y]}"))

    # Keys naming no face of dimension >= 1.  With no violation so far each
    # such face has a target and sources, so only a key beyond their count
    # can be one.
    if bad or not len(target) == len(sources) == len(dims) - len(strata.get(0, ())):
        for covers, what in ((target, "target"), (sources, "sources")):
            for x in covers:
                if x not in dims:
                    bad.append(Violation(
                        "UnknownFaceReference", (str(x),), f"{what} declared for unknown face {x!r}"))
                elif not dims[x]:
                    bad.append(Violation(
                        "GradingViolation", (x,), f"{what} declared for dimension-0 face {x}"))
    if bad:
        raise InvalidComplex(AxiomReport.of(bad))
    return (_Faces(dims), tgt, src, {k: tuple(names) for k, names in strata.items()},
            _Faces((y, (tuple(t), tuple(s))) for y, (t, s) in above.items()))


def validate_complex_data(faces, target, sources) -> AxiomReport:
    """Run the base-axiom validation without constructing a complex."""
    try:
        _indexed(faces, target, sources)
    except InvalidComplex as err:
        return err.report
    return AxiomReport()


class FaceComplex:
    """An immutable, validated face complex.

    ``faces`` maps names to dimensions (or is an iterable of pairs),
    ``target`` maps each dim >= 1 face to its target and ``sources`` to its
    nonempty source set.  Raises :class:`InvalidComplex` when any base
    axiom fails; the exception carries the full report, the same as
    ``validate_complex_data`` gives, from the one pass that indexes valid
    input.  ``TypeError`` when ``target`` or ``sources`` is not a mapping.
    """

    __slots__ = ("_dims", "_strata", "_target", "_sources", "_pencils")

    def __init__(self, faces, target, sources):
        self._dims, self._target, self._sources, self._strata, self._pencils = _indexed(
            faces, target, sources)

    # -- basic queries -------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._dims

    def __len__(self) -> int:
        return len(self._dims)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FaceComplex) and self._dims == other._dims
                and self._target == other._target and self._sources == other._sources)

    def __hash__(self) -> int:
        return hash((frozenset(self._dims.items()), frozenset(self._target.items()),
                     frozenset(self._sources.items())))

    def __repr__(self) -> str:
        return f"FaceComplex({len(self)} faces, dim {self.dimension})"

    @property
    def dimension(self) -> int:
        """The largest face dimension present."""
        return max(self._strata)

    def faces(self) -> tuple[str, ...]:
        """All face names, ordered by (dimension, name)."""
        return tuple(chain.from_iterable(self._strata.values()))

    def stratum(self, k: int) -> tuple[str, ...]:
        """The sorted faces of dimension ``k`` (empty above the top)."""
        if k < 0:
            return ()
        return self._strata.get(k, ())

    def dim(self, name: str) -> int:
        return self._dims[name]

    # -- covers --------------------------------------------------------

    def gamma(self, name: str) -> str:
        """The target of a face of dimension >= 1."""
        if self._dims[name] == 0:
            raise ZeroDimensionalFace(f"face {name} has no target")
        return self._target[name]

    def delta(self, name: str) -> frozenset[str]:
        """The source set of a face of dimension >= 1."""
        if self._dims[name] == 0:
            raise ZeroDimensionalFace(f"face {name} has no sources")
        return self._sources[name]

    def iterated_target(self, name: str, k: int) -> str:
        """Apply the target map until reaching dimension ``k``."""
        d = self._dims[name]
        if k < 0:
            raise DimensionOutOfRange(f"dimension {k} is negative")
        if k > d:
            raise DimensionTooHigh(f"face {name} has dim {d} < {k}")
        x = name
        for _ in range(d - k):
            x = self._target[x]
        return x

    def cover_sign(self, y: str, x: str) -> str | None:
        """'-' or '+' when ``y`` is covered by ``x``, else None."""
        if self._dims[y] + 1 == self._dims[x]:
            if self._target[x] == y:
                return PLUS
            if y in self._sources[x]:
                return MINUS
        return None

    def covers(self, x: str) -> tuple[tuple[str, str], ...]:
        """Faces covered by ``x`` as sorted (face, sign) pairs."""
        if self._dims[x] == 0:
            return ()
        out = [(y, MINUS) for y in self._sources[x]]
        out.append((self._target[x], PLUS))
        return tuple(sorted(out))

    def pencils(self, y: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The faces whose target is ``y`` and those with ``y`` among their
        sources, each sorted: the target and the source pencil of ``y``."""
        return self._pencils[y]

    def cofaces(self, y: str) -> tuple[tuple[str, str], ...]:
        """Faces covering ``y`` as sorted (face, sign) pairs: the signed
        merge of its pencils, which share no face (no SignClash)."""
        targets, sources = self._pencils[y]
        return tuple(sorted([(x, PLUS) for x in targets] + [(x, MINUS) for x in sources]))

    def downset(self, x: str) -> frozenset[str]:
        """All faces reachable downward from ``x``, including ``x``."""
        seen = {x}
        todo = [x] if self._dims[x] else []
        while todo:
            cur = todo.pop()
            for y in (self._target[cur], *self._sources[cur]):
                if y not in seen:
                    seen.add(y)
                    if y in self._target:
                        todo.append(y)
        return frozenset(seen)

    # -- export / rebuild ----------------------------------------------

    def to_data(self) -> tuple[dict[str, int], dict[str, str], dict[str, frozenset[str]]]:
        """Copies of the raw (faces, target, sources) maps."""
        return dict(self._dims), dict(self._target), dict(self._sources)

    def relabel(self, mapping: Mapping[str, str]) -> "FaceComplex":
        """Rebuild the complex with faces renamed through a bijection."""
        if set(mapping) != set(self._dims):
            raise UnknownFaceReference("relabelling must cover every face exactly once")
        if len(set(mapping.values())) != len(mapping):
            raise PreconditionViolation("relabelling is not injective")
        faces = {mapping[n]: d for n, d in self._dims.items()}
        target = {mapping[x]: mapping[t] for x, t in self._target.items()}
        sources = {mapping[x]: frozenset(mapping[y] for y in s)
                   for x, s in self._sources.items()}
        return FaceComplex(faces, target, sources)


def build_complex(faces, target, sources):
    """Validate and build; returns the complex, or the failure report."""
    try:
        return FaceComplex(faces, target, sources)
    except InvalidComplex as err:
        return err.report


# -- the two presentation views ----------------------------------------


@dataclass
class HypergraphView:
    """Per-dimension tables: ``gamma[k]`` / ``delta[k]`` map the faces of
    dimension ``k + 1`` to their target / source set in dimension ``k``.
    """

    strata: dict[int, tuple[str, ...]]
    gamma: dict[int, dict[str, str]]
    delta: dict[int, dict[str, frozenset[str]]]


def to_hypergraph_view(complex_: FaceComplex) -> HypergraphView:
    """Slice a complex into its per-dimension target/source tables."""
    strata = {k: complex_.stratum(k) for k in range(complex_.dimension + 1)}
    gamma: dict[int, dict[str, str]] = {}
    delta: dict[int, dict[str, frozenset[str]]] = {}
    for k in range(complex_.dimension):
        gamma[k] = {x: complex_.gamma(x) for x in strata[k + 1]}
        delta[k] = {x: complex_.delta(x) for x in strata[k + 1]}
    return HypergraphView(strata, gamma, delta)


def from_hypergraph_view(view: HypergraphView):
    """Reassemble a complex from per-dimension tables.

    Runs the full base validation again, so malformed tables come back as
    the usual report rather than a partially built value.
    """
    faces: list[tuple[str, int]] = []
    for k in sorted(view.strata):
        faces.extend((name, k) for name in view.strata[k])
    target: dict[str, str] = {}
    sources: dict[str, frozenset[str]] = {}
    for k in sorted(view.gamma):
        target.update(view.gamma[k])
    for k in sorted(view.delta):
        sources.update(view.delta[k])
    return build_complex(faces, target, sources)


# -- morphisms ----------------------------------------------------------


@dataclass(frozen=True)
class Morphism:
    """A total face mapping between two complexes, validated separately."""

    source: FaceComplex
    target: FaceComplex
    mapping: Mapping[str, str]

    def __call__(self, name: str) -> str:
        return self.mapping[name]


def identity_morphism(complex_: FaceComplex) -> Morphism:
    return Morphism(complex_, complex_, {n: n for n in complex_.faces()})


def compose_morphisms(first: Morphism, second: Morphism) -> Morphism:
    """The morphism doing ``first`` then ``second``."""
    if first.target is not second.source and first.target != second.source:
        raise PreconditionViolation("morphisms do not compose: middle complexes differ")
    mapping = {a: second.mapping[b] for a, b in first.mapping.items()}
    return Morphism(first.source, second.target, mapping)


def validate_morphism(m: Morphism) -> AxiomReport:
    """Check the three morphism laws; structural defects raise instead.

    The mapping must be total on the source complex and land in the target
    complex (``UnknownFaceReference`` otherwise).  The report records any
    face at which dimensions, targets, or the source-set bijection fail.
    One pass runs up the dimensions, so each face's covers are read after
    their own totality and image checks.
    """
    src, dst, f = m.source, m.target, m.mapping
    for a in f:
        if a not in src:
            raise UnknownFaceReference(f"map mentions unknown source face {a!r}")
    bad: list[Violation] = []
    for a in src.faces():
        if a not in f:
            raise UnknownFaceReference(f"map is not total: missing {a!r}")
        fa = f[a]
        if fa not in dst:
            raise UnknownFaceReference(f"map sends {a} to unknown face {fa!r}")
        d, e = src.dim(a), dst.dim(fa)
        if d != e:
            bad.append(Violation(
                "dimension-preserving", (a,), f"{a} has dim {d} but {fa} has dim {e}"))
        if d == 0 or e == 0:
            continue
        if dst.gamma(fa) != f[src.gamma(a)]:
            bad.append(Violation(
                "target-commuting", (a,),
                f"target of {fa} is {dst.gamma(fa)}, expected image {f[src.gamma(a)]}"))
        image = {f[y] for y in src.delta(a)}
        if len(image) != len(src.delta(a)) or image != dst.delta(fa):
            bad.append(Violation(
                "source-bijective", (a,),
                f"sources of {a} do not map bijectively onto sources of {fa}"))
    return AxiomReport.of(bad)
