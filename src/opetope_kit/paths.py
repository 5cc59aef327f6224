"""Constructive certificates on dendritic complexes.

All four operations assume the complex already passed :func:`is_dfc`;
under that assumption each certificate exists and is unique, and any
internal surprise is reported as ``InternalInvariantBroken`` rather than
guessed around.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import MINUS, PLUS, FaceComplex, opposite
from .dfc import complete_half_lozenge, face_tree, greatest_element
from .errors import (
    DimensionOutOfRange,
    InternalInvariantBroken,
    LozengeError,
    PreconditionViolation,
)
from .relations import FacePath, lambda_set


@dataclass(frozen=True)
class ZigZag:
    """An alternating walk among the sources of an anchor face.

    ``faces`` lists c0, d0, c1, d1, ..., cp (odd length); junction ``i``
    has sign ``signs[i]``, meaning d_i sits below c_i with that sign and
    below c_{i+1} with the opposite one.  Every c_i is a source of the
    anchor.
    """

    anchor: str
    faces: tuple[str, ...]
    signs: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.signs)

    @property
    def is_trivial(self) -> bool:
        return not self.signs

    @property
    def is_simple(self) -> bool:
        lower = self.faces[1::2]
        return all(lower[i] != lower[i + 1] for i in range(len(lower) - 1))

    def reverse(self) -> "ZigZag":
        return ZigZag(
            self.anchor,
            tuple(reversed(self.faces)),
            tuple(opposite(s) for s in reversed(self.signs)))

    def render(self) -> str:
        """One-line display such as ``f1 >+ x1 <- f2``."""
        parts = [self.faces[0]]
        for i in range(self.length):
            parts.append(f">{self.signs[i]}")
            parts.append(self.faces[2 * i + 1])
            parts.append(f"<{opposite(self.signs[i])}")
            parts.append(self.faces[2 * i + 2])
        return " ".join(parts)


def path_to_root(complex_: FaceComplex, c: str, d: str) -> FacePath:
    """Walk from the source ``d`` of ``c`` to the root source of ``c``.

    Successive lozenge completions of (target of current, current, c) each
    yield the next source, until the completion closes on the target of
    ``c`` itself.  The certificate is a lower path; its even entries are
    the visited sources, ending at the root of the face tree of ``c``.
    """
    if d not in complex_.delta(c):
        raise PreconditionViolation(f"{d} is not a source of {c}")
    if complex_.dim(d) < 1:
        raise PreconditionViolation(f"source {d} has dimension 0")
    walk = [d]
    current = d
    for _ in range(len(complex_.delta(c))):
        try:
            lozenge = complete_half_lozenge(
                complex_, complex_.gamma(current), current, c)
        except LozengeError as err:
            raise InternalInvariantBroken(str(err)) from err
        if lozenge.right == complex_.gamma(c):
            faces: list[str] = []
            for node in walk[:-1]:
                faces.extend((node, complex_.gamma(node)))
            faces.append(walk[-1])
            return FacePath("lower", tuple(faces))
        walk.append(lozenge.right)
        current = lozenge.right
    raise InternalInvariantBroken(
        f"walk inside the sources of {c} did not terminate")


def simple_zigzag(complex_: FaceComplex, anchor: str, start: str, end: str) -> ZigZag:
    """The unique simple zig-zag between two sources of ``anchor``.

    Computed on the face tree of the anchor: climb from ``start`` to the
    meet of the two nodes, then descend to ``end``.  Each junction on the
    climb carries '+', each on the descent '-'.
    """
    tree = face_tree(complex_, anchor)
    for c in (start, end):
        if c not in tree.nodes:
            raise PreconditionViolation(f"{c} is not a source of {anchor}")
    up_start = tree.descending_path(start)
    up_end = tree.descending_path(end)
    common = set(up_start) & set(up_end)
    meet_at = min(i for i, node in enumerate(up_start) if node in common)
    climb = up_start[:meet_at + 1]
    meet = climb[-1]
    descend = list(reversed(up_end[:up_end.index(meet)]))

    faces: list[str] = [start]
    signs: list[str] = []
    for node in climb[1:]:
        faces.append(complex_.gamma(faces[-1]))
        signs.append(PLUS)
        faces.append(node)
    for node in descend:
        faces.append(complex_.gamma(node))
        signs.append(MINUS)
        faces.append(node)
    zigzag = ZigZag(anchor, tuple(faces), tuple(signs))
    if not zigzag.is_simple:
        raise InternalInvariantBroken(
            f"tree walk between {start} and {end} is not simple")
    return zigzag


def linear_order_s0(complex_: FaceComplex) -> list[str]:
    """The 0-faces in ascending plus-order.

    Starts at the unique 0-face that is nobody's target and repeatedly
    steps to the target of the unique non-target 1-face having the current
    face as its source.  The final face is the iterated target of the
    greatest element.
    """
    starts = sorted(lambda_set(complex_, 0))
    if len(starts) != 1:
        raise InternalInvariantBroken(
            f"{len(starts)} minimal 0-faces: {starts}")
    non_targets = (lambda_set(complex_, 1)
                   if complex_.dimension >= 1 else frozenset())
    order = [starts[0]]
    seen = {starts[0]}
    while True:
        steps = [w for w in complex_.pencils(order[-1])[1] if w in non_targets]
        if not steps:
            break
        if len(steps) > 1:
            raise InternalInvariantBroken(
                f"{order[-1]} is a source of several non-target 1-faces")
        nxt = complex_.gamma(steps[0])
        if nxt in seen:
            raise InternalInvariantBroken(f"0-face walk revisits {nxt}")
        order.append(nxt)
        seen.add(nxt)
    if len(order) != len(complex_.stratum(0)):
        raise InternalInvariantBroken(
            "0-face walk missed " +
            ", ".join(sorted(set(complex_.stratum(0)) - seen)))
    return order


def sources_partition(complex_: FaceComplex, k: int) -> dict[str, frozenset[str]]:
    """Split stratum ``k`` minus its distinguished target face into the
    source sets of the non-target faces one dimension up.

    The blocks are checked to be disjoint and to cover exactly the
    expected faces, so a successful return doubles as a runtime proof of
    the partition law on this complex.
    """
    if not 0 <= k < complex_.dimension:
        raise DimensionOutOfRange(
            f"partition needs 0 <= {k} < dim = {complex_.dimension}")
    omega = greatest_element(complex_)
    if omega is None:
        raise PreconditionViolation("complex has no greatest element")
    leftover = complex_.iterated_target(omega, k)
    blocks = {c: complex_.delta(c) for c in sorted(lambda_set(complex_, k + 1))}
    union: set[str] = set()
    total = 0
    for block in blocks.values():
        union |= block
        total += len(block)
    if total != len(union):
        raise InternalInvariantBroken(f"partition blocks at dim {k} overlap")
    if union != set(complex_.stratum(k)) - {leftover}:
        raise InternalInvariantBroken(
            f"partition blocks at dim {k} do not cover the stratum")
    return blocks
