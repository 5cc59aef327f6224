#!/usr/bin/env python3
"""Check the pruned opetope search against the unpruned one, and both
against the naive recount.

For each budget, ``enumerate_positive_opetopes`` (which skips profiles
and prunes partial stages) must stream the same canonical forms, in the
same order, as ``enumerate_pops`` filtered by ``is_positive_opetope``.
Both share the prefix deduplication, so ``enumerate_pops`` must also
stream the same canonical forms, in the same order, as
``naive_enumerate_pops`` at (3, 7).  At (3, 11) the pruned search's
count of opetopes at each dimension and face count must equal the
tree-count oracle of ``tests/helpers.py``, which builds no complex.  Each
search prints its time and the number of stages it built (dimension-0
bases included; not for the naive recount, which counts labelled
assignments), counted by a subclass of the enumerator's ``FaceComplex``.
Exits 1 on any mismatch.  Takes under a minute on one core:

    python3 scripts/check_opetope_stream.py
"""

import pathlib
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from opetope_kit import (  # noqa: E402
    EnumerationBudget,
    FaceComplex,
    canonical_form,
    enumerate_pops,
    enumerate_positive_opetopes,
    is_positive_opetope,
    naive_enumerate_pops,
)
from opetope_kit import enumeration  # noqa: E402
from helpers import tree_opetope_count  # noqa: E402

BUDGETS = ((3, 9), (4, 9))
NAIVE_BUDGET = (3, 7)
ORACLE_BUDGET = (3, 11)

built = 0


class _Counting(FaceComplex):
    """The enumerator's class, counting each stage it builds; a subclass,
    so that isinstance checks and class attributes work as before."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        global built
        built += 1
        super().__init__(*args, **kwargs)


def main() -> int:
    enumeration.FaceComplex = _Counting
    failed = False
    for max_dim, max_faces in BUDGETS:
        budget = EnumerationBudget(max_dim, max_faces)
        start, before = time.perf_counter(), built
        pruned = [canonical_form(c) for c in enumerate_positive_opetopes(budget)]
        middle, between = time.perf_counter(), built
        classes = list(enumerate_pops(budget))
        filtered = [canonical_form(c) for c in classes if is_positive_opetope(c).passed]
        end = time.perf_counter()
        verdict = "ok" if pruned == filtered else "MISMATCH"
        failed |= pruned != filtered
        print(f"({max_dim}, {max_faces}): pruned {len(pruned)} opetopes in "
              f"{middle - start:.1f} s from {between - before} stages; filtered "
              f"{len(filtered)} of {len(classes)} classes in {end - middle:.1f} s "
              f"from {built - between} stages: {verdict}", flush=True)
    budget = EnumerationBudget(*NAIVE_BUDGET)
    start, before = time.perf_counter(), built
    clever = [canonical_form(c) for c in enumerate_pops(budget)]
    middle, stages = time.perf_counter(), built - before
    naive = [canonical_form(c) for c in naive_enumerate_pops(budget)]
    end = time.perf_counter()
    verdict = "ok" if clever == naive else "MISMATCH"
    failed |= clever != naive
    print(f"{NAIVE_BUDGET}: enumerated {len(clever)} classes in {middle - start:.1f} s "
          f"from {stages} stages; "
          f"naive recount {len(naive)} in {end - middle:.1f} s: {verdict}", flush=True)
    max_dim, max_faces = ORACLE_BUDGET
    start, before = time.perf_counter(), built
    found = Counter((c.dimension, len(c))
                    for c in enumerate_positive_opetopes(EnumerationBudget(max_dim, max_faces)))
    end = time.perf_counter()
    expected = {(d, n): tree_opetope_count(d, n)
                for d in range(max_dim + 1) for n in range(1, max_faces + 1)}
    verdict = "ok" if {key: found[key] for key in expected} == expected else "MISMATCH"
    failed |= verdict != "ok"
    print(f"{ORACLE_BUDGET}: pruned {sum(found.values())} opetopes in {end - start:.1f} s "
          f"from {built - before} stages; tree counts: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
