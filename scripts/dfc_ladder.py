#!/usr/bin/env python3
"""Print how ``is_dfc`` and ``is_positive_opetope`` scale on three families
of dendritic cells.

For the chain-tree 3-cells of ``tests/helpers.py`` with 300 / 600 / 1200 /
2400 nodes (a chain of binary nodes, each child plugged into its parent's
first slot, so the first point is the source of every slot arrow), for its
two-sided tree cells with n = 300 / 600 / 1200 (two such chains of n nodes
below one root, so the middle point ends and starts about n arrows each)
and for ``two_cell(n)`` with n = 250 / 500 / 1000 / 2000, it prints the best
of three times of ``is_dfc``, of each of its checks (greatest element,
oriented thinness, acyclicity) and of ``is_positive_opetope``, and the
ratio of the last to ``is_dfc``, with the adjacency entries ``is_dfc``
reads per face: the summed lengths of what ``FaceComplex.delta`` returns,
one per ``gamma`` call, and of both tuples ``pencils`` returns, the only
adjacency accessors it calls on these cells.  A flat entries-per-face
column means linear work.  A cell's columns are timed in three interleaved
rounds, so the columns of one row, and the ratio, share the host's state.
Exits 1 only if a cell fails ``is_dfc`` or ``is_positive_opetope``; times
are printed, never judged.
Takes a few seconds:

    python3 scripts/dfc_ladder.py
"""

import math
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import chain_tree_cell, two_sided_tree_cell  # noqa: E402
from opetope_kit import (FaceComplex, check_acyclicity, check_greatest_element,  # noqa: E402
                         check_oriented_thinness, is_dfc, is_positive_opetope,
                         two_cell)

# each counted accessor, with the number of entries in what it returns
ACCESSORS = {"delta": len, "gamma": lambda _: 1,
             "pencils": lambda pencils: len(pencils[0]) + len(pencils[1])}


def entries_read(complex_: FaceComplex) -> int:
    """The adjacency entries one ``is_dfc`` call reads."""
    reads = 0
    originals = {name: getattr(FaceComplex, name) for name in ACCESSORS}

    def counting(method, size):
        def wrapped(self, name):
            nonlocal reads
            out = method(self, name)
            reads += size(out)
            return out
        return wrapped

    for name, method in originals.items():
        setattr(FaceComplex, name, counting(method, ACCESSORS[name]))
    try:
        is_dfc(complex_)
    finally:
        for name, method in originals.items():
            setattr(FaceComplex, name, method)
    return reads


# the timed columns, in the order each round calls them and the row prints them
COLUMNS = {"is_dfc s": is_dfc, "greatest s": check_greatest_element,
           "thinness s": check_oriented_thinness, "acyclic s": check_acyclicity,
           "opetope s": is_positive_opetope}


def interleaved_best(complex_) -> tuple[list[float], list[object]]:
    """Per column, the least of three calls made in three interleaved
    rounds, and the last call's result."""
    times, results = [math.inf] * len(COLUMNS), [None] * len(COLUMNS)
    for _ in range(3):
        for i, check in enumerate(COLUMNS.values()):
            start = time.perf_counter()
            results[i] = check(complex_)
            times[i] = min(times[i], time.perf_counter() - start)
    return times, results


def main() -> int:
    failed = False
    names = list(COLUMNS)
    print(f"{'cell':24} {'faces':>7} {names[0]:>10}"
          + "".join(f" {name:>11}" for name in names[1:-1]) + f" {'entries/face':>13}"
          + f" {names[-1]:>10} {'/ is_dfc':>9}")
    cells = [(f"chain-tree cell {n}", lambda n=n: chain_tree_cell(n)) for n in (300, 600, 1200, 2400)]
    cells += [(f"two-sided cell {n}", lambda n=n: two_sided_tree_cell(n)) for n in (300, 600, 1200)]
    cells += [(f"two_cell({n})", lambda n=n: two_cell(n)) for n in (250, 500, 1000, 2000)]
    for label, build in cells:
        complex_ = build()
        (total, *parts, opetope), results = interleaved_best(complex_)
        report, opetope_report = results[0], results[-1]
        per_face = entries_read(complex_) / len(complex_)
        print(f"{label:24} {len(complex_):>7} {total:>10.4f}"
              + "".join(f" {part:>11.4f}" for part in parts) + f" {per_face:>13.2f}"
              + f" {opetope:>10.4f} {opetope / total:>9.2f}"
              + ("" if report.passed else "  FAILS is_dfc")
              + ("" if opetope_report.passed else "  FAILS is_positive_opetope"))
        failed |= not (report.passed and opetope_report.passed)
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())
