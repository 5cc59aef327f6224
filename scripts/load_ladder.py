#!/usr/bin/env python3
"""Print how loading and emitting a cell scale with its size.

For ``two_cell(n)`` with n = 1000 / 2000 / 4000 / 8000, for the chain-tree
3-cells of ``tests/helpers.py`` with 600 / 1200 / 2400 nodes and for its
two-sided tree cells with n = 300 / 600 / 1200, it prints the best of
three times, in microseconds per face, of ``parse_dsl`` and ``parse_json``
on the cell's emitted text, of ``FaceComplex(...)`` on its ``to_data()``
maps (``build dict``) and on the parsed document's list of face pairs,
which is what every CLI load passes (``build pairs``), of
``build_complex`` on that document with one target removed (``reject``),
and of ``emit_dsl`` and ``emit_json``.  A flat column means linear work.
A cell's columns are timed in three interleaved rounds, so the columns of
one row share the host's state; rows from two processes (two commits,
say) can be compared only through a column the change between them
leaves alone, such as ``emit_dsl`` and ``emit_json`` when only a reader
changed.  Exits 1 only if a DSL or JSON round trip does not give back the
complex, or the rejected copy does not fail exactly ``MissingTarget``;
times are printed, never judged.  Takes a few seconds:

    python3 scripts/load_ladder.py
"""

import math
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from helpers import chain_tree_cell, two_sided_tree_cell  # noqa: E402
from opetope_kit import (  # noqa: E402
    FaceComplex, build_complex, emit_dsl, emit_json, parse_dsl, parse_json, two_cell)


def main() -> int:
    failed = False
    columns = ("parse_dsl", "parse_json", "build dict", "build pairs", "reject",
               "emit_dsl", "emit_json")
    print(f"{'cell':24} {'faces':>7}" + "".join(f" {name:>11}" for name in columns)
          + "   (us per face)")
    cells = [(f"two_cell({n})", lambda n=n: two_cell(n)) for n in (1000, 2000, 4000, 8000)]
    cells += [(f"chain-tree cell {n}", lambda n=n: chain_tree_cell(n)) for n in (600, 1200, 2400)]
    cells += [(f"two-sided cell {n}", lambda n=n: two_sided_tree_cell(n)) for n in (300, 600, 1200)]
    for label, build in cells:
        complex_ = build()
        dsl, json_text = emit_dsl(complex_), emit_json(complex_)
        dsl_doc = parse_dsl(dsl)
        target = dict(dsl_doc.target)
        del target[next(iter(target))]
        calls = (  # one (function, argument) per column
            (parse_dsl, dsl), (parse_json, json_text),
            (lambda data: FaceComplex(*data), complex_.to_data()),
            (lambda data: FaceComplex(*data), (dsl_doc.faces, dsl_doc.target, dsl_doc.sources)),
            (lambda data: build_complex(*data), (dsl_doc.faces, target, dsl_doc.sources)),
            (emit_dsl, complex_), (emit_json, complex_))
        times, results = [math.inf] * len(calls), [None] * len(calls)
        for _ in range(3):
            for i, (call, argument) in enumerate(calls):
                start = time.perf_counter()
                results[i] = call(argument)
                times[i] = min(times[i], time.perf_counter() - start)
        json_doc, report = results[1], results[4]
        broken = [f"{name} ROUND TRIP FAILS" for name, doc in (("DSL", dsl_doc), ("JSON", json_doc))
                  if doc.build() != complex_]
        if isinstance(report, FaceComplex) or report.failed_axioms() != ("MissingTarget",):
            broken.append("REJECTED COPY NOT REPORTED")
        print(f"{label:24} {len(complex_):>7}"
              + "".join(f" {seconds / len(complex_) * 1e6:>11.2f}" for seconds in times)
              + "".join(f"  {problem}" for problem in broken))
        failed |= bool(broken)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
