#!/usr/bin/env python3
"""Check the pruned opetope search against the unpruned one, and both
against the naive recount.

For each budget, ``enumerate_positive_opetopes`` (which skips profiles
and prunes partial stages) must stream the same canonical forms, in the
same order, as ``enumerate_pops`` filtered by ``is_positive_opetope``.
One census at the largest budget serves every budget: the stream is
ordered by face count, then dimension, so a smaller budget's census is
the part of it within that budget, in the same order.  Every class of
that census must get the same verdict from ``is_dfc`` and
``is_positive_opetope`` (the two axiom suites agree), and every opetope
of every pruned stream below must pass ``is_dfc``.  Both share the
prefix deduplication, so ``enumerate_pops`` must also stream the same
canonical forms, in the same order, as ``naive_enumerate_pops`` at
(3, 7).  At (3, 11), (4, 11), (3, 13) and (5, 13), the last two at the
default work limit, the pruned search's stream must have its pinned
SHA-256 (one canonical-form repr per line, the format of
``tests/test_enumeration.py``) and length, and its count of opetopes at each
dimension <= 3 and face count must equal the tree-count oracle of
``tests/helpers.py``, which builds no complex.  Each run prints its time,
the certificates it computed (one per candidate stratum that passes the
pruning, dimension-0 bases included; none for the naive recount, which
calls ``canonical_form``), the stages it built, counted at the
enumerator's ``complex_from_certificate`` calls (one per class, when its
certificate is first met; the builds that validate the naive recount's
labelled assignments are not counted), and its work-meter ticks: the
profiles visited and assignments tried that the work limit counts
(labelled assignments for the naive recount); the census line also
gives the classes checked by both suites and how many pass both.  Exits
1 on any mismatch or disagreement.
Takes about a minute on one core:

    python3 scripts/check_opetope_stream.py
"""

import hashlib
import pathlib
import sys
import time
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from opetope_kit import (  # noqa: E402
    EnumerationBudget,
    canonical_form,
    enumerate_pops,
    enumerate_positive_opetopes,
    is_dfc,
    is_positive_opetope,
    naive_enumerate_pops,
)
from opetope_kit import enumeration  # noqa: E402
from helpers import tree_opetope_count  # noqa: E402

BUDGETS = ((3, 9), (4, 9))
NAIVE_BUDGET = (3, 7)
# SHA-256 and length of the pruned streams, first computed when every
# candidate was still built before it was checked (the 13-face ones with
# the work limit raised, before the search dropped one-face failures).
PINNED = {
    (3, 11): ("a713a62c63c12831343825fbd8722e14a33dfa7e82c24d19662e33f26f93417a", 14),
    (4, 11): ("a6c31a0bbf3b68b010c438ee0aaf3c5b5db36e62bac42ad658c9ce80b3c3dbdb", 18),
    (3, 13): ("31b05b7821661b833ed08c1cc2b76a4073d444de0837f7f6fc4421bc01ba45c9", 29),
    (5, 13): ("eed1015f468386a199624fd46849dca78e6009425cf97a40d724007197904e51", 48),
}

built = ticks = certificates = 0
_tick, _least, _build = (enumeration._WorkMeter.tick, enumeration._least,
                         enumeration.complex_from_certificate)


def _counting_tick(meter) -> None:
    global ticks
    ticks += 1
    _tick(meter)


def _counting_least(index):
    global certificates
    certificates += 1
    return _least(index)


def _counting_build(cert):
    global built
    built += 1
    return _build(cert)


def _run(search, budget):
    """The complexes ``search(budget)`` yields, and a note of the seconds,
    certificates computed, stages built and work-meter ticks it took."""
    start, certs, stages, work = time.perf_counter(), certificates, built, ticks
    result = list(search(EnumerationBudget(*budget)))
    return result, (f"in {time.perf_counter() - start:.1f} s from {certificates - certs} "
                    f"certificates, {built - stages} stages, {ticks - work} ticks")


def _dfc_note(stream) -> tuple[bool, str]:
    """Whether every complex of ``stream`` passes ``is_dfc``, and a note."""
    failures = sum(not is_dfc(c).passed for c in stream)
    return not failures, "is_dfc: " + (f"{failures} FAIL" if failures else "ok")


def main() -> int:
    enumeration.complex_from_certificate = _counting_build
    enumeration._WorkMeter.tick = _counting_tick
    enumeration._least = _counting_least
    failed = False
    census = tuple(map(max, zip(*BUDGETS)))
    classes, classes_note = _run(enumerate_pops, census)
    print(f"{census}: census of {len(classes)} classes {classes_note}", flush=True)
    start = time.perf_counter()
    verdicts = [(is_positive_opetope(c).passed, is_dfc(c).passed) for c in classes]
    disagree = sum(zpo != dfc for zpo, dfc in verdicts)
    failed |= bool(disagree)
    print(f"{census}: is_positive_opetope and is_dfc on {len(verdicts)} classes in "
          f"{time.perf_counter() - start:.1f} s; {sum(zpo and dfc for zpo, dfc in verdicts)} "
          f"pass both; {disagree} disagree: {'ok' if not disagree else 'MISMATCH'}", flush=True)
    opetopes = [c for c, (zpo, _) in zip(classes, verdicts) if zpo]
    for max_dim, max_faces in BUDGETS:
        pruned, pruned_note = _run(enumerate_positive_opetopes, (max_dim, max_faces))
        dendritic, dfc_note = _dfc_note(pruned)
        pruned = [canonical_form(c) for c in pruned]
        filtered = [canonical_form(c) for c in opetopes
                    if c.dimension <= max_dim and len(c) <= max_faces]
        failed |= pruned != filtered or not dendritic
        print(f"{(max_dim, max_faces)}: pruned {len(pruned)} opetopes {pruned_note}; "
              f"census filtered {len(filtered)}: "
              f"{'ok' if pruned == filtered else 'MISMATCH'}; {dfc_note}", flush=True)
    clever, clever_note = _run(enumerate_pops, NAIVE_BUDGET)
    naive, naive_note = _run(naive_enumerate_pops, NAIVE_BUDGET)
    clever = [canonical_form(c) for c in clever]
    naive = [canonical_form(c) for c in naive]
    failed |= clever != naive
    print(f"{NAIVE_BUDGET}: enumerated {len(clever)} classes {clever_note}; "
          f"naive recount {len(naive)} {naive_note}: "
          f"{'ok' if clever == naive else 'MISMATCH'}", flush=True)
    for (max_dim, max_faces), (pinned, length) in PINNED.items():
        stream, note = _run(enumerate_positive_opetopes, (max_dim, max_faces))
        digest = hashlib.sha256()
        for c in stream:
            digest.update(repr(canonical_form(c)).encode() + b"\n")
        found = Counter((c.dimension, len(c)) for c in stream)
        expected = {(d, n): tree_opetope_count(d, n)
                    for d in range(4) for n in range(1, max_faces + 1)}
        ok = digest.hexdigest() == pinned and len(stream) == length
        trees = {key: found[key] for key in expected} == expected
        dendritic, dfc_note = _dfc_note(stream)
        failed |= not (ok and trees and dendritic)
        print(f"({max_dim}, {max_faces}): pruned {len(stream)} opetopes {note}; "
              f"pinned digest: {'ok' if ok else 'MISMATCH'}; "
              f"tree counts: {'ok' if trees else 'MISMATCH'}; {dfc_note}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
