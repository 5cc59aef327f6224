import hashlib
import itertools
import json
import random
import tracemalloc

from opetope_kit import (
    FaceComplex,
    build_complex,
    check_disjointness,
    check_globularity,
    check_pencil_linearity,
    check_principality,
    check_strictness,
    is_opetopic_cardinal,
    is_positive_opetope,
    three_one,
    two_cell,
)

from helpers import corpus_fixtures, single_edit_mutations, warshall_closure


def test_globularity_passes(two2, fix_point):
    assert check_globularity(two2).passed
    assert check_globularity(fix_point).passed


def test_globularity_detects_rewired_target(two2):
    dims, target, sources = two2.to_data()
    target["h"] = "x1"
    broken = FaceComplex(dims, target, sources)
    report = check_globularity(broken)
    assert not report.passed
    assert report.violations[0].witnesses == ("alpha",)


def test_strictness_passes(two2):
    assert check_strictness(two2).passed


def test_strictness_two_isolated_points():
    broken = FaceComplex({"a": 0, "b": 0}, {}, {})
    report = check_strictness(broken)
    assert not report.passed
    assert ("a", "b") in [v.witnesses for v in report.violations]


def test_strictness_two_cycle():
    broken = FaceComplex(
        {"a": 0, "b": 0, "f": 1, "g": 1},
        {"f": "b", "g": "a"},
        {"f": ["a"], "g": ["b"]})
    report = check_strictness(broken)
    assert not report.passed
    assert any("plus-cycle" in v.detail for v in report.violations)


def test_disjointness_passes(two2, fix_arrow):
    assert check_disjointness(two2).passed
    assert check_disjointness(fix_arrow).passed


def test_disjointness_counterexample():
    # f1 steps minus into f2 (target x1 is f2's source) while a 2-face
    # also makes f1 step plus into f2
    broken = FaceComplex(
        {"x0": 0, "x1": 0, "x2": 0, "f1": 1, "f2": 1, "a": 2},
        {"f1": "x1", "f2": "x2", "a": "f2"},
        {"f1": ["x0"], "f2": ["x1"], "a": ["f1"]})
    report = check_disjointness(broken)
    assert not report.passed
    assert ("f1", "f2") in [v.witnesses for v in report.violations]


def test_pencil_linearity_passes(two2):
    assert check_pencil_linearity(two2).passed


def test_pencil_linearity_counterexample():
    # two arrows out of the same point, nothing comparing them
    broken = FaceComplex(
        {"x": 0, "y": 0, "z": 0, "f": 1, "g": 1},
        {"f": "y", "g": "z"},
        {"f": ["x"], "g": ["x"]})
    report = check_pencil_linearity(broken)
    assert not report.passed
    assert ("x", "f", "g") in [v.witnesses for v in report.violations]


def test_principality(two2, fix_arrow):
    assert check_principality(two2).passed
    assert check_principality(fix_arrow).passed
    two_points = FaceComplex({"a": 0, "b": 0}, {}, {})
    report = check_principality(two_points)
    assert not report.passed


def test_canonical_opetopes_pass_everything(fix_point, fix_arrow, two2, three1):
    for complex_ in (fix_point, fix_arrow, two_cell(1), two2, three1):
        assert is_opetopic_cardinal(complex_).passed
        assert is_positive_opetope(complex_).passed


def test_aggregate_preserves_witnesses():
    two_points = FaceComplex({"a": 0, "b": 0}, {}, {})
    report = is_positive_opetope(two_points)
    assert {"strictness", "principality"} <= set(report.failed_axioms())


def _killed(dims, target, sources):
    built = build_complex(dims, target, sources)
    if isinstance(built, FaceComplex):
        return not is_positive_opetope(built).passed
    return True


def test_mutation_kill_rate_canonical_cells(fix_point, fix_arrow, two1, two2, three1):
    """Every single edit of a canonical cell must fail validation or an
    axiom check; the edits that survive base validation are the
    interesting ones."""
    for complex_ in (fix_point, fix_arrow, two1, two2, three1):
        for label, dims, target, sources in single_edit_mutations(complex_):
            assert _killed(dims, target, sources), label


def test_mutation_kill_rate_all_small_opetopes():
    """Single edits must be fatal on every opetope with up to nine faces,
    not just the canonical ones."""
    from opetope_kit import EnumerationBudget, enumerate_positive_opetopes

    cells = list(enumerate_positive_opetopes(EnumerationBudget(3, 9)))
    cells += [two_cell(3), three_one()]
    assert len(cells) >= 10
    for complex_ in cells:
        survivors = [label
                     for label, *data in single_edit_mutations(complex_)
                     if not _killed(*data)]
        assert survivors == []


def test_iota_decompositions_on_enumerated_cardinals(small_pops):
    """On every opetopic cardinal the double boundaries decompose into the
    target boundary plus the interior faces, disjointly."""
    from opetope_kit import iota, is_opetopic_cardinal

    cardinals = [c for c in small_pops if is_opetopic_cardinal(c).passed]
    assert cardinals
    seen = 0
    for complex_ in cardinals:
        for a in complex_.faces():
            if complex_.dim(a) < 2:
                continue
            dd, gd = set(), set()
            for b in complex_.delta(a):
                dd |= complex_.delta(b)
                gd.add(complex_.gamma(b))
            gg = {complex_.gamma(complex_.gamma(a))}
            dg = set(complex_.delta(complex_.gamma(a)))
            mid = iota(complex_, a)
            assert gd == gg | mid and not gg & mid
            assert dd == dg | mid and not dg & mid
            seen += 1
    assert seen > 0


# Digest of every zpo report on the (2, 6) classes and on every valid
# single edit of the corpus fixtures, as computed before the axioms were
# split into per-level generators.  Any change to a verdict, a witness, a
# detail string or the order of violations changes it.
ZPO_REPORTS_SHA256 = "d1fbf2f2d629470420a503847d5426c52db24cb3ae0006c311c69d2a266bb0fd"


def test_zpo_reports_are_pinned(small_pops):
    checks = (is_positive_opetope, is_opetopic_cardinal, check_globularity,
              check_strictness, check_disjointness, check_pencil_linearity,
              check_principality)
    complexes = list(small_pops)
    for fixture in corpus_fixtures().values():
        for _, dims, target, sources in single_edit_mutations(fixture):
            built = build_complex(dims, target, sources)
            if isinstance(built, FaceComplex):
                complexes.append(built)
    digest = hashlib.sha256()
    for complex_ in complexes:
        for check in checks:
            report = json.dumps(check(complex_).to_dict(), sort_keys=True)
            digest.update(report.encode("utf-8") + b"\n")
    assert len(complexes) == 334
    assert digest.hexdigest() == ZPO_REPORTS_SHA256


def _truncate(complex_, k):
    dims, target, sources = complex_.to_data()
    kept = {x for x, d in dims.items() if d <= k}
    return FaceComplex({x: dims[x] for x in kept},
                       {x: t for x, t in target.items() if x in kept},
                       {x: s for x, s in sources.items() if x in kept})


def test_settled_violations_ignore_higher_strata(enumerated):
    """What stratum k settles must not depend on anything stacked above
    it, or the enumerator would prune complexes the checker accepts."""
    from opetope_kit.zpo import settled_violations

    levels = 0
    for complex_, _, _ in enumerated:
        for k in range(1, complex_.dimension + 1):
            assert list(settled_violations(_truncate(complex_, k), k)) == \
                list(settled_violations(complex_, k))
            levels += 1
    assert levels > 2000


def test_positive_opetope_check_memory_is_bounded():
    """The closures are stored as one bitmask per face, so the checker's
    peak allocation on a wide cell stays far below one pair per comparison."""
    complex_ = two_cell(600)
    tracemalloc.start()
    try:
        assert is_positive_opetope(complex_).passed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_point_comparability_matches_warshall_oracle():
    """Dimension-0 strictness reports exactly the point pairs that the
    transitive closure of the arrows leaves incomparable, cycles included."""
    rng = random.Random(5077)
    cyclic = 0
    for _ in range(300):
        points = [f"p{i}" for i in range(rng.randint(1, 8))]
        arrows = [tuple(rng.sample(points, 2)) for _ in range(rng.randint(0, 9))
                  if len(points) > 1]
        dims = dict.fromkeys(points, 0)
        dims.update((f"f{i}", 1) for i in range(len(arrows)))
        complex_ = FaceComplex(dims, {f"f{i}": y for i, (_, y) in enumerate(arrows)},
                               {f"f{i}": [x] for i, (x, _) in enumerate(arrows)})
        below = warshall_closure(points, set(arrows))
        cyclic += any((x, x) in below for x in points)
        expected = [(x, y) for x, y in itertools.combinations(sorted(points), 2)
                    if (x, y) not in below and (y, x) not in below]
        reported = [v.witnesses for v in check_strictness(complex_).violations
                    if "not plus-comparable" in v.detail]
        assert reported == expected
    assert cyclic >= 20
