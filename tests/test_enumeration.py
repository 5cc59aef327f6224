import hashlib
import random
from collections import Counter, defaultdict
from itertools import combinations_with_replacement

import pytest

from opetope_kit import (
    BudgetTooLarge,
    EnumerationBudget,
    FaceComplex,
    are_isomorphic,
    arrow,
    build_complex,
    canonical_form,
    enumerate_pops,
    enumerate_positive_opetopes,
    is_dfc,
    is_positive_opetope,
    naive_enumerate_pops,
    point,
    three_cell_from_tree,
    three_one,
    two_cell,
)
from opetope_kit import enumeration
from opetope_kit.enumeration import _least_multisets, _options, _profiles
from opetope_kit.iso import complex_from_certificate
from opetope_kit.zpo import settled_violations

from helpers import OPETOPES_4_9, single_edit_mutations, stacked, tree_opetope_count
from test_equivalence_random import random_tree


def test_budget_validation():
    with pytest.raises(ValueError):
        EnumerationBudget(-1, 5)
    with pytest.raises(ValueError):
        EnumerationBudget(2, 0)


def test_profiles_respect_budget():
    budget = EnumerationBudget(2, 4)
    profiles = list(_profiles(budget, 14))
    assert (1,) in profiles and (4,) in profiles
    assert (2, 1, 1) in profiles
    assert all(sum(p) <= 4 and len(p) <= 3 for p in profiles)
    assert all(all(n >= 1 for n in p) for p in profiles)
    assert profiles == sorted(profiles) and len(profiles) == 14
    with pytest.raises(BudgetTooLarge, match="work limit"):
        next(_profiles(budget, 13))


@pytest.mark.parametrize("options", [[], ["a"], ["a", "b", "c"], _options(("x0", "x1", "x2"), 2)],
                         ids=["none", "one", "three", "dimension-2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_multiset_walk_without_swaps_is_every_multiset(options, n):
    """With no twin swaps, the one multiset walk of both streams yields every
    ``n``-multiset of the options, in lexicographic order."""
    assert list(_least_multisets(options, n, [])) == \
        [list(combo) for combo in combinations_with_replacement(options, n)]


def _random_involution(rng, size):
    image, free = list(range(size)), list(range(size))
    rng.shuffle(free)
    for _ in range(rng.randrange(size // 2 + 1)):
        a, b = free.pop(), free.pop()
        image[a], image[b] = b, a
    return image


@pytest.mark.parametrize("seed", range(8))
def test_multiset_walk_with_swaps_keeps_the_multisets_no_swap_lowers(seed):
    """The walk, which cuts each prefix a swap lowers and grows each swap's
    sorted image of the prefix by one index a step, yields exactly the
    multisets whose whole image no swap sorts below them, in order."""
    rng = random.Random(seed)
    for size in range(13):
        swaps = [_random_involution(rng, size) for _ in range(rng.randrange(4))]
        for n in range(1, 5):
            expected = [list(c) for c in combinations_with_replacement(range(size), n)
                        if not any(sorted(swap[j] for j in c) < list(c) for swap in swaps)]
            assert list(_least_multisets(list(range(size)), n, swaps)) == expected


def test_dim0_enumeration():
    pops = list(enumerate_pops(EnumerationBudget(0, 2)))
    assert len(pops) == 2
    assert [len(p) for p in pops] == [1, 2]
    assert are_isomorphic(pops[0], point()) is not None


def test_dim1_enumeration_classes():
    pops = list(enumerate_pops(EnumerationBudget(1, 3)))
    # point, two points, three points, and the arrow
    assert len(pops) == 4
    assert sum(1 for p in pops if p.dimension == 1) == 1
    with_arrow = [p for p in pops if p.dimension == 1]
    assert are_isomorphic(with_arrow[0], arrow()) is not None


def test_opetope_stream_matches_plain_filter():
    budget = EnumerationBudget(3, 7)
    filtered = [c for c in enumerate_pops(budget)
                if is_positive_opetope(c).passed]
    streamed = list(enumerate_positive_opetopes(budget))
    assert [canonical_form(c) for c in streamed] == \
        [canonical_form(c) for c in filtered]


def test_known_opetopes_appear():
    ops = list(enumerate_positive_opetopes(EnumerationBudget(2, 7)))
    expected = [point(), arrow(), two_cell(1), two_cell(2)]
    assert len(ops) == len(expected)
    for found, known in zip(ops, expected):
        assert are_isomorphic(found, known) is not None


def test_census_regained_at_nine_faces():
    """Frozen regression: positive opetopes by budget.

    At nine faces and dimension three the census finds three shapes: the
    seven-face column over a unary cell, the nine-face cell with a binary
    source, and the nine-face tower of two unary cells.
    """
    ops = list(enumerate_positive_opetopes(EnumerationBudget(3, 9)))
    assert len(ops) == 8
    dim3 = [c for c in ops if c.dimension == 3]
    assert sorted(len(c) for c in dim3) == [7, 9, 9]
    assert sum(1 for c in dim3
               if are_isomorphic(c, three_one()) is not None) == 1


def test_deterministic_stream():
    budget = EnumerationBudget(2, 6)
    first = [canonical_form(c) for c in enumerate_pops(budget)]
    second = [canonical_form(c) for c in enumerate_pops(budget)]
    assert first == second
    assert first == sorted(first, key=lambda c: (sum(c[0]), len(c[0]), c))


def test_enumeration_is_exhaustive_up_to_iso():
    # every complex the naive route finds must be isomorphic to exactly
    # one streamed representative, and vice versa
    budget = EnumerationBudget(2, 5)
    clever = {canonical_form(c) for c in enumerate_pops(budget)}
    naive = {canonical_form(c) for c in naive_enumerate_pops(budget)}
    assert clever == naive


def test_every_stream_member_is_valid_and_within_budget():
    budget = EnumerationBudget(2, 6)
    for complex_ in enumerate_pops(budget):
        assert len(complex_) <= 6
        assert complex_.dimension <= 2
        # eager validation means building a copy cannot fail
        dims, target, sources = complex_.to_data()
        assert FaceComplex(dims, target, sources) == complex_


def test_work_limit_guardrail():
    with pytest.raises(BudgetTooLarge):
        list(enumerate_pops(EnumerationBudget(3, 8), work_limit=50))


def test_work_limit_counts_stages_built():
    # 41 profiles visited, 6 dimension-0 bases and 245 extensions of class
    # representatives
    budget = EnumerationBudget(2, 6)
    assert len(list(enumerate_pops(budget, work_limit=292))) == 57
    with pytest.raises(BudgetTooLarge, match="candidate strata canonicalised"):
        list(enumerate_pops(budget, work_limit=291))


def test_work_limit_counts_assignments_tried():
    """The opetope search ticks once per profile visited and once per
    assignment tried, whether or not a settled axiom rules the stage out
    before it is built; the twin rule's skipped multisets are never formed,
    and no assignment holds an option that fails on its own, so they are
    not tried.  At (3, 8) the smallest limit is the 162 stratum-size
    profiles plus 31 assignments tried, at (4, 9) the 381 profiles plus 243
    assignments; the walk runs out at its last profile.
    The naive recount at (1, 3) visits 6 profiles and tries 9 labelled
    assignments."""
    for budget, smallest, opetopes, stop in (
            ((3, 8), 193, 5, r"work limit of 192 at profile \(8,\) \("),
            ((4, 9), 624, 9, r"work limit of 623 at profile \(9,\) \(")):
        budget = EnumerationBudget(*budget)
        assert len(list(enumerate_positive_opetopes(budget, work_limit=smallest))) == opetopes
        with pytest.raises(BudgetTooLarge, match=stop):
            list(enumerate_positive_opetopes(budget, work_limit=smallest - 1))
    assert len(naive_enumerate_pops(EnumerationBudget(1, 3), work_limit=15)) == 4
    with pytest.raises(BudgetTooLarge, match=r"at profile \(3,\) \("):
        naive_enumerate_pops(EnumerationBudget(1, 3), work_limit=14)


def test_work_limit_env(monkeypatch):
    monkeypatch.setenv("OPETOPE_KIT_WORK_LIMIT", "10")
    with pytest.raises(BudgetTooLarge):
        list(enumerate_pops(EnumerationBudget(2, 6)))
    monkeypatch.setenv("OPETOPE_KIT_WORK_LIMIT", "1000000")
    assert list(enumerate_pops(EnumerationBudget(1, 3)))


def test_negative_work_limit_is_bad_input(monkeypatch):
    with pytest.raises(ValueError, match=">= 0, got -1"):
        list(enumerate_positive_opetopes(EnumerationBudget(2, 6), work_limit=-1))
    monkeypatch.setenv("OPETOPE_KIT_WORK_LIMIT", "-3")
    with pytest.raises(ValueError, match=">= 0, got -3"):
        list(enumerate_pops(EnumerationBudget(2, 6)))
    with pytest.raises(BudgetTooLarge):
        list(enumerate_pops(EnumerationBudget(2, 6), work_limit=0))


def test_equivalence_smoke_on_small_budget(small_pops):
    for complex_ in small_pops:
        assert is_dfc(complex_).passed == is_positive_opetope(complex_).passed


# SHA-256 over the canonical forms of enumerate_positive_opetopes, one repr
# per line, computed before the search skipped any profile.  No opetope has
# 10 faces, so these are also the streams at 9 faces.
STREAM_SHA256 = {
    (3, 10): "9811ceb160270fac6de3e6f134d8d193d8e8196406212a4fbb3a8d4ca33c07b6",
    (4, 10): "9b704a370f58066ca248ad98aa1868aaf0e14ac2c7ac9c37cf809cb96d12c7e1",
}


def _stream_digest(certificates):
    digest = hashlib.sha256()
    for certificate in certificates:
        digest.update(repr(certificate).encode() + b"\n")
    return digest.hexdigest()


def test_opetope_streams_are_pinned():
    for budget, count in (((3, 10), 8), ((4, 10), 9)):
        stream = [canonical_form(c)
                  for c in enumerate_positive_opetopes(EnumerationBudget(*budget))]
        assert len(stream) == count
        assert _stream_digest(stream) == STREAM_SHA256[budget], budget
        # the tree-count oracle, at every dimension <= 3 and face count in budget
        found = Counter((len(profile) - 1, sum(profile)) for profile, _ in stream)
        expected = {(d, n): tree_opetope_count(d, n)
                    for d in range(4) for n in range(1, budget[1] + 1)}
        assert {key: found[key] for key in expected} == expected, budget


# SHA-256 in the same format over the enumerate_pops streams, computed
# while every candidate was still canonicalised and deduplicated globally.
CENSUS_SHA256 = {
    (2, 6): "cc6c40be1c5a6380ab978897022e3905265f5901b7a4ffb8638af92d88d9ee08",
    (3, 8): "92a83e67a9cbbdf71b746212175eaf3ff5dade1c3673d47317201b38f8990e7c",
}


def test_census_streams_are_pinned(small_pops, enumerated):
    for budget, stream in (((2, 6), small_pops), ((3, 8), [c for c, _, _ in enumerated])):
        assert _stream_digest(canonical_form(c) for c in stream) == CENSUS_SHA256[budget], budget


def _euler_characteristic(complex_):
    return sum((-1) ** complex_.dim(x) for x in complex_.faces())


def test_known_opetopes_have_euler_characteristic_one(enumerated, opetopes_4_9):
    """The evidence for the search's profile rule, gathered without the
    search: the (3, 8) census filtered by both suites, the pinned (4, 9)
    stream, tree-built 3-cells and the two_cell ladder."""
    census = [c for c, dfc, zpo in enumerated if dfc.passed and zpo.passed]
    assert len(census) == 5
    assert _stream_digest(OPETOPES_4_9) == STREAM_SHA256[(4, 10)]
    trees = [three_cell_from_tree(random_tree(seed)) for seed in range(60)]
    ladder = [two_cell(n) for n in range(1, 51)]
    for complex_ in [*census, *opetopes_4_9, *trees, *ladder]:
        assert _euler_characteristic(complex_) == 1
        assert len(complex_.stratum(complex_.dimension)) == 1


def _recorded_builds(monkeypatch):
    """The list that each complex the walk builds from a certificate is
    appended to, in call order."""
    built = []

    def recording(cert):
        built.append(complex_from_certificate(cert))
        return built[-1]

    monkeypatch.setattr(enumeration, "complex_from_certificate", recording)
    return built


@pytest.mark.parametrize("run, opetopes_only", [
    (lambda: list(enumerate_positive_opetopes(EnumerationBudget(4, 8))), True),
    (lambda: list(enumerate_pops(EnumerationBudget(3, 7))), False),
], ids=["opetopes-4-8", "pops-3-7"])
def test_each_kept_class_is_its_canonical_representative(monkeypatch, run, opetopes_only):
    """Each class that the walk keeps is ``complex_from_certificate`` of its
    canonical form, built once, and the stream yields those same objects."""
    built, kept = _recorded_builds(monkeypatch), {}
    classes = enumeration._classes

    def recording_classes(*args, **kwargs):
        for found in classes(*args, **kwargs):
            kept.update(found)
            yield found

    monkeypatch.setattr(enumeration, "_classes", recording_classes)
    stream = run()
    assert len({canonical_form(c) for c in built}) == len(built)
    assert {id(c) for c in kept.values()} <= {id(c) for c in built}
    assert opetopes_only or len(kept) == len(built)
    for cert, complex_ in kept.items():
        assert canonical_form(complex_) == cert and complex_ == complex_from_certificate(cert)
    expected = [complex_ for cert, complex_ in
                sorted(kept.items(), key=lambda item: (sum(item[0][0]), len(item[0][0]), item[0]))
                if not opetopes_only or is_positive_opetope(complex_).passed]
    assert len(stream) == len(expected) and all(a is b for a, b in zip(stream, expected))


def test_settled_axioms_are_decided_before_the_stage_is_built(monkeypatch):
    """For every option the (4, 9) search drops before its multiset walk,
    the checker finds each violation the filter reads on the one-face stage
    stacked from it; for every assignment it tries, the first violation
    that the search reads from the parent and the assignment is the first
    one the checker finds on the stage built from them.  The search builds
    one complex per class of the stages where there is none, when it meets
    the first of them.  Each of the five axioms rejects some option or
    assignment: every dropped option fails globularity, which the filter
    reads first, and most of them disjointness too."""
    tried, dropped, built = [], [], _recorded_builds(monkeypatch)
    real, real_face = enumeration.level_violations, enumeration.face_violations

    def build_anyway(level):
        stage = stacked(level.below, level.names, level.covers)
        make = next(real(level), None)
        tried.append((stage, make and make()))
        return real(level)

    def build_face_anyway(k, parent, name, option, minus):
        made = [make() for make in real_face(k, parent, name, option, minus)]
        if made:
            dropped.append((stacked(parent, (name,), [option]), made))
        return real_face(k, parent, name, option, minus)

    monkeypatch.setattr(enumeration, "level_violations", build_anyway)
    monkeypatch.setattr(enumeration, "face_violations", build_face_anyway)
    list(enumerate_positive_opetopes(EnumerationBudget(4, 9)))

    for stage, made in dropped:
        assert set(made) <= set(settled_violations(stage, stage.dimension))
    for stage, violation in tried:
        assert violation == next(settled_violations(stage, stage.dimension), None)
    firsts = {}
    for stage, violation in tried:
        if violation is None:
            firsts.setdefault(canonical_form(stage), stage)
    assert [canonical_form(c) for c in built if c.dimension] == list(firsts)
    rejected = Counter(violation.axiom for _, violation in tried if violation is not None)
    assert rejected == {"principality": 117, "strictness": 59, "pencil-linearity": 9}
    assert Counter((stage.dimension, made[0].axiom) for stage, made in dropped) == \
        {(2, "globularity"): 214, (3, "globularity"): 57}
    assert Counter(axiom for _, made in dropped for axiom in {v.axiom for v in made}) == \
        {"globularity": 271, "disjointness": 236}
    assert len(tried) == 239 and len(firsts) == 33


def _kept_per_parent(monkeypatch, budget):
    """The classes of the extensions that pass the opetope search's settled
    axioms, keyed by the class of their parent, and the number of
    assignments it tries."""
    kept, tried = defaultdict(set), Counter()
    real = enumeration.level_violations

    def recording(level):
        tried["assignments"] += 1
        if next(real(level), None) is None:
            stage = stacked(level.below, level.names, level.covers)
            kept[canonical_form(level.below)].add(canonical_form(stage))
        return real(level)

    monkeypatch.setattr(enumeration, "level_violations", recording)
    list(enumerate_positive_opetopes(budget))
    return kept, tried["assignments"]


def test_twin_rule_keeps_every_class_of_every_parent(monkeypatch):
    """Skipping the multisets that a swap of two twin top faces lowers
    loses no class: at (4, 9) every parent keeps the same extension classes
    as when no two faces are twins, from fewer assignments tried."""
    budget = EnumerationBudget(4, 9)
    # each run in its own context, so the second does not wrap the first's recorder
    with monkeypatch.context() as patch:
        kept, tried = _kept_per_parent(patch, budget)
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "_twin_swaps", lambda parent, top, options: [])
        unpruned, tried_unpruned = _kept_per_parent(patch, budget)
    assert kept == unpruned and len(kept) > 1
    assert tried < tried_unpruned == 2076


def _search_record(monkeypatch, budget):
    """The opetope search's run at ``budget``: the assignments that pass
    its settled axioms, by parent; the certificates it computes, in order;
    the stages it builds; its stream; and the assignments it tries."""
    passing, certificates, tried = defaultdict(set), [], Counter()
    built = _recorded_builds(monkeypatch)
    real, least = enumeration.level_violations, enumeration._least

    def recording(level):
        tried["assignments"] += 1
        if not any(real(level)):
            passing[level.below].add(tuple(level.covers))
        return real(level)

    def recording_least(index):
        found = least(index)
        certificates.append(found[0])
        return found

    monkeypatch.setattr(enumeration, "level_violations", recording)
    monkeypatch.setattr(enumeration, "_least", recording_least)
    stream = [canonical_form(c) for c in enumerate_positive_opetopes(EnumerationBudget(*budget))]
    return (passing, certificates, [canonical_form(c) for c in built], stream), tried["assignments"]


@pytest.mark.parametrize("budget", [(3, 9), (4, 9), (3, 11)])
def test_face_filter_keeps_every_passing_assignment(monkeypatch, budget):
    """Dropping the options that fail on their own before the multiset walk
    loses nothing: the walk that keeps every option finds the same passing
    assignments for each parent, and the same certificates, stages and
    stream, from more assignments tried."""
    with monkeypatch.context() as patch:
        filtered, tried = _search_record(patch, budget)
    with monkeypatch.context() as patch:
        patch.setattr(enumeration, "face_violations", lambda *args: iter(()))
        unfiltered, tried_unfiltered = _search_record(patch, budget)
    assert filtered == unfiltered and tried < tried_unfiltered


def _built_edits(cells):
    return [built for cell in cells for _, *data in single_edit_mutations(cell)
            if isinstance(built := build_complex(*data), FaceComplex)]


def test_near_misses_of_the_pinned_opetopes_get_one_verdict(opetopes_4_9):
    """Every single edit of the (4, 9) opetopes, and every single edit of
    those edits, that passes base validation gets the same verdict from the
    dendritic and the positive-opetope suites.  Some double edits land on
    an opetope again, so both verdicts occur."""
    single = _built_edits(opetopes_4_9)
    double = _built_edits(single)
    assert (len(single), len(double)) == (28, 212)
    verdicts = [(is_dfc(c).passed, is_positive_opetope(c).passed) for c in single + double]
    assert all(dfc == zpo for dfc, zpo in verdicts)
    assert sum(zpo for _, zpo in verdicts) == 17
