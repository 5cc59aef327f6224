import hashlib
import random

from opetope_kit import (
    EnumerationBudget,
    FaceComplex,
    are_isomorphic,
    build_complex,
    canonical_complex,
    canonical_form,
    enumerate_pops,
    enumerate_positive_opetopes,
    enumeration,
    iso,
    three_cell_from_tree,
    two_cell,
    validate_morphism,
)
from opetope_kit.core import Morphism
from opetope_kit.iso import canonical_labeling, complex_from_certificate

from helpers import (
    OPETOPES_4_9,
    all_relabelings,
    arrow_cycles,
    brute_force_isomorphic,
    corpus_fixtures,
    disjoint_arrows,
    seeded_relabel,
    single_edit_mutations,
    stacked,
)
from test_equivalence_random import random_tree


def test_renamed_complexes_are_isomorphic(two2):
    renamed = two2.relabel({n: n + "_renamed" for n in two2.faces()})
    witness = are_isomorphic(two2, renamed)
    assert witness is not None
    assert witness == {n: n + "_renamed" for n in two2.faces()}


def test_witness_is_a_valid_morphism(two2, three1):
    for complex_ in (two2, three1):
        shuffled = complex_.relabel(
            {n: f"m{i}" for i, n in enumerate(reversed(complex_.faces()))})
        witness = are_isomorphic(complex_, shuffled)
        assert witness is not None
        assert validate_morphism(Morphism(complex_, shuffled, witness)).passed


def test_different_arities_not_isomorphic():
    assert are_isomorphic(two_cell(2), two_cell(3)) is None


def test_same_profile_not_isomorphic():
    # both have two points and two parallel 1-faces, but the second pair
    # shares direction while the first opposes it
    parallel = FaceComplex(
        {"a": 0, "b": 0, "f": 1, "g": 1},
        {"f": "b", "g": "b"}, {"f": ["a"], "g": ["a"]})
    opposed = FaceComplex(
        {"a": 0, "b": 0, "f": 1, "g": 1},
        {"f": "b", "g": "a"}, {"f": ["a"], "g": ["b"]})
    assert are_isomorphic(parallel, opposed) is None


def test_canonical_form_stable_under_relabeling(two2, fix_arrow, three1):
    for complex_ in (fix_arrow, two2, three1):
        base = canonical_form(complex_)
        for mapping in all_relabelings(complex_):
            assert canonical_form(complex_.relabel(mapping)) == base


def test_canonical_complex_is_fixed_point(two2):
    canon = canonical_complex(two2)
    assert canonical_form(canon) == canonical_form(two2)
    assert canonical_complex(canon) == canon
    assert complex_from_certificate(canonical_form(two2)) == canon


def test_iso_is_equivalence_relation(small_pops):
    sample = small_pops[:25]
    for left in sample:
        assert are_isomorphic(left, left) is not None
    for left in sample:
        for right in sample[:10]:
            forward = are_isomorphic(left, right)
            backward = are_isomorphic(right, left)
            assert (forward is None) == (backward is None)


def test_enumerated_classes_pairwise_distinct(small_pops):
    certs = [canonical_form(c) for c in small_pops]
    assert len(set(certs)) == len(certs)


def test_interchangeable_faces_fast_path():
    # eight isolated points: the branch-once shortcut must still label all
    dust = FaceComplex({f"p{i}": 0 for i in range(8)}, {}, {})
    cert = canonical_form(dust)
    assert cert[0] == (8,)
    renamed = dust.relabel({f"p{i}": f"q{7 - i}" for i in range(8)})
    assert canonical_form(renamed) == cert


def _complex_of(index):
    """The complex whose faces ``index`` numbers."""
    names, offsets = index.names, index.offsets
    faces = {x: k for k in range(len(offsets) - 1) for x in names[offsets[k]:offsets[k + 1]]}
    upper = range(offsets[1], len(names))
    return FaceComplex(faces, {names[x]: names[index.target[x]] for x in upper},
                       {names[x]: {names[y] for y in index.sources[x]} for x in upper})


def _census_without_twin_swaps(monkeypatch, budget):
    """The census at ``budget`` with the twin rule off in the walk, so the
    stages it canonicalises stay fixed whatever that rule prunes."""
    monkeypatch.setattr(enumeration, "_twin_swaps", lambda parent, top, options: [])
    return list(enumerate_pops(budget))


def _canonicalised_stages(monkeypatch, budget):
    """Every stage the enumerator canonicalises, in call order, rebuilt from
    the index it takes the certificate of."""
    stages = []
    real = enumeration._least

    def recording(index):
        stages.append(_complex_of(index))
        return real(index)

    monkeypatch.setattr(enumeration, "_least", recording)
    _census_without_twin_swaps(monkeypatch, budget)
    monkeypatch.undo()
    return stages


# SHA-256 over canonical_labeling (the certificate and the sorted labels,
# one repr per line), computed with the canonical_labeling whose refinement
# still recomputed every face's signature in every round and whose search
# pruned only literally interchangeable faces (iso.py at commit b661dfe,
# loaded on its own); the current one gives the same digest.
LABELLING_SHA256 = "ec8e37caa9e556157daa0b5a27418d811c6933b0c6919972838a15cf2b9c3599"


def test_canonical_labellings_are_pinned(monkeypatch):
    stages = _canonicalised_stages(monkeypatch, EnumerationBudget(3, 7))
    assert len(stages) == 1295
    rng = random.Random(2014)
    relabelled = [seeded_relabel(c, rng.randrange(10**6)) for c in stages[::7]]
    trees = [three_cell_from_tree(random_tree(seed)) for seed in range(20)]
    complexes = [*stages, *relabelled, *corpus_fixtures().values(),
                 *(two_cell(n) for n in range(1, 61)), *trees,
                 *(disjoint_arrows(m) for m in range(1, 7))]
    digest = hashlib.sha256()
    for complex_ in complexes:
        cert, labels = canonical_labeling(complex_)
        digest.update(repr((cert, sorted(labels.items()))).encode() + b"\n")
    assert digest.hexdigest() == LABELLING_SHA256


def _whole_index_fields(complex_):
    """The fields of ``iso._Index``, numbered from the whole complex at once."""
    names = complex_.faces()
    position = {x: i for i, x in enumerate(names)}
    offsets = [0]
    for k in range(complex_.dimension + 1):
        offsets.append(offsets[-1] + len(complex_.stratum(k)))
    points = offsets[1]
    target = [-1] * points + [position[complex_.gamma(x)] for x in names[points:]]
    sources = [()] * points + [tuple(sorted(position[y] for y in complex_.delta(x)))
                               for x in names[points:]]
    plus = [tuple(position[w] for w in complex_.pencils(x)[0]) for x in names]
    minus = [tuple(position[w] for w in complex_.pencils(x)[1]) for x in names]
    around = [sources[x] + plus[x] + minus[x] + ((target[x],) if x >= points else ())
              for x in range(len(names))]
    return names, offsets, target, sources, plus, minus, around


def _fields(index):
    return tuple(getattr(index, field) for field in iso._Index.__slots__)


def test_stratum_folded_index_equals_the_whole_complex_numbering():
    for complex_ in (two_cell(60), three_cell_from_tree(random_tree(7))):
        expected = _whole_index_fields(complex_)
        assert _fields(iso._Index(complex_)) == expected
        folded = iso._Index()
        for k in range(complex_.dimension + 1):
            stratum = complex_.stratum(k)
            folded = folded.extend(stratum, [(complex_.gamma(x), complex_.delta(x))
                                             for x in stratum] if k else ())
        assert _fields(folded) == expected


def _stages_beside_their_index(monkeypatch, run):
    """For each candidate the enumerator takes a certificate of, the stage
    that stacks its assignment on the parent, and the extended index."""
    pairs = []

    class Recording(iso._Index):
        __slots__ = ("parent",)

        def __init__(self, complex_=None):
            super().__init__(complex_)
            self.parent = complex_

        def extend(self, names, covers):
            pairs.append((stacked(self.parent, names, covers), super().extend(names, covers)))
            return pairs[-1][1]

    monkeypatch.setattr(enumeration, "_Index", Recording)
    run()
    monkeypatch.undo()
    return pairs


def test_certificate_from_the_parent_index_is_the_canonical_form_of_the_stage(monkeypatch):
    """Every candidate of the census at (3, 7) and of the opetope search at
    (4, 9) gets, from its parent's index plus the assignment, the numbering
    and the canonical form of the stage that the assignment stacks on the
    parent; a dimension-0 base is stacked on the empty index."""
    for run, candidates in (
            (lambda: _census_without_twin_swaps(monkeypatch, EnumerationBudget(3, 7)), 1295),
            (lambda: list(enumerate_positive_opetopes(EnumerationBudget(4, 9))), 58)):
        pairs = _stages_beside_their_index(monkeypatch, run)
        assert len(pairs) == candidates
        for stage, index in pairs:
            assert _fields(index) == _whole_index_fields(stage)
            assert iso._least(index)[0] == canonical_form(stage)


# The same digest over unions of directed arrow cycles, which colour
# refinement cannot tell apart, so the search branches between siblings
# that no automorphism relates.  Computed with the same code as above.
CYCLES_SHA256 = "4e98c4dceff03f291913f0d7139e7ec3d66647a7f7257cda7e666fb288aa806b"


def test_cycle_union_labellings_are_pinned():
    digest = hashlib.sha256()
    for lengths in [(2, 2), (3, 3), (2, 4), (3, 3, 6), (6, 6), (4, 4, 4),
                    (2, 2, 2, 6), (3, 6, 3), (5, 5, 2, 3)]:
        cycles = arrow_cycles(*lengths)
        for complex_ in (cycles, *(seeded_relabel(cycles, seed) for seed in range(3))):
            cert, labels = canonical_labeling(complex_)
            digest.update(repr((cert, sorted(labels.items()))).encode() + b"\n")
    assert digest.hexdigest() == CYCLES_SHA256


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_symmetric_complex_search_is_pruned_by_automorphisms(monkeypatch):
    m = 12
    arrows = disjoint_arrows(m)
    leaves = _count_calls(monkeypatch, iso._Search, "leaf")
    cert = canonical_form(arrows)
    assert 1 <= len(leaves) <= m * m
    for seed in range(5):
        leaves.clear()
        assert canonical_form(seeded_relabel(arrows, seed)) == cert
        assert len(leaves) <= m * m


def test_colour_refinement_alone_discretises_opetopes(monkeypatch):
    individualised = _count_calls(monkeypatch, iso, "_individualize")
    complexes = [*(complex_from_certificate(c) for c in OPETOPES_4_9),
                 *(three_cell_from_tree(random_tree(seed)) for seed in range(60)),
                 *(two_cell(n) for n in range(1, 51))]
    for complex_ in complexes:
        canonical_labeling(complex_)
    assert individualised == []


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    """Each level of the search on isolated points individualises one
    point and leaves one child, so the path is as long as the complex."""
    points = FaceComplex({f"p{i:04d}": 0 for i in range(1500)}, {}, {})
    assert canonical_form(points) == ((1500,), ())
    assert are_isomorphic(points, seeded_relabel(points, 7)) is not None


def _oracle_pairs(classes):
    """Equal-profile pairs of distinct classes, each class against a seeded
    relabelling of itself, and each class against its valid single edits."""
    for i, left in enumerate(classes):
        profile = [len(left.stratum(k)) for k in range(left.dimension + 1)]
        for right in classes[i + 1:]:
            if [len(right.stratum(k)) for k in range(right.dimension + 1)] == profile:
                yield left, right
        yield left, seeded_relabel(left, i)
        for _, faces, target, sources in single_edit_mutations(left):
            edited = build_complex(faces, target, sources)
            if isinstance(edited, FaceComplex):
                yield left, edited


def test_are_isomorphic_agrees_with_brute_force(small_pops):
    answers = []
    for left, right in _oracle_pairs(small_pops):
        witness = are_isomorphic(left, right)
        answers.append(brute_force_isomorphic(left, right))
        assert (witness is not None) == answers[-1]
        if witness is not None:
            assert validate_morphism(Morphism(left, right, witness)).passed
    assert answers.count(True) > len(small_pops)
    assert answers.count(False) > len(small_pops)
