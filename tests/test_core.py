import hashlib
import json
import random
import tracemalloc
import types
from collections import defaultdict

import pytest

import opetope_kit
from opetope_kit import (
    AxiomReport,
    FaceComplex,
    InvalidComplex,
    Morphism,
    UnknownFaceReference,
    Violation,
    ZeroDimensionalFace,
    build_complex,
    compose_morphisms,
    from_hypergraph_view,
    identity_morphism,
    to_hypergraph_view,
    two_cell,
    validate_complex_data,
    validate_morphism,
)
from opetope_kit.errors import DimensionTooHigh

from helpers import corpus_fixtures, single_edit_mutations


def failed_axioms(result):
    assert isinstance(result, AxiomReport)
    return set(result.failed_axioms())


def test_point_is_valid(fix_point):
    assert len(fix_point) == 1
    assert fix_point.dimension == 0


def test_arrow_is_valid(fix_arrow):
    assert fix_arrow.gamma("f") == "y"
    assert fix_arrow.delta("f") == frozenset({"x"})


def test_two_source_dim1_face_rejected():
    result = build_complex(
        {"x": 0, "y": 0, "f": 1}, {"f": "y"}, {"f": ["x", "y"]})
    assert "Delta0NotFunctional" in failed_axioms(result)
    # y is also the target, so the sign clash is reported too
    assert "SignClash" in failed_axioms(result)


def test_sign_clash_reported(two2):
    dims, target, sources = two2.to_data()
    sources["alpha"] = sources["alpha"] | {"h"}
    result = build_complex(dims, target, sources)
    report = failed_axioms(result)
    assert "SignClash" in report
    witnesses = [v.witnesses for v in result.violations if v.axiom == "SignClash"]
    assert ("h", "alpha") in witnesses


def test_missing_and_empty_and_duplicates():
    result = build_complex({"x": 0, "f": 1}, {}, {"f": []})
    assert {"MissingTarget", "EmptySources"} <= failed_axioms(result)

    result = build_complex([("x", 0), ("x", 0)], {}, {})
    assert "DuplicateFace" in failed_axioms(result)

    result = build_complex({"x": 0, "y": 0, "f": 1}, {"f": "y"}, {"f": ["x", "x"]})
    assert "DuplicateSource" in failed_axioms(result)

    result = build_complex({}, {}, {})
    assert "EmptyComplex" in failed_axioms(result)


def test_grading_and_unknown_references():
    result = build_complex({"x": 0, "f": 1, "g": 1}, {"f": "g"}, {"f": ["x"]})
    report = failed_axioms(result)
    assert "GradingViolation" in report  # target g has dim 1, not 0
    assert "MissingTarget" in report     # g itself lacks target data

    result = build_complex({"x": 0, "y": 0, "f": 1}, {"f": "zz"}, {"f": ["x"]})
    assert "UnknownFaceReference" in failed_axioms(result)

    result = build_complex({"x": 0, "y": 0}, {"x": "y"}, {})
    assert "GradingViolation" in failed_axioms(result)  # dim-0 target entry


def test_eager_validation_raises():
    with pytest.raises(InvalidComplex) as err:
        FaceComplex({"x": 0, "f": 1}, {"f": "x"}, {})
    assert not err.value.report.passed


def test_zero_dimensional_face_queries(two2):
    for point_ in two2.stratum(0):
        with pytest.raises(ZeroDimensionalFace):
            two2.delta(point_)
        with pytest.raises(ZeroDimensionalFace):
            two2.gamma(point_)
        assert two2.downset(point_) == frozenset({point_})
        assert two2.covers(point_) == ()
        for y in two2.faces():
            assert two2.cover_sign(y, point_) is None
    with pytest.raises(UnknownFaceReference):
        two2.delta("nope")


UNKNOWN_NAME_QUERIES = {
    "dim": lambda c: c.dim("nope"),
    "gamma": lambda c: c.gamma("nope"),
    "delta": lambda c: c.delta("nope"),
    "iterated_target": lambda c: c.iterated_target("nope", 0),
    "cover_sign(nope, x)": lambda c: c.cover_sign("nope", "f1"),
    "cover_sign(y, nope)": lambda c: c.cover_sign("x0", "nope"),
    "cover_sign(nope, nope2)": lambda c: c.cover_sign("nope", "nope2"),
    "covers": lambda c: c.covers("nope"),
    "cofaces": lambda c: c.cofaces("nope"),
    "pencils": lambda c: c.pencils("nope"),
    "downset": lambda c: c.downset("nope"),
}


@pytest.mark.parametrize("query", sorted(UNKNOWN_NAME_QUERIES))
def test_accessors_reject_unknown_names(two2, query):
    with pytest.raises(UnknownFaceReference) as err:
        UNKNOWN_NAME_QUERIES[query](two2)
    assert str(err.value) == "unknown face 'nope'"


def test_iterated_target(two2):
    assert two2.iterated_target("alpha", 0) == "x2"
    assert two2.iterated_target("alpha", 2) == "alpha"
    assert two2.iterated_target("f1", 0) == "x1"
    with pytest.raises(DimensionTooHigh):
        two2.iterated_target("f1", 2)


def test_covers_and_cofaces(two2):
    assert two2.cover_sign("x0", "f1") == "-"
    assert two2.cover_sign("x1", "f1") == "+"
    assert two2.cover_sign("x0", "f2") is None
    assert two2.covers("alpha") == (("f1", "-"), ("f2", "-"), ("h", "+"))
    assert ("alpha", "-") in two2.cofaces("f1")


def test_pencils_match_a_scan_of_the_stratum_above(enumerated, tree_fixtures):
    """Each pencil, and ``cofaces`` as their signed merge, equals a scan of
    the faces one dimension up."""
    complexes = [complex_ for complex_, _, _ in enumerated]
    complexes += [tree_fixtures[name] for name in sorted(tree_fixtures)]
    complexes += [two_cell(n) for n in range(1, 7)]
    for complex_ in complexes:
        for y in complex_.faces():
            above = complex_.stratum(complex_.dim(y) + 1)
            targets = tuple(x for x in above if complex_.gamma(x) == y)
            sources = tuple(x for x in above if y in complex_.delta(x))
            assert complex_.pencils(y) == (targets, sources)
            assert complex_.cofaces(y) == tuple(
                (x, complex_.cover_sign(y, x)) for x in above if x in targets + sources)


def test_downset(two2):
    assert two2.downset("alpha") == frozenset(two2.faces())
    assert two2.downset("f1") == frozenset({"f1", "x0", "x1"})


def test_structural_equality_and_hash(two2):
    dims, target, sources = two2.to_data()
    clone = FaceComplex(dims, target, sources)
    assert clone == two2
    assert hash(clone) == hash(two2)
    assert clone != two2.relabel({n: n + "z" for n in two2.faces()})


def _shuffled(rng, mapping):
    items = list(mapping.items())
    rng.shuffle(items)
    return items


def test_equality_ignores_input_order(small_pops):
    rng = random.Random(3571)
    complexes = [*corpus_fixtures().values(), *small_pops]
    for complex_ in complexes:
        dims, target, sources = complex_.to_data()
        for _ in range(3):
            faces = _shuffled(rng, dims)
            clone = FaceComplex(
                faces if rng.random() < 0.5 else dict(faces),
                dict(_shuffled(rng, target)),
                {x: list(s) for x, s in _shuffled(rng, sources)})
            assert clone == complex_
            assert hash(clone) == hash(complex_)
        for _, *data in single_edit_mutations(complex_):
            built = build_complex(*data)
            if isinstance(built, FaceComplex):
                assert built != complex_
    points = FaceComplex({"x": 0, "y": 0, "z": 0, "f": 1},
                         {"f": "y"}, {"f": {"x"}})
    raised = FaceComplex({"x": 0, "y": 0, "z": 1, "f": 1},
                         {"f": "y", "z": "y"}, {"f": {"x"}, "z": {"x"}})
    assert points != raised
    assert FaceComplex({"x": 0}, {}, {}) != FaceComplex({"y": 0}, {}, {})


def test_hypergraph_view_round_trip(two2, fix_arrow, three1):
    for complex_ in (two2, fix_arrow, three1):
        assert from_hypergraph_view(to_hypergraph_view(complex_)) == complex_


def test_hypergraph_view_round_trip_other_direction():
    from opetope_kit import HypergraphView

    view = HypergraphView(
        strata={0: ("x", "y"), 1: ("f",)},
        gamma={0: {"f": "y"}},
        delta={0: {"f": frozenset({"x"})}})
    rebuilt = from_hypergraph_view(view)
    assert to_hypergraph_view(rebuilt) == view


def test_hypergraph_view_tables(fix_arrow):
    view = to_hypergraph_view(fix_arrow)
    assert view.gamma[0] == {"f": "y"}
    assert view.delta[0] == {"f": frozenset({"x"})}


def test_view_missing_target_entry(two2):
    view = to_hypergraph_view(two2)
    del view.gamma[1]["alpha"]
    result = from_hypergraph_view(view)
    assert "MissingTarget" in failed_axioms(result)


def test_identity_morphism_validates(two2, three1):
    for complex_ in (two2, three1):
        assert validate_morphism(identity_morphism(complex_)).passed


def arrow_into_two2(fix_arrow, two2):
    return Morphism(fix_arrow, two2, {"x": "x0", "y": "x1", "f": "f1"})


def test_good_embedding_validates(fix_arrow, two2):
    assert validate_morphism(arrow_into_two2(fix_arrow, two2)).passed


def test_target_commuting_failure(fix_arrow, two2):
    bad = Morphism(fix_arrow, two2, {"x": "x0", "y": "x2", "f": "f1"})
    report = validate_morphism(bad)
    assert not report.passed
    assert "target-commuting" in report.failed_axioms()


def test_dimension_failure(fix_arrow, two2):
    bad = Morphism(fix_arrow, two2, {"x": "x0", "y": "f1", "f": "f1"})
    assert "dimension-preserving" in validate_morphism(bad).failed_axioms()


def test_source_bijection_failure(two2):
    # squashing f2 onto f1 collapses the two sources of alpha
    squash = dict({n: n for n in two2.faces()}, f2="f1")
    report = validate_morphism(Morphism(two2, two2, squash))
    assert "source-bijective" in report.failed_axioms()


def test_morphism_totality_and_unknowns(fix_arrow, two2):
    with pytest.raises(UnknownFaceReference):
        validate_morphism(Morphism(fix_arrow, two2, {"x": "x0"}))
    with pytest.raises(UnknownFaceReference):
        validate_morphism(Morphism(
            fix_arrow, two2, {"x": "x0", "y": "x1", "f": "zz"}))


def test_composition_validates(fix_arrow, two2, three1):
    first = arrow_into_two2(fix_arrow, two2)
    inclusion = {n: n for n in two2.faces()}
    second = Morphism(two2, three1, inclusion)
    assert validate_morphism(second).passed
    composed = compose_morphisms(first, second)
    assert validate_morphism(composed).passed
    assert composed.mapping == {"x": "x0", "y": "x1", "f": "f1"}


def test_morphism_iso_onto_downward_closure(fix_arrow, two2, three1):
    # with a dendritic source, a valid morphism embeds onto the downward
    # closure of the image of its greatest element
    cases = [
        arrow_into_two2(fix_arrow, two2),
        Morphism(two2, three1, {n: n for n in two2.faces()}),
        Morphism(two2, three1, dict({n: n for n in two2.faces()}, alpha="beta")),
    ]
    for morphism in cases:
        assert validate_morphism(morphism).passed
        image = {morphism.mapping[a] for a in morphism.source.faces()}
        assert len(image) == len(morphism.source.faces())
        top_image = morphism.mapping[morphism.source.faces()[-1]]
        assert image == set(morphism.target.downset(top_image))


def test_covers_raise_dimension_by_one(small_pops):
    # the order generated by covers is graded, hence antisymmetric
    for complex_ in small_pops:
        for x in complex_.faces():
            for y, _ in complex_.covers(x):
                assert complex_.dim(y) == complex_.dim(x) - 1
            assert all(complex_.dim(z) <= complex_.dim(x)
                       for z in complex_.downset(x))


def _base(kind):
    if kind == "points":
        return FaceComplex({"x": 0, "y": 0, "z": 0}, {}, {})
    return FaceComplex({"x0": 0, "x1": 0, "f1": 1, "h": 1},
                       {"f1": "x1", "h": "x1"}, {"f1": {"x0"}, "h": {"x0"}})


# A new top stratum for a built complex: the axioms it fails, base, face
# pairs, target, sources.
NEW_STRATA = {
    "valid": ((), "edges", [("a", 2), ("b", 2)], {"a": "h", "b": "f1"},
              {"a": ["f1"], "b": ["h"]}),
    "grading": (("GradingViolation",), "edges", [("a", 2)], {"a": "x0"}, {"a": ["f1", "x1"]}),
    "duplicate-new": (("DuplicateFace",), "edges", [("a", 2), ("a", 2)], {"a": "h"},
                      {"a": ["f1"]}),
    "duplicate-old": (("DuplicateFace",), "edges", [("f1", 2), ("a", 2)], {"a": "h"},
                      {"a": ["f1"]}),
    "unknown": (("UnknownFaceReference",), "edges", [("a", 2)], {"a": "nope"},
                {"a": ["f1", "zz"], "qq": ["h"]}),
    "empty-sources": (("EmptySources",), "edges", [("a", 2), ("b", 2)], {"a": "h", "b": "h"},
                      {"a": []}),
    "missing-target": (("MissingTarget",), "edges", [("a", 2)], {}, {"a": ["f1"]}),
    "sign-clash": (("SignClash",), "edges", [("a", 2)], {"a": "h"}, {"a": ["h", "f1"]}),
    "delta0": (("Delta0NotFunctional",), "points", [("f", 1)], {"f": "z"}, {"f": ["x", "y"]}),
    "malformed": (("InvalidDimension", "InvalidFaceName"), "points",
                  [("f", True), ("b d", 1), ("g",)], {}, {}),
}


@pytest.mark.parametrize("case", sorted(NEW_STRATA))
def test_extension_matches_the_full_constructor(case):
    """A built complex's data with a new top stratum added fails exactly the
    pinned axioms; the constructor raises ``InvalidComplex`` carrying that
    report, or, when there are none, builds the new faces as the top stratum."""
    axioms, kind, pairs, target, sources = NEW_STRATA[case]
    dims, old_target, old_sources = _base(kind).to_data()
    full = ([*dims.items(), *pairs], {**old_target, **target}, {**old_sources, **sources})
    report = validate_complex_data(*full)
    assert report.failed_axioms() == axioms
    if report.passed:
        complex_ = FaceComplex(*full)
        assert complex_.stratum(complex_.dimension) == tuple(sorted(name for name, _ in pairs))
        return
    with pytest.raises(InvalidComplex) as err:
        FaceComplex(*full)
    assert err.value.report == report


def test_validate_complex_data_matches_build(two2):
    dims, target, sources = two2.to_data()
    assert validate_complex_data(dims, target, sources).passed
    del target["alpha"]
    assert not validate_complex_data(dims, target, sources).passed


# Malformed inputs for the base validator, as face pairs (so duplicates can
# be written) plus target and source maps.
MALFORMED_BASE_INPUTS = [
    ([("x", 0), ("x", 0), ("y", 0), ("x", 1), ("b d", 0), (3, 0), ("", 0)],
     {}, {}),
    ([("x", 0), ("a", True), ("b", -1), ("c", "1"), ("d", 1.0)], {}, {}),
    ([("x", 0), ("y", 0), ("f", 1)],
     {"f": "y", "zz": "x", 3: "x"}, {"f": ["x"], "qq": ["x"], 3: ["x"]}),
    ([("x", 0), ("y", 0), ("f", 1)],
     {"f": "y", "x": "y"}, {"f": ["x"], "y": ["x"]}),
    ([("x", 0), ("y", 0), ("f", 1), ("g", 1), ("a", 2), ("b", 2)],
     {"f": "g", "g": "y", "a": "x", "b": "g"},
     {"f": ["a"], "g": ["x"], "a": ["f", "f"], "b": ["f", "x", "f"]}),
    ([("x", 0), ("y", 0), ("f", 1), ("g", 1)],
     {"f": "y", "g": "y"}, {"f": ["x", "y"], "g": ["x", "x"]}),
    ([], {}, {}),
    ([("x", 0), ("f", 1), ("g", 1), ("h", 1)],
     {"f": "x", "h": "x"}, {"g": ["x"], "h": []}),
    ([("x", 0), ("y", 0), ("f", 1), ("a", 2)],
     {"f": "nope", "a": "f"}, {"f": ["nope2", "x"], "a": ["f", "nope3"]}),
    ([("x", 0), ("y", 0), ("f", 1), ("g", 1), ("a", 2)],
     {"f": "y", "g": "y", "a": "f"}, {"f": {"x"}, "g": {"x"}, "a": {"f", "g"}}),
]

BASE_REPORTS_SHA256 = "a67913c51251ed19007a3289c22a40e8fe390e3aebb571707eb0b125327abea7"


def _base_report_inputs(small_pops):
    for complex_ in [*corpus_fixtures().values(), *small_pops]:
        for _, dims, target, sources in single_edit_mutations(complex_):
            yield dims, target, sources
    for pairs, target, sources in MALFORMED_BASE_INPUTS:
        for order in (list, lambda seq: list(reversed(seq))):
            ordered_target = dict(order(list(target.items())))
            ordered_sources = dict(order(list(sources.items())))
            yield order(pairs), ordered_target, ordered_sources
            yield dict(order(pairs)), ordered_target, ordered_sources
    yield [("x", 0), ("y",), ("z", 0, 1)], {}, {}


def test_base_reports_are_pinned(small_pops):
    digest = hashlib.sha256()
    count = 0
    for faces, target, sources in _base_report_inputs(small_pops):
        report = validate_complex_data(faces, target, sources).to_dict()
        digest.update(json.dumps(report, sort_keys=True).encode("utf-8") + b"\n")
        count += 1
    assert count == 1088
    assert digest.hexdigest() == BASE_REPORTS_SHA256


def test_the_constructor_builds_exactly_what_validation_passes(small_pops):
    """``FaceComplex`` builds exactly when ``validate_complex_data`` passes,
    and otherwise raises ``InvalidComplex`` carrying that same report."""
    inputs = list(_base_report_inputs(small_pops))
    passed = 0
    for faces, target, sources in inputs:
        report = validate_complex_data(faces, target, sources)
        if report.passed:
            passed += 1
            assert len(FaceComplex(faces, target, sources)) == len(dict(faces))
            continue
        with pytest.raises(InvalidComplex) as err:
            FaceComplex(faces, target, sources)
        assert err.value.report == report
    assert 200 < passed < len(inputs) - 200


def test_the_one_pass_does_not_grow_a_defaultdict(two2):
    dims, target, sources = two2.to_data()
    del target["alpha"]
    target, sources = defaultdict(str, target), defaultdict(list, sources)
    with pytest.raises(InvalidComplex) as err:
        FaceComplex(dims, target, sources)
    assert err.value.report.failed_axioms() == ("MissingTarget",)
    assert "alpha" not in target and len(sources) == len(dims) - len(two2.stratum(0))


def test_a_huge_dimension_is_rejected_before_any_stratum_is_made():
    """The strata are made only for the dimensions present, so a face of a
    huge dimension costs no stratum per dimension below it; the
    constructor's report is ``validate_complex_data``'s."""
    faces = {"x": 0, "f": 10 ** 6}
    tracemalloc.start()
    try:
        with pytest.raises(InvalidComplex) as err:
            FaceComplex(faces, {}, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert err.value.report == validate_complex_data(faces, {}, {})
    assert err.value.report.failed_axioms() == ("EmptySources", "MissingTarget")


def test_a_source_iterable_without_a_size_is_reported_unread():
    """A source collection must have a size.  A generator is reported as
    one violation, and neither ``FaceComplex`` nor ``validate_complex_data``
    reads it."""
    gen = (y for y in ["x"])
    faces, target, sources = {"x": 0, "y": 0, "f": 1}, {"f": "y"}, {"f": gen}
    with pytest.raises(InvalidComplex) as err:
        FaceComplex(faces, target, sources)
    assert err.value.report.to_dict()["violations"] == [{
        "axiom": "EmptySources", "witnesses": ["f"],
        "detail": "sources of f are not a collection: generator"}]
    assert validate_complex_data(faces, target, {"f": 5}).failed_axioms() == ("EmptySources",)
    assert list(gen) == ["x"]


def test_a_source_string_is_not_read_as_its_characters():
    """A string is one value, not a collection of face names: it is reported
    as one violation whether or not its characters name faces."""
    for faces, target, sources in (
            ({"x0": 0, "x1": 0, "f": 1}, {"f": "x1"}, {"f": "x0"}),
            ({"x": 0, "y": 0, "f": 1}, {"f": "y"}, {"f": "x"})):
        report = build_complex(faces, target, sources)
        assert report.to_dict()["violations"] == [{
            "axiom": "EmptySources", "witnesses": ["f"],
            "detail": "sources of f are not a collection: str"}]


def test_a_cover_map_missing_one_face_and_naming_an_unknown_one_reports_both(two2):
    """A ``target`` or ``sources`` map with as many keys as a valid one, one
    face missing and one unknown face added, fails both ways; a cover
    argument that is not a mapping raises ``TypeError``."""
    dims, target, sources = two2.to_data()
    covers = {"target": target, "sources": sources}
    for what, axiom in (("target", "MissingTarget"), ("sources", "EmptySources")):
        edited = dict(covers, **{what: dict(covers[what])})
        edited[what]["ghost"] = edited[what].pop("alpha")
        report = validate_complex_data(dims, edited["target"], edited["sources"])
        assert report.failed_axioms() == tuple(sorted((axiom, "UnknownFaceReference")))
        assert Violation("UnknownFaceReference", ("ghost",),
                         f"{what} declared for unknown face 'ghost'") in report.violations
        for not_a_mapping in (None, list(covers[what].items())):
            with pytest.raises(TypeError):
                FaceComplex(dims, **dict(covers, **{what: not_a_mapping}))


def test_an_unhashable_target_or_source_is_an_unknown_face():
    """A target or a source entry that cannot be a face name, such as a
    list, is reported as an unknown face reference, not raised."""
    for target, sources, detail in (
            ({"f": ["y"]}, {"f": ["x"]}, "target of f is unknown face ['y']"),
            ({"f": "y"}, {"f": [["x"]]}, "source of f is unknown face ['x']")):
        report = build_complex({"x": 0, "y": 0, "f": 1}, target, sources)
        assert report.to_dict()["violations"] == [{
            "axiom": "UnknownFaceReference", "witnesses": ["f"], "detail": detail}]


PUBLIC_NAMES = [
    "AmbiguousCompletion", "AxiomReport", "BudgetTooLarge", "ClosedRelation",
    "ComplexDocument", "DimensionOutOfRange", "DimensionTooHigh", "DimensionTooLow",
    "DslSyntaxError", "DuplicateDeclaration", "EnumerationBudget", "FaceComplex",
    "FacePath", "HypergraphView", "InternalInvariantBroken", "InvalidArity",
    "InvalidComplex", "InvalidTree", "JsonShapeError", "Lozenge", "LozengeError",
    "Morphism", "NoCompletion", "NonAsciiName", "OpetopeError", "ParseError",
    "PreconditionViolation", "RootedTree", "SignRuleViolation",
    "UnknownFaceReference", "Violation", "ZeroDimensionalFace", "ZigZag",
    "are_isomorphic", "arrow", "build_complex", "canonical_complex",
    "canonical_form", "check_acyclicity", "check_disjointness", "check_globularity",
    "check_greatest_element", "check_oriented_thinness", "check_pencil_linearity",
    "check_principality", "check_strictness", "complete_half_lozenge",
    "compose_morphisms", "emit_dot_hasse", "emit_dot_tree", "emit_dsl", "emit_json",
    "enumerate_pops", "enumerate_positive_opetopes", "face_tree",
    "from_hypergraph_view", "gamma_set", "greatest_element", "identity_morphism",
    "iota", "is_dfc", "is_lower_path", "is_opetopic_cardinal",
    "is_positive_opetope", "is_upper_path", "lambda_set", "linear_order_s0",
    "naive_enumerate_pops", "parse_dsl", "parse_json", "path_to_root", "point",
    "simple_zigzag", "sources_partition", "three_cell_from_tree", "three_one",
    "to_hypergraph_view", "two_cell", "validate_complex_data", "validate_morphism",
    "validate_rooted_tree",
]


def test_package_root_exports_are_pinned():
    """The package root exports the library and nothing more: test fixtures,
    corpus fixtures and mutation generators live in the tests."""
    assert sorted(name for name, value in vars(opetope_kit).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)) == PUBLIC_NAMES
