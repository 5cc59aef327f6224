"""Acceptance suite.

Every test prints one line naming its criterion and the observed numbers,
so a bare ``pytest -s tests/test_acceptance.py`` reads as a checklist.
The shared enumeration covers every complex class with dimension <= 3 and
at most 8 faces; tolerances are exact throughout (these are combinatorial
statements, not measurements).
"""

import json
import pathlib

import pytest

from opetope_kit import (
    EnumerationBudget,
    FaceComplex,
    Morphism,
    arrow,
    build_complex,
    canonical_form,
    compose_morphisms,
    emit_dsl,
    emit_json,
    enumerate_pops,
    face_tree,
    from_hypergraph_view,
    greatest_element,
    identity_morphism,
    is_positive_opetope,
    lambda_set,
    linear_order_s0,
    naive_enumerate_pops,
    parse_dsl,
    parse_json,
    path_to_root,
    simple_zigzag,
    sources_partition,
    three_one,
    to_hypergraph_view,
    two_cell,
    validate_morphism,
)
from opetope_kit.cli import main
from opetope_kit.dfc import complete_half_lozenge
from opetope_kit.zpo import Level

from helpers import (
    all_chains,
    corpus_fixtures,
    exhaustive_simple_zigzags,
    order_pairs,
    predecessor_sort,
    single_edit_mutations,
)

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[1] / "corpus"


def report(criterion, name, detail):
    print(f"[criterion {criterion}] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def enumerated_dfcs(enumerated):
    return [c for c, dfc_rep, _ in enumerated if dfc_rep.passed]


def test_criterion_1_equivalence_theorem(enumerated):
    disagreements = [
        complex_ for complex_, dfc_rep, op_rep in enumerated
        if dfc_rep.passed != op_rep.passed]
    assert disagreements == []
    matches = sum(1 for _, d, o in enumerated if d.passed and o.passed)
    report(1, "equivalence of the two characterizations",
           f"{len(enumerated)} classes at dim<=3, faces<=8; "
           f"0 disagreements; {matches} cells on both sides")


def test_criterion_2_greatest_vs_principal(enumerated):
    checked_forward = checked_backward = 0
    for complex_, _, op_rep in enumerated:
        cardinal_ok = set(op_rep.failed_axioms()) <= {"principality"}
        if cardinal_ok and greatest_element(complex_) is not None:
            assert "principality" not in op_rep.failed_axioms(), complex_
            checked_forward += 1
        if op_rep.passed:
            assert greatest_element(complex_) is not None, complex_
            checked_backward += 1
    report(2, "greatest element and principality imply each other",
           f"{checked_forward} cardinals with a top face all principal; "
           f"{checked_backward} positive opetopes all have a top face")


def test_criterion_3_representation_round_trip(enumerated):
    for complex_, _, _ in enumerated:
        view = to_hypergraph_view(complex_)
        assert from_hypergraph_view(view) == complex_
        assert to_hypergraph_view(from_hypergraph_view(view)) == view
    fixtures = corpus_fixtures()
    for complex_ in fixtures.values():
        assert validate_morphism(identity_morphism(complex_)).passed
    embed = Morphism(arrow(), two_cell(2), {"x": "x0", "y": "x1", "f": "f1"})
    include = Morphism(two_cell(2), three_one(),
                       {n: n for n in two_cell(2).faces()})
    retarget = Morphism(two_cell(2), three_one(),
                        dict({n: n for n in two_cell(2).faces()}, alpha="beta"))
    composed = compose_morphisms(embed, include)
    for morphism in (embed, include, retarget, composed):
        assert validate_morphism(morphism).passed
    report(3, "representation equivalence",
           f"{len(enumerated)} view round-trips identical; identity on "
           f"{len(fixtures)} fixtures plus embeddings and a composite validate")


def test_criterion_4_structure_theorems(enumerated_dfcs, opetopes_4_9):
    assert enumerated_dfcs
    lemmas_checked = 0
    for complex_ in enumerated_dfcs + opetopes_4_9:
        omega = greatest_element(complex_)
        n = complex_.dimension
        outputs = {k: complex_.iterated_target(omega, k) for k in range(n + 1)}
        for k in range(n):
            non_targets_above = lambda_set(complex_, k + 1)
            assert lambda_set(complex_, k) <= complex_.delta(outputs[k + 1])
            assert complex_.delta(outputs[k + 1]) <= lambda_set(complex_, k)
            blocks = sources_partition(complex_, k)
            assert set(blocks) == set(non_targets_above)
            for d in complex_.stratum(k):
                carriers = [c for c in non_targets_above
                            if d in complex_.delta(c)]
                is_source = any(
                    d in complex_.delta(c) for c in complex_.stratum(k + 1))
                if is_source:
                    assert len(carriers) == 1
                else:
                    assert d == outputs[k]
                targets_of = [c for c in non_targets_above
                              if complex_.gamma(c) == d]
                is_target = any(
                    complex_.gamma(c) == d for c in complex_.stratum(k + 1))
                if is_target:
                    assert len(targets_of) == 1
            lemmas_checked += 1
        for k in range(n + 1):
            assert not any(outputs[k] in complex_.delta(c)
                           for c in complex_.stratum(k + 1))
        order = linear_order_s0(complex_)
        below = order_pairs(Level.of(complex_, 1).plus)
        assert order == predecessor_sort(complex_, below)
        for i, x in enumerate(order):
            for y in order[i + 1:]:
                assert (x, y) in below
    report(4, "structure theorems on every dendritic complex",
           f"{len(enumerated_dfcs)} complexes and the {len(opetopes_4_9)} "
           f"(4, 9) opetopes, {lemmas_checked} strata of "
           f"partition/uniqueness lemmas, linear orders match the closure")


def test_criterion_5_constructive_certificates(enumerated_dfcs, opetopes_4_9):
    extra = [three_one(), two_cell(3)]
    paths = zigzags = lozenges = 0
    for complex_ in enumerated_dfcs + opetopes_4_9 + extra:
        for c in complex_.faces():
            if complex_.dim(c) >= 2:
                tree = face_tree(complex_, c)
                for d in sorted(complex_.delta(c)):
                    walk = path_to_root(complex_, c, d)
                    assert list(walk.faces[::2]) == tree.descending_path(d)
                    assert walk.holds_in(complex_)
                    paths += 1
        for anchor in complex_.faces():
            if complex_.dim(anchor) < 2:
                continue
            sources = sorted(complex_.delta(anchor))
            if len(sources) > 4:
                continue
            for start in sources:
                for end in sources:
                    found = exhaustive_simple_zigzags(
                        complex_, anchor, start, end, 2 * len(sources))
                    zig = simple_zigzag(complex_, anchor, start, end)
                    assert found == [(zig.faces, zig.signs)]
                    zigzags += 1
        for bottom, middle, top in all_chains(complex_):
            lozenge = complete_half_lozenge(complex_, bottom, middle, top)
            assert lozenge.sign_rule_holds
            back = complete_half_lozenge(complex_, bottom, lozenge.right, top)
            assert back.right == middle
            lozenges += 1
    report(5, "constructive certificates",
           f"on {len(enumerated_dfcs)} complexes, the {len(opetopes_4_9)} (4, 9) "
           f"opetopes and {len(extra)} more: "
           f"{paths} root paths match the face trees; {zigzags} zig-zags "
           f"unique by exhaustion; {lozenges} lozenge completions involutive "
           f"with the sign rule")


def test_criterion_6_mutation_suite():
    cells = [("point", corpus_fixtures()["point"]),
             ("arrow", arrow()),
             ("two_cell(1)", two_cell(1)),
             ("two_cell(2)", two_cell(2)),
             ("three_one", three_one())]
    total = killed = 0
    for label, complex_ in cells:
        for edit, dims, target, sources in single_edit_mutations(complex_):
            total += 1
            built = build_complex(dims, target, sources)
            dead = (not isinstance(built, FaceComplex)
                    or not is_positive_opetope(built).passed)
            assert dead, f"{label}: {edit} survived"
            killed += 1
    assert killed == total
    report(6, "mutation suite",
           f"{killed}/{total} single-edit mutations killed across the five "
           f"canonical cells (100%)")


def test_criterion_7_corpus_fixtures(capsys):
    fixtures = corpus_fixtures()
    for name, complex_ in fixtures.items():
        dsl_text = emit_dsl(complex_)
        json_text = emit_json(complex_) + "\n"
        golden_dsl = (CORPUS_DIR / f"{name}.dsl").read_text(encoding="utf-8")
        golden_json = (CORPUS_DIR / f"{name}.json").read_text(encoding="utf-8")
        assert dsl_text == golden_dsl, f"corpus/{name}.dsl is stale"
        assert json_text == golden_json, f"corpus/{name}.json is stale"
        assert emit_dsl(parse_dsl(dsl_text).build()) == dsl_text
        assert emit_json(parse_json(json_text).build()) + "\n" == json_text
        for suffix in (".dsl", ".json"):
            code = main(["validate", str(CORPUS_DIR / f"{name}{suffix}"),
                         "--mode", "both"])
            out = capsys.readouterr().out
            assert code == 0, f"{name}{suffix} failed validate --mode both"
            assert "agreement: yes" in out
    with capsys.disabled():
        report(7, "corpus fixtures",
               f"{len(fixtures)} fixtures validate in both modes from both "
               f"formats and re-emit byte-identically")


def test_criterion_8_census_regression(capsys):
    assert main(["enumerate", "--max-dim", "2", "--max-faces", "7",
                 "--opetopes-only", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"
    assert main(["enumerate", "--max-dim", "1", "--max-faces", "3",
                 "--opetopes-only", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "2"

    naive_two = naive_enumerate_pops(EnumerationBudget(2, 7))
    naive_count_two = sum(
        1 for c in naive_two if is_positive_opetope(c).passed)
    assert naive_count_two == 4
    naive_one = naive_enumerate_pops(EnumerationBudget(1, 3))
    naive_count_one = sum(
        1 for c in naive_one if is_positive_opetope(c).passed)
    assert naive_count_one == 2

    clever = {canonical_form(c)
              for c in enumerate_pops(EnumerationBudget(2, 6))}
    naive = {canonical_form(c)
             for c in naive_enumerate_pops(EnumerationBudget(2, 6))}
    assert clever == naive
    with capsys.disabled():
        report(8, "census regression",
               f"dim<=2/faces<=7 census = 4 and dim<=1/faces<=3 census = 2 on "
               f"both generators; {len(clever)} classes at dim<=2/faces<=6 "
               f"identical across generators")
