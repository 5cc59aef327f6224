import hashlib
import json
import random

import pytest

from opetope_kit import (
    AmbiguousCompletion,
    FaceComplex,
    InternalInvariantBroken,
    NoCompletion,
    RootedTree,
    check_acyclicity,
    check_greatest_element,
    check_oriented_thinness,
    complete_half_lozenge,
    build_complex,
    face_tree,
    greatest_element,
    is_dfc,
    linear_order_s0,
    three_cell_from_tree,
    two_cell,
    validate_rooted_tree,
)
from opetope_kit.errors import DimensionTooLow, LozengeError, PreconditionViolation

from helpers import (
    all_chains,
    chain_tree,
    chain_tree_cell,
    corpus_fixtures,
    fork_tree,
    negative_parenthesis_chains,
    nested_tree,
    positive_parenthesis_chains,
    single_edit_mutations,
    two_sided_tree_cell,
)


def test_greatest_element(two2, fix_point):
    assert greatest_element(two2) == "alpha"
    assert greatest_element(fix_point) == "x"


def test_greatest_element_missing():
    two_arrows = FaceComplex(
        {"a": 0, "b": 0, "c": 0, "f": 1, "g": 1},
        {"f": "b", "g": "c"},
        {"f": ["a"], "g": ["b"]})
    assert greatest_element(two_arrows) is None
    report = check_greatest_element(two_arrows)
    assert not report.passed


def test_lozenge_completions_two2(two2):
    loz = complete_half_lozenge(two2, "x1", "f1", "alpha")
    assert loz.right == "f2"
    assert loz.signs == ("-", "+", "-", "-")
    assert loz.sign_rule_holds

    loz = complete_half_lozenge(two2, "x2", "h", "alpha")
    assert loz.right == "f2"
    assert loz.signs == ("+", "+", "-", "+")

    loz = complete_half_lozenge(two2, "x0", "f1", "alpha")
    assert loz.right == "h"
    assert loz.signs == ("-", "-", "+", "-")


def test_lozenge_precondition(two2):
    with pytest.raises(PreconditionViolation):
        complete_half_lozenge(two2, "x0", "f2", "alpha")


def test_lozenge_no_completion(two2):
    dims, target, sources = two2.to_data()
    sources["h"] = frozenset({"x1"})
    broken = FaceComplex(dims, target, sources)
    with pytest.raises(NoCompletion):
        complete_half_lozenge(broken, "x0", "f1", "alpha")


def test_lozenge_ambiguous():
    dims = {"x": 0, "y": 0, "f": 1, "g": 1, "h": 1, "a": 2}
    target = {"f": "y", "g": "y", "h": "y", "a": "h"}
    sources = {"f": ["x"], "g": ["x"], "h": ["x"], "a": ["f", "g"]}
    broken = FaceComplex(dims, target, sources)
    with pytest.raises(AmbiguousCompletion) as err:
        complete_half_lozenge(broken, "x", "f", "a")
    assert err.value.candidates == ("g", "h")


def test_oriented_thinness_two2(two2, fix_point, fix_arrow):
    assert check_oriented_thinness(two2).passed
    assert check_oriented_thinness(fix_point).passed
    assert check_oriented_thinness(fix_arrow).passed
    assert len(list(all_chains(two2))) == 6


def test_oriented_thinness_mutation(two2):
    dims, target, sources = two2.to_data()
    sources["h"] = frozenset({"x1"})
    broken = FaceComplex(dims, target, sources)
    report = check_oriented_thinness(broken)
    assert [(v.witnesses, v.detail) for v in report.violations] == [
        (("x0", "f1", "alpha"), "no completing face (chain x0 < f1 < alpha)"),
        (("x1", "f1", "alpha"), "several completing faces: f2, h (chain x1 < f1 < alpha)"),
        (("x1", "f2", "alpha"), "several completing faces: f1, h (chain x1 < f2 < alpha)"),
        (("x1", "h", "alpha"), "several completing faces: f1, f2 (chain x1 < h < alpha)"),
    ]


def test_oriented_thinness_reports_both_chains_of_a_sign_breaking_lozenge(two2):
    """Reversing h in two_cell(2) keeps both diamonds below alpha, with
    two chains each, but breaks the sign rule on both: each chain of each
    diamond is reported, not one per diamond."""
    dims, target, sources = two2.to_data()
    target["h"], sources["h"] = "x0", frozenset({"x2"})
    report = check_oriented_thinness(FaceComplex(dims, target, sources))
    assert [(v.witnesses, v.detail) for v in report.violations] == [
        (("x0", "f1", "alpha"),
         "completion h breaks the sign rule ('-', '-', '+', '+') (chain x0 < f1 < alpha)"),
        (("x0", "h", "alpha"),
         "completion f1 breaks the sign rule ('+', '+', '-', '-') (chain x0 < h < alpha)"),
        (("x2", "f2", "alpha"),
         "completion h breaks the sign rule ('-', '+', '+', '-') (chain x2 < f2 < alpha)"),
        (("x2", "h", "alpha"),
         "completion f2 breaks the sign rule ('+', '-', '-', '+') (chain x2 < h < alpha)"),
    ]


def test_lozenge_completion_involution(two2, three1, tree_fixtures):
    complexes = [two2, three1] + list(tree_fixtures.values())
    for complex_ in complexes:
        for bottom, middle, top in all_chains(complex_):
            loz = complete_half_lozenge(complex_, bottom, middle, top)
            assert loz.sign_rule_holds
            back = complete_half_lozenge(complex_, bottom, loz.right, top)
            assert back.right == middle


def test_acyclicity(two2, fix_point):
    assert check_acyclicity(two2).passed
    assert check_acyclicity(fix_point).passed


def test_acyclicity_cycle_detected():
    dims = {"p": 0, "q": 0, "a": 1, "b": 1, "c": 1, "x": 2}
    target = {"a": "q", "b": "p", "c": "q", "x": "c"}
    sources = {"a": ["p"], "b": ["q"], "c": ["p"], "x": ["a", "b"]}
    broken = FaceComplex(dims, target, sources)
    report = check_acyclicity(broken)
    assert not report.passed
    assert any("cycle" in v.detail for v in report.violations)


def test_is_dfc_on_fixtures(fix_point, fix_arrow, two2, three1, tree_fixtures):
    for complex_ in [fix_point, fix_arrow, two2, three1] + list(tree_fixtures.values()):
        assert is_dfc(complex_).passed
    two_points = FaceComplex({"a": 0, "b": 0}, {}, {})
    assert not is_dfc(two_points).passed


def test_rooted_tree_example():
    tree = RootedTree(
        nodes=frozenset({"a1", "a2", "a3", "a4"}),
        arity={"a1": frozenset({"b6", "b7"}),
               "a2": frozenset({"b1", "b8"}),
               "a3": frozenset({"b2", "b3"}),
               "a4": frozenset({"b4", "b5"})},
        triplets=frozenset({("a1", "b6", "a2"), ("a1", "b7", "a4"),
                            ("a2", "b8", "a3")}),
        root="a1")
    assert validate_rooted_tree(tree).passed
    assert tree.leaves() == frozenset(
        {("a2", "b1"), ("a3", "b2"), ("a3", "b3"), ("a4", "b4"), ("a4", "b5")})
    assert tree.descending_path("a3") == ["a3", "a2", "a1"]


def test_rooted_tree_rejects_cycle_and_forest():
    cyclic = RootedTree(
        nodes=frozenset({"a", "b"}),
        arity={"a": frozenset({"s"}), "b": frozenset({"t"})},
        triplets=frozenset({("a", "s", "b"), ("b", "t", "a")}),
        root="a")
    assert not validate_rooted_tree(cyclic).passed

    forest = RootedTree(
        nodes=frozenset({"a", "b"}),
        arity={"a": frozenset({"s"}), "b": frozenset({"t"})},
        triplets=frozenset(),
        root="a")
    assert not validate_rooted_tree(forest).passed


def test_rooted_tree_rejects_double_plug():
    tree = RootedTree(
        nodes=frozenset({"a", "b", "c"}),
        arity={"a": frozenset({"s"}), "b": frozenset(), "c": frozenset()},
        triplets=frozenset({("a", "s", "b"), ("a", "s", "c")}),
        root="a")
    assert not validate_rooted_tree(tree).passed


def test_face_tree_two2(two2):
    tree = face_tree(two2, "alpha")
    assert tree.nodes == frozenset({"f1", "f2"})
    assert tree.root == "f2"
    assert tree.triplets == frozenset({("f2", "x1", "f1")})
    assert tree.leaves() == frozenset({("f1", "x0")})


def test_face_tree_dim1(fix_arrow):
    tree = face_tree(fix_arrow, "f")
    assert tree.nodes == frozenset({"x"})
    assert tree.root == "x"
    assert tree.arity["x"] == frozenset()
    assert not tree.triplets


def test_face_tree_dim0_rejected(two2):
    with pytest.raises(DimensionTooLow):
        face_tree(two2, "x0")


def test_face_tree_defensive(two2):
    dims, target, sources = two2.to_data()
    target["f1"] = "x2"  # no source then targets x1; root duplicated on x2
    broken = FaceComplex(dims, target, sources)
    with pytest.raises(InternalInvariantBroken):
        face_tree(broken, "alpha")
    # below the target t: p0 -> p2, the sources a, c: p0 -> p1 and
    # b: p1 -> p2 make b the one root, and both a and c plug its slot p1
    broken = FaceComplex(
        {"p0": 0, "p1": 0, "p2": 0, "a": 1, "b": 1, "c": 1, "t": 1, "x": 2},
        {"a": "p1", "b": "p2", "c": "p1", "t": "p2", "x": "t"},
        {"a": {"p0"}, "b": {"p1"}, "c": {"p0"}, "t": {"p0"}, "x": {"a", "b", "c"}})
    with pytest.raises(InternalInvariantBroken, match="slot p1 of b is plugged twice"):
        face_tree(broken, "x")


def test_face_tree_root_property(two2, three1, tree_fixtures):
    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        for x in complex_.faces():
            if complex_.dim(x) < 2:
                continue
            tree = face_tree(complex_, x)
            anchor = complex_.gamma(complex_.gamma(x))
            roots = [y for y in tree.nodes if complex_.gamma(y) == anchor]
            assert roots == [tree.root]
            for node in tree.nodes:
                path = tree.descending_path(node)
                assert path[-1] == tree.root
                assert len(path) <= len(tree.nodes)


def test_face_tree_leaves_complement_triplets(two2, three1, tree_fixtures):
    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        for x in complex_.faces():
            if complex_.dim(x) < 1:
                continue
            tree = face_tree(complex_, x)
            slots = {(a, b) for a in tree.nodes for b in tree.arity[a]}
            used = {(a, b) for a, b, _ in tree.triplets}
            assert tree.leaves() == frozenset(slots - used)


def test_parenthesis_completion_chains(two2, three1, tree_fixtures):
    """Each four-face configuration closes into exactly one bracket chain:
    climbing from a source of b by lozenge steps over a fixed bottom face
    lands on a source of the target of b, one way only."""
    for complex_ in [two2, three1] + list(tree_fixtures.values()):
        for b in complex_.faces():
            if complex_.dim(b) < 2:
                continue
            for c in sorted(complex_.delta(b)):
                if complex_.dim(c) < 1:
                    continue
                d_plus = complex_.gamma(c)
                if complex_.dim(d_plus) >= 1:
                    for e, beta in complex_.covers(d_plus):
                        chains = positive_parenthesis_chains(
                            complex_, e, beta, c, b)
                        assert len(chains) == 1, (b, c, d_plus, e)
                for d in sorted(complex_.delta(c)):
                    if complex_.dim(d) < 1:
                        continue
                    for e, beta in complex_.covers(d):
                        chains = negative_parenthesis_chains(
                            complex_, e, beta, d, c, b)
                        assert len(chains) == 1, (b, c, d, e)


DFC_OUTPUTS_SHA256 = "7cafe3574e171706c17db3fc71794dedb59e3f3c28a364da70f36a3449c50723"


def _dfc_outputs(complex_):
    """The dfc reports, then (when it passes) every face tree and the
    0-face order, as lines of JSON."""
    checks = (is_dfc, check_greatest_element, check_oriented_thinness,
              check_acyclicity)
    lines = [json.dumps(check(complex_).to_dict(), sort_keys=True)
             for check in checks]
    if is_dfc(complex_).passed:
        for x in complex_.faces():
            if complex_.dim(x) >= 1:
                tree = face_tree(complex_, x)
                lines.append(json.dumps(
                    [x, tree.root, sorted(tree.triplets)]))
        lines.append(json.dumps(linear_order_s0(complex_)))
    return lines


def test_dfc_outputs_are_pinned(small_pops, tree_fixtures):
    complexes = list(small_pops)
    for fixture in corpus_fixtures().values():
        complexes.append(fixture)
        for _, dims, target, sources in single_edit_mutations(fixture):
            built = build_complex(dims, target, sources)
            if isinstance(built, FaceComplex):
                complexes.append(built)
    complexes.extend(tree_fixtures[name] for name in sorted(tree_fixtures))
    digest = hashlib.sha256()
    dendritic = 0
    for complex_ in complexes:
        dendritic += is_dfc(complex_).passed
        digest.update("\n".join(_dfc_outputs(complex_)).encode("utf-8") + b"\n")
    assert len(complexes) == 348
    assert dendritic == 17
    assert digest.hexdigest() == DFC_OUTPUTS_SHA256


def _sized_tree(seed, size):
    """A seeded rooted tree of ``size`` nodes: each node hangs under a
    random earlier one and has one slot per child plus up to one more."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(size)]
    children = {i: [] for i in range(size)}
    for i in range(1, size):
        children[rng.randrange(i)].append(i)
    arity, triplets, made = {}, set(), 0
    for i in range(size):
        width = max(len(children[i]) + rng.randint(0, 1), 1)
        slots = [f"s{made + j}" for j in range(width)]
        made += width
        rng.shuffle(slots)
        for child, slot in zip(children[i], slots):
            triplets.add((nodes[i], slot, nodes[child]))
        arity[nodes[i]] = frozenset(slots)
    return RootedTree(frozenset(nodes), arity, frozenset(triplets), nodes[0])


# The same digest over every valid single edit of eight seeded tree-built
# 3-cells of 5 to 12 nodes and of two_cell(1..6), computed before
# check_oriented_thinness and check_acyclicity worked per face.
DFC_NEAR_MISS_SHA256 = "b43f83c10b5f746f338c8eef621988d1e38b0ab2d9c003d8236d97fe3288baea"


def test_dfc_near_miss_outputs_are_pinned():
    cells = [three_cell_from_tree(_sized_tree(seed, size))
             for seed, size in enumerate(range(5, 13))]
    cells += [two_cell(n) for n in range(1, 7)]
    digest = hashlib.sha256()
    edits = 0
    failures = {"no completing face": 0, "several completing faces": 0,
                "breaks the sign rule": 0, "acyclicity": 0}
    for cell in cells:
        for _, dims, target, sources in single_edit_mutations(cell):
            built = build_complex(dims, target, sources)
            if not isinstance(built, FaceComplex):
                continue
            edits += 1
            for v in is_dfc(built).violations:
                for kind in failures:
                    failures[kind] += kind == v.axiom or kind in v.detail
            digest.update("\n".join(_dfc_outputs(built)).encode("utf-8") + b"\n")
    assert edits == 1758
    assert all(failures.values()), failures
    assert digest.hexdigest() == DFC_NEAR_MISS_SHA256


# Over every chain bottom < left < top of the corpus fixtures and their
# valid single edits, with ``top`` ranging over the stratum above ``left``:
# the completed right face and signs, or the exception's type and message.
# Computed before complexes stored their pencils.
HALF_LOZENGE_SHA256 = "b74df248abdb068f253792a6ce5da558b3f0c33ad4c0620532c726c929361903"


def test_half_lozenge_completions_are_pinned():
    complexes = []
    for fixture in corpus_fixtures().values():
        complexes.append(fixture)
        for _, dims, target, sources in single_edit_mutations(fixture):
            built = build_complex(dims, target, sources)
            if isinstance(built, FaceComplex):
                complexes.append(built)
    digest = hashlib.sha256()
    outcomes = {}
    for complex_ in complexes:
        for left in complex_.faces():
            for bottom, _ in complex_.covers(left):
                for top in complex_.stratum(complex_.dim(left) + 1):
                    try:
                        lozenge = complete_half_lozenge(complex_, bottom, left, top)
                        outcome = ["ok", lozenge.right, list(lozenge.signs)]
                    except (PreconditionViolation, LozengeError) as exc:
                        outcome = [type(exc).__name__, str(exc)]
                    outcomes[outcome[0]] = outcomes.get(outcome[0], 0) + 1
                    digest.update(json.dumps([bottom, left, top, outcome]).encode("utf-8") + b"\n")
    assert len(complexes) == 288
    assert sum(outcomes.values()) == 19787
    assert sorted(outcomes) == ["AmbiguousCompletion", "NoCompletion", "PreconditionViolation",
                                "SignRuleViolation", "ok"]
    assert digest.hexdigest() == HALF_LOZENGE_SHA256


def test_half_lozenge_completion_reads_the_bottom_pencils(monkeypatch):
    """Completing a chain looks at the faces above its bottom face, not at
    every cover of its top face, so the work per chain stays bounded on
    wide cells."""
    complex_ = two_cell(200)
    chains = [(z, y, x) for x in complex_.faces() if complex_.dim(x) >= 2
              for y, _ in complex_.covers(x) for z, _ in complex_.covers(y)]
    assert len(chains) == 402
    calls = 0
    original = FaceComplex.cover_sign

    def counted(self, y, x):
        nonlocal calls
        calls += 1
        return original(self, y, x)

    monkeypatch.setattr(FaceComplex, "cover_sign", counted)
    for chain in chains:
        assert complete_half_lozenge(complex_, *chain).sign_rule_holds
    assert calls <= 5 * len(chains)


def test_is_dfc_work_per_face_is_flat(monkeypatch):
    """The adjacency entries ``is_dfc`` reads per face do not grow with the
    depth of a chain-tree cell, whose first point is the source of every
    slot arrow, nor of a two-sided tree cell, whose middle point ends and
    starts about half of them."""
    cells = {(family, n): family(n) for family in (chain_tree_cell, two_sided_tree_cell)
             for n in (300, 1200)}
    reads = 0

    def counting(method, size):
        def wrapped(self, name):
            nonlocal reads
            out = method(self, name)
            reads += size(out)
            return out
        return wrapped

    sizes = {"covers": len, "cofaces": len, "delta": len, "gamma": lambda _: 1,
             "pencils": lambda pencils: len(pencils[0]) + len(pencils[1])}
    for name, size in sizes.items():
        monkeypatch.setattr(FaceComplex, name, counting(getattr(FaceComplex, name), size))
    per_face = {}
    for (family, n), complex_ in cells.items():
        reads = 0
        assert is_dfc(complex_).passed
        per_face[family.__name__, n] = reads / len(complex_)
    for family in (chain_tree_cell, two_sided_tree_cell):
        assert per_face[family.__name__, 1200] <= 1.1 * per_face[family.__name__, 300], per_face


ROOTED_TREE_QUERIES_SHA256 = "f8b013a5a33d49fd1de87d9f0f71ec0f81fe96c160116d87c825f6dfcd2d22fb"


def _tree_queries(tree):
    """Every node's descending path and children, or the error it raises."""
    lines = []
    for node in sorted(tree.nodes):
        try:
            path = tree.descending_path(node)
        except InternalInvariantBroken as exc:
            path = f"error: {exc}"
        lines.append(json.dumps([node, path, tree.children(node)]))
    return lines


def _malformed_trees():
    def tree(nodes, arity, triplets, root):
        return RootedTree(frozenset(nodes),
                          {a: frozenset(s) for a, s in arity.items()},
                          frozenset(triplets), root)

    return [
        tree("ab", {"a": "s", "b": "t"}, {("a", "s", "b"), ("b", "t", "a")}, "a"),
        tree("rabcde", {"r": "pq", "a": "u", "b": "v", "c": "wx", "d": "", "e": ""},
             {("r", "p", "a"), ("a", "u", "e"), ("b", "v", "c"), ("c", "w", "b"),
              ("c", "x", "d")}, "r"),
        tree("rabc", {"r": "p", "a": "u", "b": "v", "c": "w"},
             {("r", "p", "a"), ("b", "v", "c"), ("c", "w", "b")}, "r"),
        tree("rab", {"r": "pq", "a": "u", "b": ""},
             {("r", "p", "b"), ("a", "u", "b")}, "r"),
        tree("ra", {"r": "p", "a": "u"}, {("r", "p", "a"), ("a", "u", "r")}, "r"),
        tree("ra", {"r": "p", "a": ""}, {("r", "x", "a")}, "r"),
        tree("rab", {"r": "p", "a": "", "b": ""}, {("r", "p", "a"), ("r", "p", "b")}, "r"),
        tree("ra", {"r": "p", "a": ""}, {("r", "p", "z")}, "r"),
        tree("ra", {"r": "p", "a": ""}, set(), "r"),
        tree("ra", {"r": "p", "a": ""}, {("r", "p", "a")}, "q"),
    ]


def test_rooted_tree_queries_are_pinned(tree_fixtures):
    """Descending paths and children on well-formed trees, then the
    validation reports and query outcomes on malformed ones."""
    trees = [chain_tree(), fork_tree(), nested_tree()]
    cells = [tree_fixtures[name] for name in sorted(tree_fixtures)]
    cells += [corpus_fixtures()[name] for name in sorted(corpus_fixtures())]
    for complex_ in cells:
        if is_dfc(complex_).passed:
            trees.extend(face_tree(complex_, x) for x in complex_.faces()
                         if complex_.dim(x) >= 1)
    digest = hashlib.sha256()
    for tree in trees:
        digest.update("\n".join(_tree_queries(tree)).encode("utf-8") + b"\n")
    malformed = _malformed_trees()
    for tree in malformed:
        report = validate_rooted_tree(tree)
        assert not report.passed
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode("utf-8") + b"\n")
        if tree.root in tree.nodes and all(c in tree.nodes for _, _, c in tree.triplets):
            digest.update("\n".join(_tree_queries(tree)).encode("utf-8") + b"\n")
    assert len(trees) == 117
    assert digest.hexdigest() == ROOTED_TREE_QUERIES_SHA256
