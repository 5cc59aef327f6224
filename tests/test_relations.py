import hashlib
import itertools
import random

import pytest

from opetope_kit import (
    DimensionOutOfRange,
    DimensionTooLow,
    EnumerationBudget,
    FacePath,
    UnknownFaceReference,
    arrow,
    enumerate_pops,
    gamma_set,
    iota,
    is_lower_path,
    is_upper_path,
    lambda_set,
    point,
    three_one,
    two_cell,
)
from opetope_kit.relations import closed_minus
from opetope_kit.zpo import Level

from helpers import (
    brute_force_lower_reachable,
    closed_from_pairs,
    order_pairs,
    warshall_closure,
)


def _step_pairs(closed):
    """The one-step relation of ``closed``, read back as face pairs."""
    faces = closed.faces
    return frozenset((faces[u], faces[v])
                     for u, vs in enumerate(closed.steps) for v in vs)


def test_step_minus_two2(two2):
    assert _step_pairs(closed_minus(two2, 1)) == frozenset({("f1", "f2")})
    assert _step_pairs(closed_minus(two2, 0)) == frozenset()


def test_step_minus_dim0_empty_by_definition(fix_point):
    assert _step_pairs(closed_minus(fix_point, 0)) == frozenset()


def test_step_plus_two2(two2, fix_arrow):
    assert _step_pairs(Level.of(two2, 1).plus) == frozenset(
        {("x0", "x1"), ("x1", "x2"), ("x0", "x2")})
    assert _step_pairs(Level.of(two2, 2).plus) == frozenset({("f1", "h"), ("f2", "h")})
    assert _step_pairs(Level.of(fix_arrow, 2).plus) == frozenset()


def test_closure_examples(two2):
    closed = Level.of(two2, 1).plus
    assert order_pairs(closed) == frozenset({("x0", "x1"), ("x1", "x2"), ("x0", "x2")})
    assert order_pairs(closed_from_pairs((), ())) == frozenset()
    cyclic = closed_from_pairs("ab", {("a", "b"), ("b", "a")})
    assert ("a", "a") in order_pairs(cyclic)
    assert any(mask >> i & 1 for i, mask in enumerate(cyclic.masks))


def _closure_agrees_with_warshall(names, pairs):
    """Compare the mask closure of the steps ``pairs`` with the oracle on
    every pair of ``names``, a stratum that may hold faces no pair names."""
    closed = closed_from_pairs(names, pairs)
    names = sorted(names)
    expected = warshall_closure(names, pairs)
    assert order_pairs(closed) == frozenset(expected)
    for i, x in enumerate(closed.faces):
        assert closed.comparable_masks()[i] == sum(
            1 << j for j, y in enumerate(closed.faces)
            if (x, y) in expected or (y, x) in expected)
    return expected


def test_closure_matches_warshall_oracle():
    # walking from a, b finishes before a and first misses b < b; only the
    # repeat pass over the finishing order adds it
    expected = _closure_agrees_with_warshall(
        ("a", "b", "c"), {("a", "b"), ("b", "a"), ("b", "c")})
    assert ("b", "b") in expected
    rng = random.Random(4021)
    shapes = {"empty": 0, "self-loop": 0, "2-cycle": 0, "longer cycle": 0,
              "isolated face": 0}
    for _ in range(400):
        names = rng.sample("abcdefghijklmnop", rng.randint(0, 9))
        density = rng.choice((0.0, 0.1, 0.2, 0.4))
        pairs = {(x, y) for x in names for y in names if rng.random() < density}
        expected = _closure_agrees_with_warshall(names, pairs)
        shapes["empty"] += not pairs
        shapes["self-loop"] += any(x == y for x, y in pairs)
        shapes["2-cycle"] += any(x != y and (y, x) in pairs for x, y in pairs)
        shapes["longer cycle"] += any(
            (x, x) in expected and (x, x) not in pairs
            and not any((x, y) in pairs and (y, x) in pairs for y in names)
            for x in names)
        shapes["isolated face"] += bool(set(names) - {x for pair in pairs for x in pair})
    assert all(count >= 5 for count in shapes.values()), shapes


def test_lambda_gamma_sets(two2, fix_arrow):
    assert lambda_set(two2, 1) == frozenset({"f1", "f2"})
    assert gamma_set(two2, 1) == frozenset({"h"})
    assert lambda_set(two2, 2) == frozenset({"alpha"})
    assert lambda_set(fix_arrow, 0) == frozenset({"x"})
    with pytest.raises(DimensionOutOfRange):
        lambda_set(two2, 3)
    with pytest.raises(DimensionOutOfRange):
        gamma_set(two2, -1)


def test_lambda_gamma_partition_stratum(two2, three1, small_pops):
    for complex_ in [two2, three1] + small_pops:
        for k in range(complex_.dimension + 1):
            lam = lambda_set(complex_, k)
            gam = gamma_set(complex_, k)
            assert lam | gam == frozenset(complex_.stratum(k))
            assert not lam & gam


def test_iota(two2, two1):
    assert iota(two2, "alpha") == frozenset({"x1"})
    assert iota(two1, "alpha") == frozenset()
    with pytest.raises(DimensionTooLow):
        iota(two2, "f1")


def test_path_predicates(two2):
    assert is_upper_path(two2, ["x1", "f2", "x2"])
    assert is_lower_path(two2, ["f1", "x1", "f2"])
    assert is_lower_path(two2, ["f1"])
    assert is_upper_path(two2, ["x0"])
    assert not is_lower_path(two2, ["f1", "x0", "f2"])
    assert not is_upper_path(two2, ["x0", "f2", "x2"])
    assert not is_lower_path(two2, ["f1", "x1"])
    with pytest.raises(UnknownFaceReference):
        is_lower_path(two2, ["nope"])
    assert FacePath("upper", ("x0", "f1", "x1")).holds_in(two2)
    assert not FacePath("upper", ("x0", "f2", "x2")).holds_in(two2)
    assert FacePath("lower", ("f1", "x1", "f2")).holds_in(two2)


PATH_PREDICATES_SHA256 = "d8c4efd62c219d938379ef6dbf8b15629a17a69c4b851fdcc2050adf39d6e7e2"


def test_path_predicates_are_pinned():
    """Every sequence of up to four names, over the faces and one unknown
    name, through both predicates: each call's result, or its exception's
    type and message, feeds one digest.  The complexes are the point, the
    arrow, ``two_cell(2)``, ``three_one`` and the 19 classes of (2, 5)."""
    complexes = [point(), arrow(), two_cell(2), three_one(),
                 *enumerate_pops(EnumerationBudget(2, 5))]
    digest = hashlib.sha256()
    calls = 0
    for complex_ in complexes:
        names = [*complex_.faces(), "nope"]
        for length in range(5):
            for seq in itertools.product(names, repeat=length):
                for predicate in (is_lower_path, is_upper_path):
                    try:
                        outcome = str(predicate(complex_, seq))
                    except UnknownFaceReference as err:
                        outcome = f"{type(err).__name__}: {err}"
                    line = f"{predicate.__name__} {' '.join(seq)} | {outcome}\n"
                    digest.update(line.encode("utf-8"))
                    calls += 1
    assert calls == 74454
    assert digest.hexdigest() == PATH_PREDICATES_SHA256


def _upper_walk_pairs(complex_, k):
    """Reachability among k-faces via explicit upper paths, found by DFS
    over alternating sequences; every discovered sequence is also fed back
    through the path predicate."""
    pairs = set()
    for start in complex_.stratum(k):
        todo = [[start]]
        while todo:
            seq = todo.pop()
            tip = seq[-1]
            for w in complex_.stratum(k + 1):
                if tip in complex_.delta(w):
                    nxt = complex_.gamma(w)
                    assert is_upper_path(complex_, seq + [w, nxt])
                    if (start, nxt) not in pairs:
                        pairs.add((start, nxt))
                        todo.append(seq + [w, nxt])
    return pairs


def test_plus_closure_equals_upper_path_reachability(two2, three1, small_pops):
    for complex_ in [two2, three1] + small_pops[:30]:
        for k in range(complex_.dimension + 1):
            assert order_pairs(Level.of(complex_, k + 1).plus) == frozenset(
                _upper_walk_pairs(complex_, k))


def _lower_walk_pairs(complex_, k):
    pairs = set()
    if k == 0:
        return pairs
    for start in complex_.stratum(k):
        todo = [[start]]
        while todo:
            seq = todo.pop()
            tip = seq[-1]
            mid = complex_.gamma(tip)
            for nxt in complex_.stratum(k):
                if mid in complex_.delta(nxt):
                    assert is_lower_path(complex_, seq + [mid, nxt])
                    if (start, nxt) not in pairs:
                        pairs.add((start, nxt))
                        todo.append(seq + [mid, nxt])
    return pairs


def test_minus_closure_equals_lower_path_reachability(two2, three1, small_pops):
    for complex_ in [two2, three1] + small_pops[:30]:
        for k in range(complex_.dimension + 1):
            walked = frozenset(_lower_walk_pairs(complex_, k))
            assert order_pairs(closed_minus(complex_, k)) == walked
            assert walked == frozenset(brute_force_lower_reachable(complex_, k))


def test_iota_decompositions_on_opetopes(two2, three1):
    # on well-formed cells the middle faces split both double boundaries
    from opetope_kit import is_positive_opetope

    for complex_ in (two2, three1, two_cell(3), two_cell(4)):
        assert is_positive_opetope(complex_).passed
        for a in complex_.faces():
            if complex_.dim(a) < 2:
                continue
            dd, gd = set(), set()
            for b in complex_.delta(a):
                dd |= complex_.delta(b)
                gd.add(complex_.gamma(b))
            dg = set(complex_.delta(complex_.gamma(a)))
            gg = {complex_.gamma(complex_.gamma(a))}
            mid = iota(complex_, a)
            assert mid == frozenset(dd - dg) == frozenset(gd - gg)
            assert gd == gg | mid and not gg & mid
            assert dd == dg | mid and not dg & mid