"""The benchmark's workloads: inputs, one pass, and the correctness gate.

Each workload has a ``setup`` that builds its inputs from the seed (timed
as set-up), a ``run`` that does the work once through the entry points it
is given (plain or traced) and returns a ``Pass`` with one ``Op`` per
operation, and a ``check`` that compares the pass's outputs with answers
known independently of the code under test.  A wrong answer fails its op
and makes the run incorrect; an op that raised fails without being wrong.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from opetope_kit import EnumerationBudget, RootedTree, emit_dsl, emit_json, is_dfc
from opetope_kit import three_cell_from_tree, two_cell
from opetope_kit.cli import main as plain_cli_main

clock = time.perf_counter


@dataclass
class Op:
    """One timed operation of a pass."""

    seconds: float
    ok: bool = True


@dataclass
class Pass:
    ops: list[Op]
    counts: dict[str, int]
    outputs: list = field(repr=False)
    seconds: float = 0.0


@dataclass(frozen=True)
class Workload:
    setup: Callable[[str, int, str], dict]
    run: Callable[..., Pass]
    check: Callable[[dict, Pass], list[str]]


def _timed_ops(items, call, tracer) -> tuple[list[Op], list]:
    """Run ``call`` on each item as one op, closed loop, one at a time."""
    ops, outputs = [], []
    for number, item in enumerate(items):
        if tracer is not None:
            tracer.op = number
        start = clock()
        ok, output = call(item)
        ops.append(Op(clock() - start, ok))
        outputs.append(output)
    if tracer is not None:
        tracer.op = -1
    return ops, outputs


def _fail_wrong(ops: list[Op], wrong: list[str | None]) -> list[str]:
    for op, reason in zip(ops, wrong):
        if reason is not None:
            op.ok = False
    return [f"op {i}: {reason}" for i, reason in enumerate(wrong) if reason]


# -- census ---------------------------------------------------------------
#
# Why: the acceptance theorem's own workload.  Exhaustive enumeration of
# every complex of dimension <= 3 with <= 8 faces loads iso (canonical-form
# deduplication of ~12.7 candidates per class) and core (one FaceComplex
# per candidate); the two checkers then run on 1550 small complexes, almost
# all failing.  It bypasses cli, io_formats and paths.  An op is one
# class's two verdicts.  The budget fixes the input; the seed is unused.

CENSUS = {"full": ((3, 8), 1550, 5), "tiny": ((2, 5), 19, 3)}


def census_setup(scale: str, seed: int, directory: str) -> dict:
    (max_dim, max_faces), classes, both = CENSUS[scale]
    return {"budget": EnumerationBudget(max_dim, max_faces),
            "classes": classes, "both": both}


def census_run(inputs: dict, api, tracer=None) -> Pass:
    complexes = list(api.enumerate_pops(inputs["budget"]))
    ops, verdicts = _timed_ops(
        complexes,
        lambda c: (True, (api.is_dfc(c).passed, api.is_positive_opetope(c).passed)),
        tracer)
    return Pass(ops, {"classes": len(complexes),
                      "pass_both": sum(d and o for d, o in verdicts),
                      "disagreements": sum(d != o for d, o in verdicts)}, verdicts)


def census_check(inputs: dict, result: Pass) -> list[str]:
    problems = _fail_wrong(result.ops, ["the two suites disagree" if d != o else None
                                        for d, o in result.outputs])
    expected = {"classes": inputs["classes"], "pass_both": inputs["both"],
                "disagreements": 0}
    return problems + [f"{key}: expected {value}, got {result.counts[key]}"
                       for key, value in expected.items()
                       if result.counts[key] != value]


# -- opetope_search -------------------------------------------------------
#
# Why: the pruned search for positive opetopes, the path the enumerator
# rewrite targets.  It loads core (a FaceComplex build and re-validation
# per partial stage) and the pruner's relations closures; iso sees only the
# few survivors, and cli, io_formats, paths and dfc are bypassed.  An op is
# one whole search.  The counts were pinned at the first benchmarked commit;
# the tiny one matches the naive enumerator.
# The budget fixes the input; the seed is unused.

SEARCH = {"full": ((4, 9), 9), "tiny": ((3, 7), 5)}


def search_setup(scale: str, seed: int, directory: str) -> dict:
    (max_dim, max_faces), count = SEARCH[scale]
    return {"budget": EnumerationBudget(max_dim, max_faces), "count": count}


def search_run(inputs: dict, api, tracer=None) -> Pass:
    ops, found = _timed_ops(
        [inputs["budget"]],
        lambda budget: (True, list(api.enumerate_positive_opetopes(budget))),
        tracer)
    return Pass(ops, {"classes": len(found[0])}, found[0])


def search_check(inputs: dict, result: Pass) -> list[str]:
    problems = []
    if result.counts["classes"] != inputs["count"]:
        problems.append(f"opetopes: expected {inputs['count']}, "
                        f"got {result.counts['classes']}")
    rejected = sum(not is_dfc(c).passed for c in result.outputs)
    if rejected:
        problems.append(f"{rejected} opetopes fail is_dfc")
    return _fail_wrong(result.ops, ["; ".join(problems) or None])


# -- cells ----------------------------------------------------------------
#
# Why: the checkers on large valid cells, run through the CLI the way a
# user runs them.  It loads cli, io_formats, paths and the quadratic zpo,
# dfc and relations scans on passing inputs, and bypasses enumeration and
# iso.  Inputs: the ladder two_cell(n), n in 10/100/1000, validated by each
# suite; and 24 three-cells built from seeded random rooted trees of 5 to
# 150 nodes, each run through validate, tree, order, partition at dims 0
# and 1, zigzag and convert.  An op is one CLI command.  `validate --mode dfc` on
# two_cell(1000) hits the known RecursionError in dfc; it stays in as a
# failed op.

LADDER = {"full": (10, 100, 1000), "tiny": (10,)}
TREES = {"full": (24, 5, 150), "tiny": (1, 5, 8)}


def _random_tree(rng: random.Random, size: int) -> RootedTree:
    """A rooted tree of ``size`` nodes with ``size`` leaf slots.

    Each node hangs under its predecessor half the time and under a
    uniformly chosen earlier node otherwise, so trees mix long chains and
    bushy levels.  Each childless node gets one leaf slot and the other
    leaf slots land on random nodes, so arities vary while the cell's face
    count depends on ``size`` alone.
    """
    nodes = [f"a{i}" for i in range(size)]
    children: dict[int, list[int]] = {i: [] for i in range(size)}
    for i in range(1, size):
        children[i - 1 if rng.random() < 0.5 else rng.randrange(i)].append(i)
    leaf_slots = [0 if children[i] else 1 for i in range(size)]
    for _ in range(size - sum(leaf_slots)):
        leaf_slots[rng.randrange(size)] += 1
    arity, triplets, slots_made = {}, set(), 0
    for i in range(size):
        width = len(children[i]) + leaf_slots[i]
        slots = [f"e{slots_made + j}" for j in range(width)]
        slots_made += width
        rng.shuffle(slots)
        for child, slot in zip(children[i], slots):
            triplets.add((nodes[i], slot, nodes[child]))
        arity[nodes[i]] = frozenset(slots)
    return RootedTree(frozenset(nodes), arity, frozenset(triplets), nodes[0])


def _tree_sizes(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """``count`` sizes spread evenly over [low, high], in seeded order.

    The sizes are fixed so that a seed changes the shapes, not the amount
    of work: with sizes drawn at random, which tree sat at the median op
    moved with the seed, and so did op_p50_ms.
    """
    step = (high - low) / max(count - 1, 1)
    sizes = [round(low + i * step) for i in range(count)]
    rng.shuffle(sizes)
    return sizes


def _write(directory: str, name: str, complex_, fmt: str) -> tuple[str, bytes]:
    data = (emit_json(complex_) + "\n" if fmt == "json" else emit_dsl(complex_)).encode()
    path = os.path.join(directory, f"{name}.{fmt}")
    with open(path, "wb") as handle:
        handle.write(data)
    return path, data


def cells_setup(scale: str, seed: int, directory: str) -> dict:
    rng = random.Random(seed)
    commands = []
    for n in LADDER[scale]:
        path, _ = _write(directory, f"two_cell_{n}", two_cell(n), "dsl")
        for mode in ("dfc", "opetope"):
            commands.append((["validate", path, "--mode", mode, "--json"],
                             ("verdict", mode)))
    count, low, high = TREES[scale]
    sizes = _tree_sizes(rng, count, low, high)
    for number, size in enumerate(sizes):
        tree = _random_tree(rng, size)
        fmt, other = ("json", "dsl") if number % 2 == 0 else ("dsl", "json")
        path, data = _write(directory, f"tree_{number:02d}",
                            three_cell_from_tree(tree), fmt)
        # three_cell_from_tree threads the leaves along the points z0..zL,
        # and a tree of this size has L = size leaves.
        points = [f"z{i}" for i in range(size + 1)]
        start, end = rng.sample(sorted(tree.nodes), 2)
        commands += [
            (["validate", path, "--mode", "both", "--json"], ("verdict", "both")),
            (["tree", path, "--face", "A"], ("root", tree.root)),
            (["order", path], ("lines", points)),
            (["partition", path, "--dim", "0"], ("exit",)),
            (["partition", path, "--dim", "1"], ("exit",)),
            (["zigzag", path, "--anchor", "A", "--from", start, "--to", end], ("exit",)),
            (["convert", path, "--to", other], ("round_trip", fmt, other, data)),
        ]
    return {"commands": commands, "tree_sizes": sizes}


def _run_cli(main, argv: list[str], stdin: str = "") -> tuple[int | None, str, str]:
    """Exit code (None when main raised), stdout, and stderr or the error."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:  # the op failed; the pass goes on
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), err.getvalue()


def cells_run(inputs: dict, api, tracer=None) -> Pass:
    def call(command):
        result = _run_cli(api.cli_main, command[0])
        return result[0] == 0, result

    ops, outputs = _timed_ops(inputs["commands"], call, tracer)
    return Pass(ops, {"ops": len(ops), "exit_0": sum(op.ok for op in ops)}, outputs)


def cells_check(inputs: dict, result: Pass) -> list[str]:
    return _fail_wrong(result.ops, [
        _wrong_answer(expect, code, out, err)
        for (_, expect), (code, out, err) in zip(inputs["commands"], result.outputs)])


def _wrong_answer(expect: tuple, code: int | None, out: str, err: str) -> str | None:
    """Why an op's output is not the known answer, or None when it is.

    An op that raised or exited 3 (internal error) crashed and gave no
    answer; it is already failed.  Every input is a valid cell, so any
    other non-zero exit is a wrong answer.
    """
    if code is None or code == 3:
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    kind = expect[0]
    if kind == "verdict":
        try:
            report = json.loads(out)
        except ValueError:
            return "the report is not JSON"
        if report.get("verdict") != "pass":
            return f"verdict {report.get('verdict')} on a valid cell"
        if expect[1] == "both" and report.get("agreement") is not True:
            return "the two suites disagree"
    elif kind == "root":
        first = out.splitlines()[0] if out else ""
        if first != expect[1]:
            return f"tree root {first!r}, expected {expect[1]!r}"
    elif kind == "lines":
        if out.split() != expect[1]:
            return "point order differs from the construction"
    elif kind == "round_trip":
        _, fmt, other, data = expect
        code, back, _ = _run_cli(plain_cli_main,
                                 ["convert", "-", "--format", other, "--to", fmt],
                                 stdin=out)
        if code != 0 or back.encode() != data:
            return f"{fmt} -> {other} -> {fmt} does not reproduce the input"
    return None


WORKLOADS = {
    "census": Workload(census_setup, census_run, census_check),
    "opetope_search": Workload(search_setup, search_run, search_check),
    "cells": Workload(cells_setup, cells_run, cells_check),
}
