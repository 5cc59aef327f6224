import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from opetope_kit import (
    FaceComplex,
    RootedTree,
    emit_dsl,
    emit_json,
    parse_dsl,
    parse_json,
    three_cell_from_tree,
    three_one,
    two_cell,
)
from opetope_kit.cli import main

from helpers import mutate_bytes, wrong_shape_documents


@pytest.fixture()
def two2_dsl(tmp_path):
    path = tmp_path / "two2.dsl"
    path.write_text(emit_dsl(two_cell(2)))
    return str(path)


@pytest.fixture()
def two2_json(tmp_path):
    path = tmp_path / "two2.json"
    path.write_text(emit_json(two_cell(2)))
    return str(path)


@pytest.fixture()
def two_points_dsl(tmp_path):
    path = tmp_path / "twopoints.dsl"
    path.write_text("face a : 0\nface b : 0\n")
    return str(path)


def test_validate_both_pass(two2_dsl, capsys):
    assert main(["validate", two2_dsl, "--mode", "both"]) == 0
    out = capsys.readouterr().out
    assert "dfc: pass" in out
    assert "opetope: pass" in out
    assert "agreement: yes" in out


def test_validate_dfc_failure(two_points_dsl, capsys):
    assert main(["validate", two_points_dsl, "--mode", "dfc"]) == 1
    out = capsys.readouterr().out
    assert "dfc: fail" in out
    assert "greatest-element" in out


def test_validate_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.dsl"
    path.write_text("tgt f ->\n")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1" in err


def test_validate_base_failure(tmp_path, capsys):
    path = tmp_path / "clash.dsl"
    path.write_text(
        "face x : 0\nface y : 0\nface f : 1\ntgt f -> y\nsrc f <- x, y\n")
    assert main(["validate", str(path), "--mode", "opetope"]) == 1
    out = capsys.readouterr().out
    assert "base: fail" in out


@pytest.mark.parametrize("name, text, axioms", [
    ("huge.dsl", "face x : 1000000\n", ["EmptySources", "MissingTarget"]),
    ("huge.json", '{"faces": {"y": 0, "x": 1000000}, "target": {"x": "y"},'
                  ' "sources": {"x": ["y"]}}', ["GradingViolation"] * 2),
])
def test_validate_huge_dimension_is_a_base_failure(tmp_path, capsys, name, text, axioms):
    path = tmp_path / name
    path.write_text(text)
    assert main(["validate", str(path), "--json"]) == 1
    base = json.loads(capsys.readouterr().out)["checks"]["base"]
    assert [v["axiom"] for v in base["violations"]] == axioms


def test_validate_modes_pop_cardinal(two2_dsl, capsys):
    assert main(["validate", two2_dsl, "--mode", "pop"]) == 0
    assert main(["validate", two2_dsl, "--mode", "phg"]) == 0
    assert main(["validate", two2_dsl, "--mode", "cardinal"]) == 0
    assert main(["validate", two2_dsl, "--mode", "opetope"]) == 0
    capsys.readouterr()


def test_validate_json_report_schema(two2_json, capsys):
    assert main(["validate", two2_json, "--mode", "both", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "agreement": True,
        "checks": {
            "dfc": {"verdict": "pass", "violations": []},
            "opetope": {"verdict": "pass", "violations": []},
        },
        "mode": "both",
        "verdict": "pass",
    }


def test_validate_json_failure_schema(two_points_dsl, capsys):
    assert main(["validate", two_points_dsl, "--mode", "dfc", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "fail"
    violation = payload["checks"]["dfc"]["violations"][0]
    assert sorted(violation) == ["axiom", "detail", "witnesses"]


def test_format_sniffing_and_override(tmp_path, capsys):
    odd = tmp_path / "two2.data"
    odd.write_text(emit_json(two_cell(2)))
    assert main(["validate", str(odd)]) == 2
    assert main(["validate", str(odd), "--format", "json"]) == 0
    capsys.readouterr()


def test_convert_round_trip(two2_dsl, capsys):
    assert main(["convert", two2_dsl, "--to", "json"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == emit_json(two_cell(2))
    assert main(["convert", two2_dsl, "--to", "dsl"]) == 0
    assert capsys.readouterr().out == emit_dsl(two_cell(2))


def test_order_output(two2_json, capsys):
    assert main(["order", two2_json]) == 0
    assert capsys.readouterr().out == "x0\nx1\nx2\n"


def test_order_requires_dfc(two_points_dsl, capsys):
    assert main(["order", two_points_dsl]) == 1
    assert "dfc: fail" in capsys.readouterr().err


def test_tree_output(two2_json, capsys):
    assert main(["tree", two2_json, "--face", "alpha"]) == 0
    assert capsys.readouterr().out == "f2\n  [x1] f1\n"


def test_tree_dot_output(two2_json, capsys):
    assert main(["tree", two2_json, "--face", "alpha", "--dot"]) == 0
    out = capsys.readouterr().out
    assert '"f1" -> "f2" [label="x1"];' in out


@pytest.mark.parametrize("extra", [[], ["--dot"]])
def test_tree_unknown_face_exits_1(two2_json, capsys, extra):
    assert main(["tree", two2_json, "--face", "nope", *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "unknown face 'nope'\n"


def test_partition_output(two2_dsl, capsys):
    assert main(["partition", two2_dsl, "--dim", "0"]) == 0
    assert capsys.readouterr().out == "f1: x0\nf2: x1\nleftover: x2\n"
    assert main(["partition", two2_dsl, "--dim", "1"]) == 0
    assert capsys.readouterr().out == "alpha: f1 f2\nleftover: h\n"


def test_partition_bad_dim(two2_dsl, capsys):
    assert main(["partition", two2_dsl, "--dim", "2"]) == 1
    capsys.readouterr()


def test_zigzag_output(two2_dsl, capsys):
    assert main(["zigzag", two2_dsl, "--anchor", "alpha",
                 "--from", "f1", "--to", "f2"]) == 0
    assert capsys.readouterr().out == "f1 >+ x1 <- f2\n"


def test_zigzag_precondition(two2_dsl, capsys):
    assert main(["zigzag", two2_dsl, "--anchor", "alpha",
                 "--from", "h", "--to", "f2"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["zigzag", "--anchor", "alpha", "--from", "h", "--to", "f1"],
     "h is not a source of alpha"),
    (["zigzag", "--anchor", "alpha", "--from", "nope", "--to", "f1"],
     "nope is not a source of alpha"),
    (["zigzag", "--anchor", "x0", "--from", "f1", "--to", "f2"],
     "face x0 has dimension 0"),
    (["zigzag", "--anchor", "nope", "--from", "f1", "--to", "f2"],
     "unknown face 'nope'"),
    (["partition", "--dim", "2"], "partition needs 0 <= 2 < dim = 2"),
    (["partition", "--dim", "-1"], "partition needs 0 <= -1 < dim = 2"),
])
def test_command_preconditions_come_from_the_library(two2_dsl, capsys, argv, message):
    assert main([argv[0], two2_dsl, *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


_ARROW_JSON = {"faces": {"x": 0, "y": 0, "f": 1}, "target": {"f": "y"},
               "sources": {"f": ["x"]}}


def _arrow_json(**changes):
    """The arrow as JSON text, with the given top-level keys replaced."""
    return json.dumps({**_ARROW_JSON, **changes})


@pytest.mark.parametrize("command, text, message", [
    ("validate", "[]", "at $: top level must be an object"),
    ("validate", "{}", "at faces: missing"),
    ("validate", '{"faces": []}', "at faces: must be an object mapping names to dimensions"),
    ("validate", _arrow_json(target=[]), "at target: must be an object"),
    ("validate", _arrow_json(sources=[]), "at sources: must be an object"),
    ("validate", _arrow_json(sources={"f": ["x"], "x": ["y"]}),
     "at sources.x: dimension-0 faces take no sources"),
    ("validate", _arrow_json(sources={"f": []}),
     "at sources.f: must be a nonempty array of face names"),
    ("validate", _arrow_json(sources={}), "at sources.f: missing"),
    ("validate", _arrow_json(target={}), "at target.f: missing"),
    ("validate", '{"faces": {"x": 0, "x": 1}}', "at $: key 'x' appears twice in one object"),
    ("morphism", "x -> x\n", "map line 1: expected 'a => b'"),
    ("morphism", "x => x\nx => y\ny => y\nf => f\n", "map line 2: x is mapped twice"),
    ("morphism", "x =>\ny => y\nf => f\n", "map sends x to unknown face ''"),
    ("morphism", "=> x\nx => x\ny => y\nf => f\n", "map mentions unknown source face ''"),
    ("morphism", "x => x => y\ny => y\nf => f\n", "map sends x to unknown face 'x => y'"),
    ("morphism", "x => x\x00\ny => y\nf => f\n", "map sends x to unknown face 'x\\x00'"),
    ("morphism", b"x => x\ny => \xff\nf => f\n",
     "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    ("morphism", None, "[Errno 2] No such file or directory: '{path}'"),
], ids=["top-level-array", "no-faces", "faces-array", "target-array", "sources-array",
        "point-with-sources", "empty-sources", "missing-sources", "missing-target",
        "duplicate-key", "map-line-without-arrow", "face-mapped-twice", "map-no-image",
        "map-no-preimage", "map-two-arrows", "map-nul-byte", "map-invalid-utf8",
        "map-missing-file"])
def test_parse_errors_exit_2_with_one_line(tmp_path, capsys, command, text, message):
    """``text`` is the validated document, or the map file of a morphism
    from the arrow to itself (None: no such file)."""
    path = tmp_path / "input"
    if text is not None:
        path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    arrow = tmp_path / "arrow.json"
    arrow.write_text(_arrow_json())
    argv = {"validate": ["validate", str(path), "--format", "json"],
            "morphism": ["morphism", "--from", str(arrow), "--to", str(arrow),
                         "--map", str(path)]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message.format(path=path) + "\n"


def test_enumerate_count(capsys):
    assert main(["enumerate", "--max-dim", "2", "--max-faces", "7",
                 "--opetopes-only", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_enumerate_listing(capsys):
    assert main(["enumerate", "--max-dim", "1", "--max-faces", "3",
                 "--opetopes-only"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(line.startswith('{"faces"') for line in lines)


def test_enumerate_emit_dir(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    assert main(["enumerate", "--max-dim", "1", "--max-faces", "3",
                 "--emit-dir", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["pop_00000.json", "pop_00001.json",
                     "pop_00002.json", "pop_00003.json"]
    capsys.readouterr()


def test_enumerate_work_limit(monkeypatch, capsys):
    monkeypatch.setenv("OPETOPE_KIT_WORK_LIMIT", "5")
    assert main(["enumerate", "--max-dim", "2", "--max-faces", "6",
                 "--count-only"]) == 1
    assert "work limit" in capsys.readouterr().err


def test_export_dot(two2_dsl, capsys):
    assert main(["export-dot", two2_dsl]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph hasse {")
    assert '"f1" -> "alpha" [sign="-", style=solid];' in out


def test_morphism_pass(tmp_path, capsys):
    src = tmp_path / "arrow.dsl"
    src.write_text("face x : 0\nface y : 0\nface f : 1\ntgt f -> y\nsrc f <- x\n")
    dst = tmp_path / "two2.json"
    dst.write_text(emit_json(two_cell(2)))
    mapping = tmp_path / "map.txt"
    mapping.write_text("# embedding\nx => x0\ny => x1\nf => f1\n")
    assert main(["morphism", "--from", str(src), "--to", str(dst),
                 "--map", str(mapping)]) == 0
    assert "morphism: pass" in capsys.readouterr().out


def test_morphism_failure(tmp_path, capsys):
    src = tmp_path / "arrow.dsl"
    src.write_text("face x : 0\nface y : 0\nface f : 1\ntgt f -> y\nsrc f <- x\n")
    dst = tmp_path / "two2.json"
    dst.write_text(emit_json(two_cell(2)))
    mapping = tmp_path / "map.txt"
    mapping.write_text("x => x0\ny => x2\nf => f1\n")
    assert main(["morphism", "--from", str(src), "--to", str(dst),
                 "--map", str(mapping)]) == 1
    out = capsys.readouterr().out
    assert "target-commuting" in out


def test_morphism_unknown_face(tmp_path, capsys):
    src = tmp_path / "point.json"
    src.write_text(emit_json(three_one()))
    mapping = tmp_path / "map.txt"
    mapping.write_text("x0 => nowhere\n")
    assert main(["morphism", "--from", str(src), "--to", str(src),
                 "--map", str(mapping)]) == 2
    capsys.readouterr()


def test_disagreement_exits_3(two2_dsl, capsys, monkeypatch):
    # the two characterizations provably agree, so fake one check to
    # exercise the triage path reserved for impossible disagreements
    import opetope_kit.cli as cli
    from opetope_kit import AxiomReport, Violation

    monkeypatch.setattr(
        cli, "is_positive_opetope",
        lambda c: AxiomReport((Violation("principality", (), "faked"),)))
    assert main(["validate", two2_dsl, "--mode", "both"]) == 3
    captured = capsys.readouterr()
    assert "agreement: NO" in captured.out
    assert "repro dump" in captured.err
    assert '"faces"' in captured.err


def test_internal_invariant_exits_3(two2_dsl, capsys, monkeypatch):
    import opetope_kit.cli as cli
    from opetope_kit.errors import InternalInvariantBroken

    def boom(complex_):
        raise InternalInvariantBroken("forced")

    monkeypatch.setattr(cli, "linear_order_s0", boom)
    assert main(["order", two2_dsl]) == 3
    assert "internal invariant" in capsys.readouterr().err


def test_stdin_requires_format(capsys, monkeypatch, tmp_path):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO("face x : 0\n"))
    assert main(["validate", "-"]) == 2
    capsys.readouterr()


class _UnreadableStdin:
    def read(self, *args):
        raise AssertionError("stdin read before the missing --format was rejected")


def test_stdin_without_format_is_rejected_before_reading(two2_dsl, capsys, monkeypatch, tmp_path):
    """An interactive ``-`` without ``--format`` exits 2 at once instead of
    waiting for the end of input."""
    mapping = tmp_path / "map.txt"
    mapping.write_text("".join(f"{x} => {x}\n" for x in two_cell(2).faces()))
    monkeypatch.setattr(sys, "stdin", _UnreadableStdin())
    assert main(["validate", "-"]) == 2
    assert main(["morphism", "--from", "-", "--to", two2_dsl, "--map", str(mapping)]) == 2
    assert capsys.readouterr().err.count("requires --format") == 2


BOM_FILES = {
    "arrow.dsl": "face x : 0\nface y : 0\nface f : 1\ntgt f -> y\nsrc f <- x\n",
    "bad.dsl": " face x 0\n",
    "two2.json": emit_json(two_cell(2)),
    "map.txt": "x => x0\ny => x1\nf => f1\n",
}


@pytest.mark.parametrize("name", sorted(BOM_FILES))
def test_a_leading_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch, name):
    """Each command gives the same exit code and report whether or not
    ``name`` (a DSL, JSON or map file, or its text on stdin) starts with a
    UTF-8 byte-order mark."""
    for file, text in BOM_FILES.items():
        (tmp_path / file).write_text(text, encoding="utf-8")
    arrow, bad, two2, mapping = (str(tmp_path / file) for file in BOM_FILES)
    argvs = [["validate", arrow, "--mode", "both"], ["validate", bad],
             ["validate", two2, "--mode", "both", "--json"],
             ["morphism", "--from", arrow, "--to", two2, "--map", mapping]]
    if name != "map.txt":
        argvs.append(["validate", "-", "--format", name.rsplit(".", 1)[1]])

    def run(prefix):
        text = prefix + BOM_FILES[name]
        (tmp_path / name).write_text(text, encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        return [(main(argv), *capsys.readouterr()) for argv in argvs]

    plain = run("")
    assert [code for code, *_ in plain[:4]] == [0, 2, 0, 0]
    assert run("\ufeff") == plain


def _frame_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_validate_dfc_on_a_wide_two_cell(tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(emit_json(two_cell(1500)))
    assert main(["validate", str(path), "--mode", "dfc", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"]["dfc"] == {"verdict": "pass", "violations": []}


def test_tree_walks_do_not_recurse(tmp_path, capsys):
    """A chain tree deeper than the stack allows still builds and renders."""
    depth = 300
    chain = RootedTree(
        nodes=frozenset(f"n{i}" for i in range(depth)),
        arity={f"n{i}": frozenset({f"a{i}", f"b{i}"}) for i in range(depth)},
        triplets=frozenset((f"n{i}", f"b{i}", f"n{i + 1}")
                           for i in range(depth - 1)),
        root="n0")
    path = tmp_path / "chain.dsl"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_frame_depth() + 100)
    try:
        path.write_text(emit_dsl(three_cell_from_tree(chain)))
        assert main(["tree", str(path), "--face", "A"]) == 0
    finally:
        sys.setrecursionlimit(limit)
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["n0"] + [f"{'  ' * i}[b{i - 1}] n{i}" for i in range(1, depth)]


@pytest.mark.parametrize("argv, env, content, code", [
    (["validate", "{file}"], {}, b"face x : 0\n\xff\n", 2),
    (["enumerate", "--max-dim", "-1", "--max-faces", "3"], {}, None, 2),
    (["enumerate", "--max-dim", "1", "--max-faces", "0"], {}, None, 2),
    (["enumerate", "--max-dim", "1", "--max-faces", "3", "--count-only"],
     {"OPETOPE_KIT_WORK_LIMIT": "abc"}, None, 2),
    (["enumerate", "--max-dim", "2", "--max-faces", "6"],
     {"OPETOPE_KIT_WORK_LIMIT": "-3"}, None, 2),
    (["convert", "{file}", "--to", "dsl"], {},
     emit_json(FaceComplex({"café": 0}, {}, {})).encode("utf-8"), 1),
    (["morphism", "--from", "{source}", "--to", "{target}", "--map", "{source}"],
     {}, {"source": b'{"faces":{"x":0,"f":1},"target":{"f":"x"},'
                    b'"sources":{"f":["x"]}}',
          "target": b"{"}, 2),
    (["enumerate", "--max-dim", "1500", "--max-faces", "1500", "--count-only"],
     {}, None, 1),
    (["enumerate", "--max-dim", "40", "--max-faces", "40", "--count-only"],
     {}, None, 1),
    (["validate", "{file}", "--format", "json"], {}, b"[" * 100000, 2),
    (["validate", "{file}", "--format", "json"], {},
     b'{"faces":{"a":' + b"9" * 5000 + b"}}", 2),
    (["validate", "{file}"], {}, b"face a : " + b"9" * 5000 + b"\n", 2),
    (["validate", "{file}", "--format", "json"], {}, b'{"faces":{"x":1,"x":0}}', 2),
    (["morphism", "--from", "{arrow}", "--to", "{arrow}", "--map", "{map}"],
     {}, {"arrow": b'{"faces":{"x":0,"y":0,"f":1},"target":{"f":"y"},'
                   b'"sources":{"f":["x"]}}',
          "map": b"x => x\nx => y\ny => y\nf => f\n"}, 2),
], ids=["non-utf8-input", "negative-max-dim", "zero-max-faces",
        "bad-work-limit", "negative-work-limit", "non-ascii-name-to-dsl",
        "parse-error-before-base", "deep-budget", "wide-budget",
        "deep-json", "long-json-number", "long-dsl-dimension",
        "duplicate-json-key", "face-mapped-twice"])
def test_exit_code_contract(tmp_path, argv, env, content, code):
    """Bad input exits with its contract code and a one-line message.

    ``content`` is the text of ``{file}``, or a map from placeholder names
    to the texts of several files."""
    suffix = ".dsl" if argv[0] == "validate" else ".json"
    files = content if isinstance(content, dict) else {"file": content}
    paths = {key: str(tmp_path / (key + suffix)) for key in files}
    for key, data in files.items():
        if data is not None:
            pathlib.Path(paths[key]).write_bytes(data)
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "opetope_kit.cli"]
        + [arg.format(**paths) for arg in argv],
        env=full_env, capture_output=True, text=True, timeout=60)
    assert done.returncode == code
    assert "Traceback" not in done.stderr
    assert len(done.stderr.strip().splitlines()) == 1


def _run_fresh(argv, env):
    """Exit code, stdout and stderr of ``argv`` in a new interpreter."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(env, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "opetope_kit.cli"] + argv,
                          env=env, capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout, done.stderr


def test_parser_is_built_once_and_reused(two2_dsl, capsys, monkeypatch):
    """One process, several commands: each prints what a fresh process
    prints, so no option of one call leaks into the next, and the argument
    parser is built by the first call only."""
    import opetope_kit.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    commands = [["validate", two2_dsl, "--json"], ["validate", two2_dsl],
                ["validate", two2_dsl, "--mode", "nope"], ["order", two2_dsl]]
    cli._parser.cache_clear()
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as err:
            code = err.code
        out, err = capsys.readouterr()
        assert (code, out, err) == _run_fresh(argv, os.environ)
    assert (cli._parser.cache_info().misses, cli._parser.cache_info().hits) == (1, 3)


_FUZZ_COMMANDS = ("validate", "convert", "tree", "order", "partition",
                  "zigzag", "export-dot")


def _fuzz_argv(command, path, complex_):
    """Arguments for ``command`` that make sense for the unmutated file."""
    if command == "convert":
        return ["convert", path, "--to", "json" if path.endswith(".dsl") else "dsl"]
    if command == "tree":
        return ["tree", path, "--face", complex_.faces()[-1]]
    if command == "partition":
        return ["partition", path, "--dim", "0"]
    if command == "zigzag":
        anchor = next((x for x in complex_.faces() if complex_.dim(x) >= 1
                       and len(complex_.delta(x)) >= 2), complex_.faces()[-1])
        ends = sorted(complex_.delta(anchor)) if complex_.dim(anchor) else [anchor]
        return ["zigzag", path, "--anchor", anchor, "--from", ends[0],
                "--to", ends[-1]]
    return [command, path]


def test_cli_fuzzed_corpus_keeps_the_exit_code_contract(tmp_path):
    """Byte-mutated corpus files through every file-reading command, in
    process: each returns 0, 1 or 2 and prints no traceback, and at least
    a tenth of the mutated files still parse."""
    rng, rounds = random.Random(11), 40
    corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    files = sorted(corpus.glob("*.dsl")) + sorted(corpus.glob("*.json"))
    donors = [f.read_bytes() for f in files]
    complexes = [(parse_dsl if f.suffix == ".dsl" else parse_json)(
        data.decode("utf-8")).build() for f, data in zip(files, donors)]
    parsed = calls = 0
    for _ in range(rounds):
        for source, original, complex_ in zip(files, donors, complexes):
            data = mutate_bytes(original, rng, donors)
            path = tmp_path / f"fuzz{source.suffix}"
            path.write_bytes(data)
            for command in _FUZZ_COMMANDS:
                argv = _fuzz_argv(command, str(path), complex_)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
                calls += 1
                parsed += command == "validate" and code != 2
                assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), \
                    (argv[0], data)
    assert calls == rounds * len(files) * len(_FUZZ_COMMANDS)
    assert parsed >= 0.1 * rounds * len(files)


def test_wrong_shape_json_keeps_the_exit_code_contract(monkeypatch):
    """Every value of every corpus JSON file, the document itself included,
    replaced by each wrong-shape value and validated in process from
    stdin: no exception escapes ``main`` and each call returns 0, 1 or 2."""
    corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    codes = Counter()
    for file in sorted(corpus.glob("*.json")):
        data = json.loads(file.read_text(encoding="utf-8"))
        for document in wrong_shape_documents(data):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(document)))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes[main(["validate", "-", "--format", "json"])] += 1
    assert codes == {2: 3306, 0: 52, 1: 26}


def _run_in_process(argv):
    """Exit code, stdout and stderr of ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# map files from the arrow into two_cell(2): an embedding, and a map that
# breaks target-commuting (the target y of f goes to x2, not to x1)
_ARROW_MAPS = (b"# embedding\nx => x0\ny => x1\nf => f1\n",
               b"# not a morphism\nx => x0\ny => x2\nf => f1\n")


def test_mutated_map_files_keep_the_exit_code_contract(tmp_path):
    """Seeded byte edits of two map files from the arrow into two_cell(2),
    one that passes and one that fails: each call returns 0, 1 or 2,
    prints no traceback, and writes one stderr line exactly when it exits
    2."""
    rng = random.Random(5)
    source, target, map_file = tmp_path / "arrow.json", tmp_path / "two2.json", tmp_path / "map"
    source.write_text(_arrow_json())
    target.write_text(emit_json(two_cell(2)))
    argv = ["morphism", "--from", str(source), "--to", str(target), "--map", str(map_file)]
    donors = list(_ARROW_MAPS) + [b"=> # =>", "é => ü\n".encode("utf-8")]
    codes = Counter()
    for number in range(150):
        data = mutate_bytes(_ARROW_MAPS[number % 2], rng, donors)
        map_file.write_bytes(data)
        code, _, err = _run_in_process(argv)
        codes[code] += 1
        assert code in (0, 1, 2) and "Traceback" not in err, data
        assert len(err.splitlines()) == (code == 2), (data, err)
    assert codes == {0: 36, 1: 32, 2: 82}


def test_mutated_enumerate_arguments_keep_the_exit_code_contract(monkeypatch):
    """Seeded ``enumerate`` calls with out-of-range, extreme or malformed
    budgets, random flags and tiny or malformed work limits: each returns 0, 1 or 2
    and writes one stderr line exactly when it does not exit 0, and a
    malformed budget always returns 2."""
    rng = random.Random(3)
    malformed = ["x", "1.5", ""]
    sizes = ["-7", "-1", "0", "1", "2", "3", "5", "8", "13", "40", "1500", str(10 ** 30),
             *malformed]
    limits = ["0", "1", "3", "12", "40", "-1", "abc", "1.5", " 2 ", "+4", "1_0", "0x10", "٣"]
    flags = ["--opetopes-only", "--count-only"]
    codes = Counter()
    for _ in range(150):
        limit = rng.choice(limits)
        monkeypatch.setenv("OPETOPE_KIT_WORK_LIMIT", limit)
        argv = ["enumerate", "--max-dim", rng.choice(sizes), "--max-faces", rng.choice(sizes)]
        argv += [flag for flag in flags if rng.random() < 0.5]
        code, _, err = _run_in_process(argv)
        codes[code] += 1
        assert code in (0, 1, 2) and "Traceback" not in err, (argv, limit)
        assert len(err.splitlines()) == (code != 0), (argv, limit, err)
        assert code == 2 or not {argv[2], argv[4]} & set(malformed), (argv, limit)
    assert codes == {0: 6, 1: 34, 2: 110}


@pytest.mark.parametrize("argv", [
    ["enumerate", "--max-dim", "x", "--max-faces", "3"],
    ["enumerate", "--max-dim", "2"],
    [],
    ["validate", "f.dsl", "--mode", "nope"],
    ["nope"],
], ids=["non-integer-max-dim", "missing-max-faces", "no-arguments",
        "unknown-mode", "unknown-command"])
def test_usage_errors_exit_2_with_one_line(argv):
    """An argument the parser rejects returns 2 from ``main``, raising
    nothing, with one stderr line that names the command and no usage
    block."""
    code, out, err = _run_in_process(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("opetope-kit"), err


def test_help_exits_0():
    code, out, err = _run_in_process(["--help"])
    assert code == 0 and out.startswith("usage: opetope-kit") and err == ""
