import hashlib
import json
import pathlib
import random
import re
from collections import Counter

import pytest

from opetope_kit import (
    AxiomReport,
    DslSyntaxError,
    DuplicateDeclaration,
    JsonShapeError,
    NonAsciiName,
    arrow,
    emit_dot_hasse,
    emit_dot_tree,
    emit_dsl,
    emit_json,
    parse_dsl,
    parse_json,
)
from opetope_kit.io_formats import _DSL_HEAD, _DSL_LINE, _DSL_STATEMENTS

from helpers import mutate_bytes, wrong_shape_documents

ARROW_TEXT = "face x : 0\nface y : 0\nface f : 1\ntgt f -> y\nsrc f <- x"

TWO2_TEXT = """\
# the binary 2-cell
face x0 : 0
face x1 : 0
face x2 : 0
face f1 : 1
face f2 : 1
face h : 1
face alpha : 2

src f1 <- x0
tgt f1 -> x1
src f2 <- x1
tgt f2 -> x2
src h <- x0
tgt h -> x2
src alpha <- f1, f2
tgt alpha -> h
"""


def test_parse_arrow_document(fix_arrow):
    doc = parse_dsl(ARROW_TEXT)
    assert doc.faces == [("x", 0), ("y", 0), ("f", 1)]
    assert doc.build() == fix_arrow


def test_parse_two2_document(two2):
    assert parse_dsl(TWO2_TEXT).build() == two2


def test_whitespace_insensitive(fix_arrow):
    text = "  face   x:0\nface y :0\nface f : 1\n tgt f->y\nsrc f<-x"
    assert parse_dsl(text).build() == fix_arrow


def test_syntax_error_positions():
    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("tgt f ->")
    assert err.value.line == 1
    assert err.value.expected == "target face name"

    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("face x : 0\nblah x")
    assert err.value.line == 2
    assert "face" in err.value.expected

    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("face x : zero")
    assert err.value.expected == "dimension"

    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("face x : 0 trailing")
    assert err.value.expected == "end of line"


def test_duplicate_declarations():
    with pytest.raises(DuplicateDeclaration):
        parse_dsl("face x : 0\nface x : 1")
    with pytest.raises(DuplicateDeclaration):
        parse_dsl("face f : 1\ntgt f -> a\ntgt f -> b")
    with pytest.raises(DuplicateDeclaration):
        parse_dsl("face f : 1\nsrc f <- a\nsrc f <- b")
    with pytest.raises(DuplicateDeclaration):
        parse_dsl("face f : 1\nsrc f <- a, a")


def test_duplicate_source_names_first_repeat_in_list_order():
    with pytest.raises(DuplicateDeclaration) as err:
        parse_dsl("face f : 1\nsrc f <- a, b, b, a")
    assert str(err.value) == "line 2: duplicate declaration (source a of f)"


def test_dim0_subject_is_a_parse_error():
    with pytest.raises(DslSyntaxError) as err:
        parse_dsl("face x : 0\nface y : 0\ntgt x -> y")
    assert err.value.line == 3
    with pytest.raises(DslSyntaxError):
        parse_dsl("face x : 0\nface y : 0\nsrc x <- y")


def test_undeclared_subject_is_deferred_to_build():
    doc = parse_dsl("face x : 0\ntgt g -> x")
    report = doc.build()
    assert isinstance(report, AxiomReport)
    assert "UnknownFaceReference" in report.failed_axioms()


def test_dsl_round_trip(two2, three1, corpus):
    for complex_ in [two2, three1] + list(corpus.values()):
        text = emit_dsl(complex_)
        assert parse_dsl(text).build() == complex_
        assert emit_dsl(parse_dsl(text).build()) == text


def test_dsl_rejects_non_ascii_names(fix_point):
    fancy = fix_point.relabel({"x": "café"})
    with pytest.raises(NonAsciiName):
        emit_dsl(fancy)


def test_primed_names_are_fine(fix_arrow):
    primed = fix_arrow.relabel({"x": "x'", "y": "y'", "f": "f'"})
    assert parse_dsl(emit_dsl(primed)).build() == primed


def test_emit_json_golden(fix_arrow):
    assert emit_json(fix_arrow) == (
        '{"faces":{"f":1,"x":0,"y":0},"sources":{"f":["x"]},"target":{"f":"y"}}')


def test_json_round_trip(two2, three1, corpus):
    for complex_ in [two2, three1] + list(corpus.values()):
        text = emit_json(complex_)
        assert parse_json(text).build() == complex_
        assert emit_json(parse_json(text).build()) == text


def test_json_shape_errors():
    with pytest.raises(JsonShapeError) as err:
        parse_json('{"faces":{"f":1}}')
    assert err.value.path == "target.f"

    with pytest.raises(JsonShapeError) as err:
        parse_json('{"faces":{"x":0},"target":{"x":"x"}}')
    assert err.value.path == "target.x"

    with pytest.raises(JsonShapeError) as err:
        parse_json('{"faces":{"x":0},"sources":{"g":["x"]}}')
    assert err.value.path == "sources.g"

    with pytest.raises(JsonShapeError) as err:
        parse_json('{"faces":{"x":0,"f":1},"target":{"f":"x"},'
                   '"sources":{"f":["x","x"]}}')
    assert err.value.path == "sources.f[1]"

    with pytest.raises(JsonShapeError) as err:
        parse_json('{"faces":{"x":-1}}')
    assert err.value.path == "faces.x"

    with pytest.raises(JsonShapeError) as err:
        parse_json('{"surprise":1}')
    assert err.value.path == "surprise"

    with pytest.raises(JsonShapeError) as err:
        parse_json("{not json")
    assert err.value.path == "$"


def test_json_allows_unicode_names():
    text = '{"faces":{"café":0},"sources":{},"target":{}}'
    built = parse_json(text).build()
    assert built.faces() == ("café",)
    assert emit_json(built) == '{"faces":{"café":0},"sources":{},"target":{}}'


def test_json_metadata_is_checked_and_ignored():
    text = ('{"description":"tiny","faces":{"x":0},"name":"pt",'
            '"sources":{},"target":{}}')
    doc = parse_json(text)
    assert doc == parse_json('{"faces":{"x":0},"sources":{},"target":{}}')
    assert not hasattr(doc, "name") and not hasattr(doc, "description")
    assert emit_json(doc.build()) == '{"faces":{"x":0},"sources":{},"target":{}}'
    for key in ("name", "description"):
        with pytest.raises(JsonShapeError) as err:
            parse_json('{"faces":{"x":0},"%s":7}' % key)
        assert err.value.path == key


def test_round_trip_on_enumerated_instances(small_pops):
    for complex_ in small_pops:
        assert parse_dsl(emit_dsl(complex_)).build() == complex_
        assert parse_json(emit_json(complex_)).build() == complex_


def test_emit_deterministic(two2):
    assert emit_json(two2) == emit_json(two2)
    assert emit_dsl(two2) == emit_dsl(two2)
    assert emit_dot_hasse(two2) == emit_dot_hasse(two2)


def test_dot_hasse_golden(fix_arrow):
    assert emit_dot_hasse(fix_arrow) == (
        'digraph hasse {\n'
        '  { rank=same; "x" [label="x:0"]; "y" [label="y:0"]; }\n'
        '  { rank=same; "f" [label="f:1"]; }\n'
        '  "x" -> "f" [sign="-", style=solid];\n'
        '  "y" -> "f" [sign="+", style=dashed];\n'
        '}\n')


def test_dot_hasse_point(fix_point):
    text = emit_dot_hasse(fix_point)
    assert text.count("->") == 0
    assert '"x" [label="x:0"];' in text


def test_dot_tree_golden(two2):
    assert emit_dot_tree(two2, "alpha") == (
        'digraph face_tree {\n'
        '  "f1" [label="f1"];\n'
        '  "f2" [label="f2"];\n'
        '  "f1" -> "f2" [label="x1"];\n'
        '}\n')


# Statement shapes the single-character edits start from: every kind, with
# free whitespace, tabs, primed names, multi-digit dimensions and lists.
_DSL_SHAPES = (
    "face x : 0", "face f : 1", "  face\tx1' :12  ", "face f:2",
    "tgt f -> y", "tgt f->x", "\ttgt  g' ->  x ",
    "src f <- x", "src f<-x", "src alpha <- f1, f2, f3", "src a <- b ,c,\td ",
)
_DSL_EDIT_CHARS = (" ", "\t", "x", "0", "9", ":", ",", "-", ">", "<", "#",
                   "é", "'", "_", "\xa0")
_DSL_TOKENS = ("face", "tgt", "src", "x", "f", "y1", "a'", "_b", "0", "1",
               "12", ":", "->", "<-", ",", "#", "\t", " ", "é", "-", ">", "<")
_DSL_BASE = "face x : 0\nface f : 1\ntgt g -> x\nsrc g <- x\n"
_DSL_POOL = (
    "face x : 0", "face y : 0", "face f : 1", "face g : 1", "face x : 1",
    "face a : 2", "tgt f -> y", "tgt g -> x", "tgt x -> y", "tgt f -> x",
    "src f <- x", "src g <- x, y", "src a <- f, g", "src y <- x",
    "src g <- y, y", "src a <- g, f, g", "tgt a -> h", "", "  ", "# note",
    "\t# face", "\xa0", "face h : 1 junk", "src f <- ",
)


def _dsl_battery():
    """Seeded malformed and well-formed inputs for the line format: every
    single-character insert and delete on each statement shape (alone and
    after a small document), random token strings, and random documents."""
    rng = random.Random(7)
    lines = []
    for shape in _DSL_SHAPES:
        for i in range(len(shape) + 1):
            lines.extend(shape[:i] + ch + shape[i:] for ch in _DSL_EDIT_CHARS)
        lines.extend(shape[:i] + shape[i + 1:] for i in range(len(shape)))
    inputs = lines + [_DSL_BASE + line for line in lines]
    for _ in range(5000):
        line = "".join(tok + rng.choice(("", " ", " ", "\t"))
                       for tok in rng.choices(_DSL_TOKENS, k=rng.randint(1, 7)))
        inputs.append(line if rng.random() < 0.5 else _DSL_BASE + line)
    for _ in range(3000):
        picked = rng.choices(_DSL_POOL, k=rng.randint(1, 8))
        inputs.append(rng.choice(("\n", "\n", "\r\n", "\x0c")).join(picked))
    return inputs


def _dsl_outcome(text):
    try:
        doc = parse_dsl(text)
    except (DslSyntaxError, DuplicateDeclaration) as err:
        return err
    return (doc.faces, doc.target, doc.sources)


# SHA-256 over the outcome of parse_dsl (exception type and message, or the
# parsed faces, targets and sources) on every input of _dsl_battery,
# computed when each line was read by a token-by-token scanner.
DSL_OUTCOMES_SHA256 = "9a8bf7557f9633dac027fbbb578da00331d02d84ac7e9eae38e1ca29dc7032aa"


def test_dsl_parse_outcomes_are_pinned():
    inputs = _dsl_battery()
    digest = hashlib.sha256()
    expected, duplicates, parsed = set(), set(), 0
    for text in inputs:
        outcome = _dsl_outcome(text)
        if isinstance(outcome, DslSyntaxError):
            expected.add(outcome.expected)
        elif isinstance(outcome, DuplicateDeclaration):
            duplicates.add(re.search(r"\((\w+)", str(outcome)).group(1))
        else:
            parsed += 1
        if isinstance(outcome, Exception):
            outcome = (type(outcome).__name__, str(outcome))
        digest.update(repr((text, outcome)).encode("utf-8") + b"\n")
    assert expected == {
        "'face', 'tgt' or 'src'", "face name", "':'", "dimension", "'->'",
        "target face name", "'<-'", "source face name", "end of line",
        "a face of dimension >= 1"}
    assert duplicates == {"face", "target", "sources", "source"}
    assert parsed > 1000
    assert len(inputs) == 12650
    assert digest.hexdigest() == DSL_OUTCOMES_SHA256


def _line_reader_reading(line):
    """What the line reader makes of one line: (kind, name, value) for a
    statement it accepts, () for a blank or comment line, None otherwise."""
    if not line.strip() or line.strip().startswith("#"):
        return ()
    head = _DSL_HEAD.match(line)
    if head[2] not in _DSL_STATEMENTS:
        return None
    pattern, expected = _DSL_STATEMENTS[head[2]]
    match = pattern.match(line, head.end())
    return None if expected[match.lastindex or 0] else (head[2], match[1], match[3])


def test_whole_line_pattern_agrees_with_the_line_reader():
    """On every line of _dsl_battery, the one-pass pattern accepts exactly
    the lines the line reader accepts, and reads the same kind, subject
    and value from each."""
    kinds = Counter()
    for line in sorted({line for text in _dsl_battery() for line in text.splitlines()}):
        match = _DSL_LINE.fullmatch(line)
        reading = (None if match is None else () if match.lastgroup is None
                   else (match.lastgroup, *match.group(match.lastindex - 1, match.lastindex)))
        assert reading == _line_reader_reading(line), line
        kinds[reading[0] if reading else reading] += 1
    assert min(kinds[kind] for kind in ("face", "tgt", "src", (), None)) > 50


def _json_battery():
    """Each corpus JSON file, every wrong-shape document made from it (a
    value, or the whole document, replaced by a wrong-shape value), and
    seeded byte edits of it, decoded with replacement characters."""
    corpus = pathlib.Path(__file__).resolve().parents[1] / "corpus"
    originals = [f.read_bytes() for f in sorted(corpus.glob("*.json"))]
    inputs = [data.decode("utf-8") for data in originals]
    for data in originals:
        inputs.extend(json.dumps(doc) for doc in wrong_shape_documents(json.loads(data)))
    rng = random.Random(13)
    for _ in range(60):
        inputs.extend(mutate_bytes(data, rng, originals).decode("utf-8", "replace")
                      for data in originals)
    return inputs


# SHA-256 over the outcome of parse_json (the JsonShapeError's path and
# message, or the parsed faces, targets and sources) on every input of
# _json_battery, computed before parse_dsl and FaceComplex took one-pass
# accepting paths; parse_json itself is unchanged.
JSON_OUTCOMES_SHA256 = "512ff51abb3f075df221805d2caa32842359f57cc34bac0ebebad2f7469ddcaa"


def test_json_parse_outcomes_are_pinned():
    inputs = _json_battery()
    digest = hashlib.sha256()
    parsed = 0
    for text in inputs:
        try:
            doc = parse_json(text)
        except JsonShapeError as err:
            outcome = (err.path, str(err))
        else:
            outcome = (doc.faces, doc.target, doc.sources)
            parsed += 1
        digest.update(repr((text, outcome)).encode("utf-8") + b"\n")
    assert len(inputs) == 4055
    assert parsed == 247
    assert digest.hexdigest() == JSON_OUTCOMES_SHA256
