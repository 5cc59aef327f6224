"""Interchange formats: a line-oriented text format, JSON, and DOT export.

The text format has three statement kinds plus comments and blank lines::

    face <id> : <dim>
    tgt <id> -> <id>
    src <id> <- <id>, <id>, ...

Identifiers are ASCII (`[A-Za-z_][A-Za-z0-9_']*`); blanks (spaces and
tabs) around tokens are free; duplicate declarations are reported with
their line.  One token table per statement kind is the whole grammar.
``parse_dsl`` is the one reader: a single pass that matches each line
whole, once, against a pattern built from that table, and raises each
error at the line where it occurs.  A line the pattern rejects is
explained on the spot by matching its first word, then that word's
statement pattern, whose tokens nest as optional groups, so one match
reads as far as the line is well formed.  The last group that matched
tells what was expected next; a syntax error's column is that of the
first non-blank character after the match (1-based).

The JSON shape is an object with "faces" (name to dimension), "target" and
"sources" maps; ``parse_json`` reads the faces, then both cover maps in one
loop, each entry once and in name order.  Both emitters are
byte-deterministic: keys and source lists come out sorted, so emitting the
same complex twice gives identical text.  Parsing checks syntax and shape
only; the base axioms are the builder's job.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field

from .core import FaceComplex, build_complex, is_valid_face_name
from .dfc import face_tree
from .errors import (
    DslSyntaxError,
    DuplicateDeclaration,
    JsonShapeError,
    NonAsciiName,
)

_ID = r"[A-Za-z_][A-Za-z0-9_']*"
_DSL_ID = re.compile(_ID)


@dataclass
class ComplexDocument:
    """Parsed but not yet semantically validated complex data."""

    faces: list[tuple[str, int]] = field(default_factory=list)
    target: dict[str, str] = field(default_factory=dict)
    sources: dict[str, list[str]] = field(default_factory=dict)

    def build(self):
        """Run the base validation; a complex or the failure report."""
        return build_complex(self.faces, self.target, self.sources)


# -- line format ----------------------------------------------------------

_S = r"[ \t]*"
_DSL_HEAD = re.compile(rf"({_S})({_ID})?")


def _statement(*tokens: str, tail: str = rf"(?:{_S}(\Z))?") -> re.Pattern:
    """The pattern for the rest of a statement after its first word."""
    body = tail
    for token in reversed(tokens):
        body = f"(?:{_S}({token}){body})?"
    return re.compile(body + _S)


# Per statement kind, the tokens after its first word: subject, separator, value.
_DSL_GRAMMAR = {"face": (_ID, ":", "[0-9]+"), "tgt": (_ID, "->", _ID),
                "src": (_ID, "<-", rf"{_ID}(?:{_S},{_S}{_ID})*")}

# Per statement kind: its pattern and, indexed by the last group that
# matched (0 for none), the text it expected next; None accepts the line.
# A source list is one group; a comma after it still wants a name.
_DSL_STATEMENTS = {
    "face": (_statement(*_DSL_GRAMMAR["face"]),
             ("face name", "':'", "dimension", "end of line", None)),
    "tgt": (_statement(*_DSL_GRAMMAR["tgt"]),
            ("face name", "'->'", "target face name", "end of line", None)),
    "src": (_statement(*_DSL_GRAMMAR["src"], tail=rf"(?:{_S}(,)|{_S}(\Z))?"),
            ("face name", "'<-'", "source face name", "end of line",
             "source face name", None)),
}

# A whole well-formed line: a statement, whose value group is named after
# its kind and follows its subject's group, or a blank or comment line.
_DSL_LINE = re.compile("|".join(
    [rf"{_S}{word}[ \t]+({name}){_S}{sep}{_S}(?P<{word}>{value}){_S}"
     for word, (name, sep, value) in _DSL_GRAMMAR.items()] + [r"\s*(?:#.*)?"]))


def parse_dsl(text: str) -> ComplexDocument:
    """Parse the line format into a document.

    Raises :class:`DslSyntaxError` with a 1-based line/column position, or
    :class:`DuplicateDeclaration` when a face, target, source list, or
    source entry is declared twice.  Declaring a target or source list for
    a dimension-0 face is rejected here as well, since it is almost always
    a typo and the position is still at hand.

    One pass over the lines: each is matched whole, once, and every error
    is raised at the line where it occurs, except the dimension-0 subject
    check, which needs every face declared and so runs after the loop, in
    line order.
    """
    doc, dims, subjects = ComplexDocument(), {}, []
    lines = text.splitlines()
    for lineno, match in enumerate(map(_DSL_LINE.fullmatch, lines), start=1):
        if match is None:
            raise _syntax_error(lineno, lines[lineno - 1])
        kind = match.lastgroup
        if kind is None:
            continue
        name, value = match.group(match.lastindex - 1, kind)
        if kind == "face":
            if name in dims:
                raise DuplicateDeclaration(lineno, f"face {name}")
            try:
                dims[name] = dim = int(value)
            except ValueError:  # more digits than int() converts
                raise DslSyntaxError(lineno, match.start(kind) + 1,
                                     "a dimension with fewer digits") from None
            doc.faces.append((name, dim))
            continue
        if kind == "tgt":
            if name in doc.target:
                raise DuplicateDeclaration(lineno, f"target of {name}")
            doc.target[name] = value
        else:
            if name in doc.sources:
                raise DuplicateDeclaration(lineno, f"sources of {name}")
            # names and commas, with blanks around the commas
            entries = value.replace(" ", "").replace("\t", "").split(",")
            if len(set(entries)) < len(entries):
                counts = Counter(entries)
                entry = next(entry for entry in entries if counts[entry] > 1)
                raise DuplicateDeclaration(lineno, f"source {entry} of {name}")
            doc.sources[name] = entries
        subjects.append((name, lineno, match.start(match.lastindex - 1) + 1))

    for name, lineno, col in subjects:
        if dims.get(name) == 0:
            raise DslSyntaxError(lineno, col, "a face of dimension >= 1")
    return doc


def _syntax_error(lineno: int, line: str) -> DslSyntaxError:
    """The error for a line ``_DSL_LINE`` rejects: its first word, then
    that word's statement pattern, read as far as the line is well formed."""
    head = _DSL_HEAD.match(line)
    if head[2] not in _DSL_STATEMENTS:
        return DslSyntaxError(lineno, head.end(1) + 1, "'face', 'tgt' or 'src'")
    pattern, expected = _DSL_STATEMENTS[head[2]]
    match = pattern.match(line, head.end())
    return DslSyntaxError(lineno, match.end() + 1, expected[match.lastindex or 0])


def emit_dsl(complex_: FaceComplex) -> str:
    """Render a complex in the line format, byte-deterministically.

    Face names outside the ASCII identifier grammar cannot be written in
    this format and raise :class:`NonAsciiName`.
    """
    faces, covers = [], []
    for name in complex_.faces():
        if not _DSL_ID.fullmatch(name):
            raise NonAsciiName(name)
        dim = complex_.dim(name)
        faces.append(f"face {name} : {dim}")
        if dim:
            covers.append(f"tgt {name} -> {complex_.gamma(name)}")
            covers.append(f"src {name} <- " + ", ".join(sorted(complex_.delta(name))))
    return "\n".join(faces + covers) + "\n"


# -- JSON -----------------------------------------------------------------


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data = dict(pairs)
    if len(data) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise JsonShapeError("$", f"key {key!r} appears twice in one object")
            seen.add(key)
    return data


def parse_json(text: str) -> ComplexDocument:
    """Parse and shape-check the JSON format.

    Every complaint carries a JSON path such as ``target.f`` or
    ``sources.f[2]``.  Shape checking includes completeness: every face of
    dimension >= 1 must have a target entry and a nonempty source list.
    The optional keys ``name`` and ``description`` must hold strings and
    are otherwise ignored: they do not reach the document.
    """
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise JsonShapeError("$", f"not valid JSON: {err}") from None
    except (RecursionError, ValueError) as err:  # too deep, or too many digits
        raise JsonShapeError("$", f"cannot read JSON: {err}") from None
    if not isinstance(data, dict):
        raise JsonShapeError("$", "top level must be an object")
    allowed = {"faces", "target", "sources", "name", "description"}
    for key in sorted(data):
        if key not in allowed:
            raise JsonShapeError(key, "unknown key")
    if "faces" not in data:
        raise JsonShapeError("faces", "missing")
    faces = data["faces"]
    if not isinstance(faces, dict):
        raise JsonShapeError("faces", "must be an object mapping names to dimensions")
    doc = ComplexDocument()
    for name in sorted(faces):
        dim = faces[name]
        if not is_valid_face_name(name):
            raise JsonShapeError(f"faces.{name}", "invalid face name")
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise JsonShapeError(f"faces.{name}", "dimension must be a nonnegative integer")
        doc.faces.append((name, dim))

    for key, read in (("target", doc.target), ("sources", doc.sources)):
        covers = data.get(key, {})
        if not isinstance(covers, dict):
            raise JsonShapeError(key, "must be an object")
        for name in sorted(covers):
            if name not in faces:
                raise JsonShapeError(f"{key}.{name}", "not a declared face")
            if faces[name] == 0:
                raise JsonShapeError(f"{key}.{name}", f"dimension-0 faces take no {key}")
            read[name] = value = covers[name]
            if key == "target":
                if not isinstance(value, str) or value not in faces:
                    raise JsonShapeError(f"target.{name}", "value must be a declared face name")
                continue
            if not isinstance(value, list) or not value:
                raise JsonShapeError(f"sources.{name}", "must be a nonempty array of face names")
            seen: set[str] = set()
            for i, entry in enumerate(value):
                if not isinstance(entry, str) or entry not in faces:
                    raise JsonShapeError(f"sources.{name}[{i}]", "must be a declared face name")
                if entry in seen:
                    raise JsonShapeError(f"sources.{name}[{i}]", f"face {entry} listed twice")
                seen.add(entry)

    for name, dim in doc.faces:
        if dim:
            if name not in doc.target:
                raise JsonShapeError(f"target.{name}", "missing")
            if name not in doc.sources:
                raise JsonShapeError(f"sources.{name}", "missing")

    for key in ("name", "description"):
        if key in data and not isinstance(data[key], str):
            raise JsonShapeError(key, "must be a string")
    return doc


def emit_json(complex_: FaceComplex) -> str:
    """Render a complex as compact JSON with fully sorted keys/arrays."""
    dims, target, sources = complex_.to_data()
    payload = {
        "faces": dims,
        "sources": {x: sorted(s) for x, s in sources.items()},
        "target": target,
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


# -- DOT ------------------------------------------------------------------


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def emit_dot_hasse(complex_: FaceComplex) -> str:
    """The covering relation as a DOT digraph.

    One node per face labelled ``name:dim``, one rank per dimension, and
    one upward edge per cover: solid for source covers, dashed for target
    covers, with the sign kept as an edge attribute.
    """
    lines = ["digraph hasse {"]
    for k in range(complex_.dimension + 1):
        row = " ".join(
            f"{_quote(name)} [label={_quote(f'{name}:{k}')}];"
            for name in complex_.stratum(k))
        lines.append("  { rank=same; " + row + " }")
    for x in complex_.faces():
        if complex_.dim(x) == 0:
            continue
        for y in sorted(complex_.delta(x)):
            lines.append(f"  {_quote(y)} -> {_quote(x)} [sign=\"-\", style=solid];")
        lines.append(f"  {_quote(complex_.gamma(x))} -> {_quote(x)} [sign=\"+\", style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot_tree(complex_: FaceComplex, x: str) -> str:
    """The source tree of ``x`` as a DOT digraph (child -> parent edges,
    labelled by the slot they plug)."""
    tree = face_tree(complex_, x)
    lines = ["digraph face_tree {"]
    for node in sorted(tree.nodes):
        lines.append(f"  {_quote(node)} [label={_quote(node)}];")
    for parent, slot, child in sorted(tree.triplets, key=lambda t: (t[2], t[0])):
        lines.append(f"  {_quote(child)} -> {_quote(parent)} [label={_quote(slot)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
