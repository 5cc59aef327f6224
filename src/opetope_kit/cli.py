"""Command-line front end.

Exit codes: 0 all checks passed, 1 an axiom or resource check failed,
2 the input or arguments could not be parsed, 3 an internal invariant broke
(a bug, not a user error).  Payload goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from .core import AxiomReport, FaceComplex, Morphism, validate_morphism
from .dfc import face_tree, is_dfc
from .enumeration import (
    WORK_LIMIT_ENV,
    EnumerationBudget,
    enumerate_pops,
    enumerate_positive_opetopes,
    resolve_work_limit,
)
from .errors import InternalInvariantBroken, OpetopeError, ParseError
from .io_formats import (
    emit_dot_hasse,
    emit_dot_tree,
    emit_dsl,
    emit_json,
    parse_dsl,
    parse_json,
)
from .paths import linear_order_s0, simple_zigzag, sources_partition
from .zpo import is_opetopic_cardinal, is_positive_opetope

PASS, FAIL, PARSE_FAIL, INTERNAL = 0, 1, 2, 3


def _sniff_format(path: str, override: str | None) -> str:
    if override:
        return override
    if path.endswith(".dsl"):
        return "dsl"
    if path.endswith(".json"):
        return "json"
    raise ParseError(
        f"cannot tell the format of {path!r}; pass --format dsl|json")


def _read(path: str) -> str:
    """The text of ``path`` (``-`` for stdin) without a leading byte-order mark."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return text.removeprefix("\ufeff")


def _load_document(path: str, fmt: str | None):
    if path == "-" and not fmt:  # before reading, so no one waits for EOF
        raise ParseError("reading from stdin requires --format")
    text = _read(path)
    fmt = _sniff_format(path, fmt)
    return parse_dsl(text) if fmt == "dsl" else parse_json(text)


def _render_report(name: str, report: AxiomReport) -> list[str]:
    lines = [f"{name}: {report.verdict}"]
    for violation in report.violations:
        witnesses = ", ".join(violation.witnesses)
        suffix = f" [witnesses: {witnesses}]" if witnesses else ""
        lines.append(f"  {violation.axiom}: {violation.detail}{suffix}")
    return lines


def _emit_report(args, mode: str, checks: dict[str, AxiomReport],
                 agreement: bool | None) -> None:
    if getattr(args, "json", False):
        payload = {
            "mode": mode,
            "verdict": "pass" if all(r.passed for r in checks.values()) else "fail",
            "checks": {name: rep.to_dict() for name, rep in checks.items()},
            "agreement": agreement,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for name, report in checks.items():
            for line in _render_report(name, report):
                print(line)
        if agreement is not None:
            print("agreement: " + ("yes" if agreement else "NO"))


def cmd_validate(args) -> int:
    built = _load_document(args.file, args.format).build()
    if isinstance(built, AxiomReport):
        checks = {"base": built}
    else:
        # built per call, so each checker is read from the module when it
        # runs; "pop" and "phg" stop at the base axioms, which building did
        suites = {
            "pop": {"pop": lambda _: AxiomReport()},
            "phg": {"phg": lambda _: AxiomReport()},
            "cardinal": {"cardinal": is_opetopic_cardinal},
            "opetope": {"opetope": is_positive_opetope},
            "dfc": {"dfc": is_dfc},
            "both": {"dfc": is_dfc, "opetope": is_positive_opetope},
        }
        checks = {name: check(built) for name, check in suites[args.mode].items()}
    verdicts = [report.passed for report in checks.values()]
    # a mode that runs both suites reports whether their verdicts agree
    agreement = len(set(verdicts)) == 1 if len(verdicts) > 1 else None
    _emit_report(args, args.mode, checks, agreement)
    if agreement is False:
        print("the two characterizations disagree; repro dump follows",
              file=sys.stderr)
        print(emit_json(built), file=sys.stderr)
        return INTERNAL
    return PASS if all(verdicts) else FAIL


def _built(doc, label: str = "base") -> FaceComplex:
    """The complex a parsed document builds; on a base-axiom failure the
    report goes to stderr under ``label`` and the command exits 1."""
    built = doc.build()
    if isinstance(built, AxiomReport):
        for line in _render_report(label, built):
            print(line, file=sys.stderr)
        raise SystemExit(FAIL)
    return built


def _require_complex(args) -> FaceComplex:
    return _built(_load_document(args.file, args.format))


def _require_dfc(args) -> FaceComplex:
    complex_ = _require_complex(args)
    report = is_dfc(complex_)
    if not report.passed:
        for line in _render_report("dfc", report):
            print(line, file=sys.stderr)
        raise SystemExit(FAIL)
    return complex_


def cmd_convert(args) -> int:
    complex_ = _require_complex(args)
    if args.to == "dsl":
        sys.stdout.write(emit_dsl(complex_))
    else:
        print(emit_json(complex_))
    return PASS


def cmd_tree(args) -> int:
    complex_ = _require_dfc(args)
    if args.dot:
        sys.stdout.write(emit_dot_tree(complex_, args.face))
        return PASS
    tree = face_tree(complex_, args.face)
    todo: list[tuple[str, int, str | None]] = [(tree.root, 0, None)]
    while todo:
        node, depth, slot = todo.pop()
        label = f"[{slot}] " if slot is not None else ""
        print(f"{'  ' * depth}{label}{node}")
        todo.extend((child, depth + 1, child_slot)
                    for child_slot, child in reversed(tree.children(node)))
    return PASS


def cmd_order(args) -> int:
    complex_ = _require_dfc(args)
    for face in linear_order_s0(complex_):
        print(face)
    return PASS


def cmd_partition(args) -> int:
    complex_ = _require_dfc(args)
    blocks = sources_partition(complex_, args.dim)
    for owner in sorted(blocks):
        print(f"{owner}: " + " ".join(sorted(blocks[owner])))
    # the blocks cover the stratum but for exactly one face, the leftover
    covered = set().union(*blocks.values())
    print("leftover: " + next(x for x in complex_.stratum(args.dim) if x not in covered))
    return PASS


def cmd_zigzag(args) -> int:
    complex_ = _require_dfc(args)
    print(simple_zigzag(complex_, args.anchor, args.from_, args.to).render())
    return PASS


def cmd_enumerate(args) -> int:
    try:
        budget = EnumerationBudget(args.max_dim, args.max_faces)
        work_limit = resolve_work_limit(None)
    except ValueError as err:
        print(f"enumerate: {err}", file=sys.stderr)
        return PARSE_FAIL
    stream = (enumerate_positive_opetopes(budget, work_limit) if args.opetopes_only
              else enumerate_pops(budget, work_limit))
    if args.count_only:
        print(sum(1 for _ in stream))
        return PASS
    if args.emit_dir:
        os.makedirs(args.emit_dir, exist_ok=True)
        count = 0
        for i, complex_ in enumerate(stream):
            path = os.path.join(args.emit_dir, f"pop_{i:05d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(emit_json(complex_) + "\n")
            count += 1
        print(f"wrote {count} complexes to {args.emit_dir}", file=sys.stderr)
        return PASS
    for complex_ in stream:
        print(emit_json(complex_))
    return PASS


def cmd_export_dot(args) -> int:
    complex_ = _require_complex(args)
    sys.stdout.write(emit_dot_hasse(complex_))
    return PASS


def cmd_morphism(args) -> int:
    source_doc = _load_document(args.from_, args.format)
    target_doc = _load_document(args.to, args.format)
    source = _built(source_doc, "base (source)")
    target = _built(target_doc, "base (target)")
    mapping = {}
    for lineno, raw in enumerate(_read(args.map).splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=>" not in stripped:
            print(f"map line {lineno}: expected 'a => b'", file=sys.stderr)
            return PARSE_FAIL
        left, _, right = (part.strip() for part in stripped.partition("=>"))
        if left in mapping:
            print(f"map line {lineno}: {left} is mapped twice", file=sys.stderr)
            return PARSE_FAIL
        mapping[left] = right
    try:
        report = validate_morphism(Morphism(source, target, mapping))
    except OpetopeError as err:
        print(str(err), file=sys.stderr)
        return PARSE_FAIL
    _emit_report(args, "morphism", {"morphism": report}, None)
    return PASS if report.passed else FAIL


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as :class:`ParseError`: exit 2, one stderr line."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="opetope-kit",
        description="Validate, convert, analyse and enumerate face complexes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("file", help="input file (.dsl or .json, '-' for stdin)")
        p.add_argument("--format", choices=("dsl", "json"),
                       help="override format sniffing")

    p = sub.add_parser("validate", help="run axiom checks")
    add_input(p)
    p.add_argument("--mode", default="both",
                   choices=("pop", "phg", "cardinal", "opetope", "dfc", "both"),
                   help="the checks to run; 'phg' is an alias of 'pop', "
                        "the base axioms only")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="re-emit in another format")
    add_input(p)
    p.add_argument("--to", required=True, choices=("dsl", "json"))
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("tree", help="show the source tree of a face")
    add_input(p)
    p.add_argument("--face", required=True)
    p.add_argument("--dot", action="store_true")
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("order", help="print the 0-faces in ascending order")
    add_input(p)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("partition", help="sources partition at a dimension")
    add_input(p)
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("zigzag", help="the simple zig-zag between two sources")
    add_input(p)
    p.add_argument("--anchor", required=True)
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--to", required=True)
    p.set_defaults(func=cmd_zigzag)

    p = sub.add_parser(
        "enumerate",
        help=f"enumerate complexes up to isomorphism "
             f"(work bounded by ${WORK_LIMIT_ENV})")
    p.add_argument("--max-dim", type=int, required=True)
    p.add_argument("--max-faces", type=int, required=True)
    p.add_argument("--opetopes-only", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--emit-dir")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("export-dot", help="covering relation as DOT")
    add_input(p)
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("morphism", help="validate a face mapping between files")
    p.add_argument("--from", dest="from_", required=True)
    p.add_argument("--to", required=True)
    p.add_argument("--map", required=True, help="file of lines 'a => b'")
    p.add_argument("--format", choices=("dsl", "json"))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_morphism)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first command (not at import) and reused."""
    return build_parser()


def main(argv=None) -> int:
    try:
        try:
            args = _parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as err:  # usage errors, --help, base failures
            if not isinstance(err.code, int):
                raise
            code = err.code
        sys.stdout.flush()  # so a closed stdout fails here, not in the exit flush
        return code
    except ParseError as err:
        print(str(err), file=sys.stderr)
        return PARSE_FAIL
    except InternalInvariantBroken as err:
        print(f"internal invariant broken: {err}", file=sys.stderr)
        return INTERNAL
    except OpetopeError as err:
        print(str(err), file=sys.stderr)
        return FAIL
    except BrokenPipeError:  # stdout closed early: exit 1, and the exit flush writes nowhere
        with open(os.devnull, "wb") as devnull, contextlib.suppress(OSError, ValueError):
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return FAIL
    except (OSError, UnicodeDecodeError) as err:
        print(str(err), file=sys.stderr)
        return PARSE_FAIL


if __name__ == "__main__":
    sys.exit(main())
