"""Layer spans for the traced run.

A traced pass wraps the public functions of each opetope_kit layer and
rebinds every reference to them that another module of the package holds,
so calls across layer boundaries (enumeration -> core/iso/relations/zpo,
cli -> io_formats/zpo/dfc/paths, zpo -> relations, ...) each open a span.
Calls inside one module stay unwrapped: a span marks a layer boundary, not
a function.  Nothing under ``src/`` is edited; the rebinding happens in
the benchmark process, for the traced passes only, after the inputs are
built.

A span is ``[layer, function, start, end, parent index, op id, raised]``.
Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from types import SimpleNamespace

LAYERS = ("cli", "io_formats", "core", "relations", "zpo", "dfc", "paths",
          "iso", "enumeration")

# Public entry points of each layer.  Names a layer does not define (after
# a later refactor, say) are skipped, so the table may list more than the
# code has.  core is traced at FaceComplex construction: its accessors are
# called millions of times and their cost belongs to the caller.
TRACED = {
    "cli": ("main",),
    "io_formats": ("parse_dsl", "parse_json", "emit_dsl", "emit_json",
                   "emit_dot_hasse", "emit_dot_tree"),
    "core": ("FaceComplex.__init__", "validate_complex_data"),
    "relations": ("step_minus", "step_plus", "closure", "closed_minus",
                  "closed_plus", "gamma_set", "lambda_set", "iota",
                  "is_lower_path", "is_upper_path"),
    "zpo": ("is_positive_opetope", "is_opetopic_cardinal", "check_globularity",
            "check_strictness", "check_disjointness", "check_pencil_linearity",
            "check_principality"),
    "dfc": ("is_dfc", "greatest_element", "check_greatest_element",
            "check_oriented_thinness", "check_acyclicity",
            "complete_half_lozenge", "face_tree", "validate_rooted_tree"),
    "paths": ("path_to_root", "simple_zigzag", "linear_order_s0",
              "sources_partition"),
    "iso": ("canonical_form", "canonical_labeling", "canonical_complex",
            "complex_from_certificate", "are_isomorphic"),
    "enumeration": ("enumerate_pops", "enumerate_positive_opetopes",
                    "naive_enumerate_pops"),
}

# Entry points the workloads call, by the name the workloads use.
ENTRY_POINTS = {
    "cli_main": ("cli", "main"),
    "enumerate_pops": ("enumeration", "enumerate_pops"),
    "enumerate_positive_opetopes": ("enumeration", "enumerate_positive_opetopes"),
    "is_dfc": ("dfc", "is_dfc"),
    "is_positive_opetope": ("zpo", "is_positive_opetope"),
}

LAYER, NAME, START, END, PARENT, OP, RAISED = range(7)


def plain_api() -> SimpleNamespace:
    """The workloads' entry points, untraced."""
    return SimpleNamespace(**{
        key: getattr(importlib.import_module(f"opetope_kit.{layer}"), name)
        for key, (layer, name) in ENTRY_POINTS.items()})


class Tracer:
    """Records one span per call across a layer boundary."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._counted: BaseException | None = None
        self._rebound: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, failed=None):
        """``fn`` inside a span of ``layer``.

        A span is marked as raised only where the exception started, so an
        error counts once, in the innermost layer it passed through.
        ``failed`` marks a span whose return value reports failure.  A
        generator function is drained inside the span and returns a list,
        so the span covers its work.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        drain = inspect.isgeneratorfunction(fn)
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
            except BaseException as exc:
                if exc is not self._counted:
                    self._counted = exc
                    span[RAISED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if failed is not None and failed(result):
                span[RAISED] = True
            return result

        return traced

    def install(self) -> SimpleNamespace:
        """Rebind the package's cross-module references to traced wrappers
        and return the traced entry points."""
        modules = {name: importlib.import_module(f"opetope_kit.{name}")
                   for name in LAYERS}
        package = importlib.import_module("opetope_kit")
        wrapped: dict[tuple[str, str], object] = {}
        for layer, names in TRACED.items():
            home = modules[layer]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(home, owner_name) if owner_name else home
                original = getattr(owner, attr, None)
                if original is None:
                    continue
                wrapper = self.wrap(layer, original,
                                    failed=(lambda code: code != 0)
                                    if (layer, name) == ("cli", "main") else None)
                wrapped[(layer, name)] = wrapper
                owners = [owner] if owner_name else [
                    other for other in (*modules.values(), package)
                    if other is not home and getattr(other, attr, None) is original]
                for other in owners:
                    setattr(other, attr, wrapper)
                    self._rebound.append((other, attr, original))
        return SimpleNamespace(**{key: wrapped[entry]
                                  for key, entry in ENTRY_POINTS.items()})

    def uninstall(self) -> None:
        """Put back every reference that ``install`` rebound."""
        for owner, attr, original in reversed(self._rebound):
            setattr(owner, attr, original)
        self._rebound.clear()

    def take(self) -> list[list]:
        """The spans recorded since the last call, removed from the tracer."""
        spans = self.spans[:]
        self.spans.clear()
        self._counted = None
        return spans


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, self seconds and errors per layer.

    Self time is a span's duration minus the durations of its direct
    children, so the self times of all spans sum to the time covered by
    the outermost spans.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    totals = {layer: {"calls": 0, "self_s": 0.0, "errors": 0} for layer in LAYERS}
    for span, inner in zip(spans, child):
        entry = totals[span[LAYER]]
        entry["calls"] += 1
        entry["self_s"] += span[END] - span[START] - inner
        entry["errors"] += span[RAISED]
    return totals


def write_spans(path: str, passes: list[list[list]]) -> None:
    """One JSON object per span; parent indices are per pass."""
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for number, spans in enumerate(passes):
            for span in spans:
                handle.write(json.dumps({
                    "pass": number, "layer": span[LAYER], "name": span[NAME],
                    "start": span[START],
                    "end": span[END], "parent": span[PARENT], "op": span[OP],
                    "raised": span[RAISED]}) + "\n")
