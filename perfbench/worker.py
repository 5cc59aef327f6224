"""One workload in a fresh single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --scale full|tiny --work-dir DIR
        [--setup-only] [--spans-out FILE]

The worker imports opetope_kit from src/ of the checkout it lies in,
builds the workload's inputs in DIR and notes the CLOCK_MONOTONIC time at
which it was ready, so the parent, which noted the time before starting
it, gets the set-up time from process start.  It then runs passes of the
workload, closed loop, for S seconds; with --trace 1 it alternates
untraced and traced passes.  Its last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _measure(workload, inputs, api, tracer=None) -> tuple:
    """One checked pass: the pass, its spans (with a tracer) and problems.

    With a tracer, the package is traced for the pass only, so the check
    and the untraced passes run the plain code.
    """
    if tracer is not None:
        api = tracer.install()
    start = time.perf_counter()
    result = workload.run(inputs, api, tracer)
    result.seconds = time.perf_counter() - start
    spans = None
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.take()
    problems = workload.check(inputs, result)
    result.outputs = None
    return result, spans, problems


def _percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _op_times(passes) -> tuple[list[float], int, int]:
    """Op seconds with failed ops ranked as slowest, ops attempted, failed."""
    ops = [op for p in passes for op in p.ops]
    worst = max(op.seconds for op in ops)
    return [op.seconds if op.ok else worst for op in ops], len(ops), \
        sum(not op.ok for op in ops)


def end_to_end(passes) -> dict:
    times, attempted, failed = _op_times(passes)
    return {
        "wall_s": statistics.median(p.seconds for p in passes),
        "op_p50_ms": 1000 * _percentile(times, 50),
        "op_p90_ms": 1000 * _percentile(times, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "error_rate": failed / attempted,
        "ops": attempted,
    }


def per_layer(passes, spans, untraced_wall: float) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics (medians over traced passes), the per-pass counts
    that must repeat exactly, and problems with the trace."""
    from spans import LAYER, LAYERS, NAME, PARENT, layer_totals

    per_pass, counts, problems = [], [], []
    for result, pass_spans in zip(passes, spans):
        totals = layer_totals(pass_spans)
        self_sum = sum(totals[layer]["self_s"] for layer in LAYERS)
        if self_sum > result.seconds:
            problems.append(f"self times sum to {self_sum} s, more than the "
                            f"traced pass's {result.seconds} s")
        under_enumeration = [s for s in pass_spans if s[PARENT] >= 0
                             and pass_spans[s[PARENT]][LAYER] == "enumeration"]
        candidates = sum(s[LAYER] == "iso" and s[NAME] != "complex_from_certificate"
                         for s in under_enumeration)
        classes = result.counts.get("classes", 0)
        count = {f"{layer}.{key}": totals[layer][key]
                 for layer in LAYERS for key in ("calls", "errors")}
        count.update({
            "enumeration.stages": sum(s[LAYER] == "core" for s in under_enumeration),
            "enumeration.candidates": candidates,
            "enumeration.classes": classes,
        })
        counts.append(count)
        per_pass.append({**count,
                         **{f"{layer}.self_s": totals[layer]["self_s"] for layer in LAYERS},
                         "iso.candidates_per_class": candidates / classes if classes else 0.0})
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    traced_wall = statistics.median(p.seconds for p in passes)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    return metrics, counts, problems


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from spans import Tracer, plain_api, write_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.scale, args.seed, args.work_dir)
    ready_at = _clock()
    report = {"ready_at": ready_at, "tree_sizes": inputs.get("tree_sizes")}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    # At least one pass, then more until the time is up.  A traced run
    # alternates untraced and traced passes, so both see the same machine
    # and their difference is the tracing overhead.
    plain = plain_api()
    tracer = Tracer() if args.trace else None
    passes, traced, spans, problems = [], [], [], []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < args.seconds:
        result, _, found = _measure(workload, inputs, plain)
        passes.append(result)
        problems += found
        if tracer is not None:
            result, pass_spans, found = _measure(workload, inputs, plain, tracer)
            traced.append(result)
            spans.append(pass_spans)
            problems += found
    report["end_to_end"] = end_to_end(passes)
    counts = [p.counts for p in passes + traced]
    if tracer is not None:
        report["per_layer"], layer_counts, trace_problems = per_layer(
            traced, spans, report["end_to_end"]["wall_s"])
        problems += trace_problems
        if any(c != layer_counts[0] for c in layer_counts):
            problems.append("layer counts differ between traced passes")
        if args.spans_out:
            write_spans(args.spans_out, spans)
        passes += traced
    if any(c != counts[0] for c in counts):
        problems.append("work counts differ between passes")
    _, attempted, failed = _op_times(passes)
    report.update(counts=counts[0], pass_seconds=[p.seconds for p in passes],
                  attempted=attempted,
                  failed=failed, problems=list(dict.fromkeys(problems))[:20])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
