"""The opetope-kit benchmark.

    python3 perfbench/run.py --workload census|opetope_search|cells \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh
single-threaded worker process (perfbench/worker.py), closed loop with one
client: each operation starts after the previous one returns.  The
workloads and why each was chosen are in perfbench/workloads.py.

With --trace 0 the last line of output reports the end-to-end metrics:
setup_s (median over several fresh processes of the time from process
start through import and input generation), wall_s (median time of one
pass over the workload), op_p50_ms and op_p90_ms (time per operation,
failed operations ranked slowest) and peak_rss_mb (ru_maxrss of the
worker).  With --trace 1 it reports the per-layer metrics of a separate
traced run (perfbench/spans.py) instead, and writes the spans to
perfbench/out/.  Every pass is checked against known answers; the error
rate is failed/attempted in the last line and is printed beside the times.

    python3 perfbench/selfcheck.py

runs every workload at tiny budgets and checks the output's shape.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("census", "opetope_search", "cells")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _commit() -> str | None:
    """The checked-out commit, when the checkout is a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """SHA-256 over the package sources, to tell code versions apart where
    the checkout is not a git work tree."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _worker(args, work_root: str, deadline: float, setup_only: bool) -> dict:
    """Start one worker, wait for it, and return its report with the set-up
    time filled in."""
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", args.scale,
               "--work-dir", work_dir]
    if setup_only:
        command.append("--setup-only")
    elif args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        command += ["--spans-out",
                    os.path.join(HERE, "out", f"spans-{args.workload}.jsonl.gz")]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        started = _clock()
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - started
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny budgets, for the self-check")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(ROOT, "src", "opetope_kit", "__init__.py")):
        print(f"no opetope_kit sources under {ROOT}/src; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)

    load_start = os.getloadavg()
    try:
        # setup_s is reported by untraced runs only.
        setups = [_worker(args, work_root, deadline, setup_only=True)["setup_s"]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        report = _worker(args, work_root, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    setups.append(report["setup_s"])
    load_end = os.getloadavg()

    e2e = report["end_to_end"]
    environment = {
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "commit": _commit(), "src_sha256": _source_digest(), "loadavg_start": load_start, "loadavg_end": load_end,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "pass_seconds": report["pass_seconds"],
        "tree_sizes": report["tree_sizes"],
    }
    print("environment " + json.dumps(environment))
    print("counts " + json.dumps(report["counts"], sort_keys=True))
    for problem in report["problems"]:
        print(f"WRONG {problem}")

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in sorted(report["per_layer"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": e2e["wall_s"], "unit": "s"},
            "op_p50_ms": {"value": e2e["op_p50_ms"], "unit": "ms"},
            "op_p90_ms": {"value": e2e["op_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{name:32} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{'ops':32} {e2e['ops']:>14} count (untraced, all passes)")
    print(f"{'error_rate':32} {e2e['error_rate']:>14.6g} ratio (untraced)")
    print(json.dumps({"correct": not report["problems"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("per_class"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
