"""Fast self-check of the benchmark at tiny budgets.

    python3 perfbench/selfcheck.py

Runs every workload at tiny budgets (census at dim <= 2 and <= 5 faces,
opetope_search at dim <= 3 and <= 7 faces, cells on two small cells)
untraced and traced, and checks that each run is correct, prints exactly
the metric names and units of BENCHMARK.json, and that in the traced run
the layers' self times sum to no more than the traced wall time.  Exits 1
on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, trace: int, seconds: str) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            # One traced pass, so the medians are that pass's own numbers.
            result = _run(workload, trace, "1" if trace == 0 else "0.001")
            where = f"{workload} --trace {trace}"
            before = len(failures)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']}, "
                                f"attempted={result['attempted']}")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in listed}
            if units != expected:
                failures.append(f"{where}: metrics {units} differ from {expected}")
            if trace:
                metrics = result["metrics"]
                self_sum = sum(m["value"] for name, m in metrics.items()
                               if name.endswith(".self_s"))
                if self_sum > metrics["trace.wall_s"]["value"]:
                    failures.append(f"{where}: self times {self_sum} s exceed "
                                    f"the traced wall {metrics['trace.wall_s']['value']} s")
            print(f"{where}: {'ok' if len(failures) == before else 'FAILED'}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
