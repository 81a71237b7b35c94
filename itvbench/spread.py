"""Steadiness check: repeat the benchmark over seeds, report each end-to-end
metric's median and inter-quartile spread against its bound in
BENCHMARK.json (steady: every spread below a third of its bound).

    python3 itvbench/spread.py --seeds 10 [--workloads population,failover]

Runs alternate across workloads (seed 1 of every workload, then seed 2,
...) so host drift spreads over all of them.  Each run is a child
process of ``itvbench/run.py`` with the configured ``run_seconds``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
from stats import quartile_spread  # noqa: E402


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    runs = {w: [] for w in workloads}
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                return 1
            verdict = json.loads(lines[-1])
            verdict["seed"] = seed
            runs[workload].append(verdict)
            shown = " ".join(f"{k}={v['value']:.4g}"
                             for k, v in verdict["metrics"].items())
            print(f"{workload} seed={seed} correct={verdict['correct']} "
                  f"{shown} run={time.perf_counter() - t0:.0f}s", flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, verdicts in runs.items():
        for name, bound in bounds.items():
            values = [v["metrics"][name]["value"] for v in verdicts]
            spread = quartile_spread(values)
            ok = spread < bound / 3
            steady = steady and ok
            print(f"{workload:<11} {name:<12} "
                  f"median={statistics.median(values):.5g} "
                  f"spread={spread:.4f} bound={bound} "
                  f"{'ok' if ok else 'TOO WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
