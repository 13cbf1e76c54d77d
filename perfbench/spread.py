#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command from BENCHMARK.json once per seed and workload, from the
repository root, and prints for each metric the median of its values and
the distance between their first and third quartiles as a share of the
median, next to the metric's bound. A benchmark is steady when every spread
except that of setup_s sits well below its bound.

    python3 perfbench/spread.py [--runs 10] [--first-seed 100]
                                [--workloads replan,onboard] [--trace 0]
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                print(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
                sys.exit(1)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                verdict = "ok" if spread < bound / 3 else "WIDE"
            print(f"{workload:>10} {name:>14}: median {med:.4g}, spread {spread:.3f}"
                  f" (bound {bound}) {verdict}")
    print(f"worst spread / bound: {worst:.2f} (steady below 0.33)")


if __name__ == "__main__":
    main()
