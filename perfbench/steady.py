#!/usr/bin/env python3
"""Steadiness mode: run one workload repeatedly and summarise each metric.

Runs the benchmark command from BENCHMARK.json for its run_seconds once per
seed (1, 2, ...) and prints, for every metric of the last output line, the
median, the quartiles (as Python's ``statistics.quantiles(values, n=4)``
gives them) and the interquartile range as a share of the median, next to
the metric's bound from BENCHMARK.json.  Use it to set and justify those
bounds.

    python3 perfbench/steady.py --workload serve_small --runs 10 [--trace 0]

Run it from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in range(1, args.runs + 1):
        cmd = bench["command"] + ["--workload", args.workload,
                                  "--seed", str(seed),
                                  "--seconds", str(seconds),
                                  "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            sys.stderr.write(out.stdout + out.stderr)
            sys.exit(f"seed {seed}: exit {out.returncode}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"\n{args.workload}, {args.runs} runs, {seconds} s each, "
          f"trace {args.trace}")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, q2, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / abs(q2) if q2 else float("nan")
        bound = bounds.get(name)
        third = f"{bound / 3:.3f}" if bound else "-"
        flag = " !" if bound and spread > bound / 3 else ""
        print(f"{name:<28} {q2:>12.5g} {q1:>12.5g} {q3:>12.5g} "
              f"{spread:>8.3f} {third:>8}{flag}  {units[name]}")


if __name__ == "__main__":
    main()
