#!/usr/bin/env python3
"""Run the pipeline benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload mt-diurnal --seeds 1-10 [--seconds 20] [--trace 0]

Runs from the repository root, through the command of BENCHMARK.json
(`cargo run --release --offline --manifest-path perfbench/Cargo.toml`).
For every metric it prints the median, quartiles, min and max over the
runs and the quartile spread (Q3 - Q1) as a share of the median, the
figure the benchmark's bounds in BENCHMARK.json are checked against.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seeds)
    parser.add_argument("--seconds", default=25, type=int)
    parser.add_argument("--trace", default=0, type=int)
    args = parser.parse_args()

    command = ["cargo", "run", "--release", "--quiet", "--offline",
               "--manifest-path", "perfbench/Cargo.toml", "--"]
    values = {}
    units = {}
    for seed in args.seeds:
        out = subprocess.run(
            command + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print(f"\n{args.workload}: {len(args.seeds)} runs of {args.seconds} s, trace {args.trace}")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} {'spread':>8}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {min(vals):14.6g} {max(vals):14.6g} "
              f"{spread:8.4f}  {units[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
