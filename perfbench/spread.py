#!/usr/bin/env python3
"""Runs one workload N times on distinct seeds and prints, per metric,
the median, the quartiles and the interquartile spread as a share of
the median, computed with statistics.quantiles(values, n=4).

    python3 perfbench/spread.py --workload NAME [--runs 10] [--seconds 10]
                                [--first-seed 1] [--trace 0]

Run from the repository root. Use it to derive the bounds in
BENCHMARK.json from measured spread, and to derive them again later.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", default="10")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", default="0")
    a = p.parse_args()
    results = []
    for seed in range(a.first_seed, a.first_seed + a.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", a.workload,
             "--seed", str(seed), "--seconds", a.seconds, "--trace", a.trace],
            capture_output=True, text=True)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            sys.exit(f"seed {seed}: exit code {out.returncode}")
        line = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(line)
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}", file=sys.stderr)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{a.workload}: {a.runs} runs, all correct: "
          f"{all(r['correct'] for r in results)}, failed shares: {sorted(shares)}")
    print(f"{'metric':<34} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:<34} {first['unit']:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{share:>8.2%}")


if __name__ == "__main__":
    main()
