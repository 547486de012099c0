"""Run the benchmark several times per workload, each with another seed,
and print each end-to-end metric's median, quartiles and spread.

    python3 perfbench/steadiness.py [--runs 10] [--seconds 20] [--first-seed 1] WORKLOAD...

The spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4).  Runs go one at a time.
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


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    for w in args.workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.monotonic()
            p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                               capture_output=True, text=True, check=True, timeout=180)
            res = json.loads(p.stdout.strip().splitlines()[-1])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} run took {time.monotonic() - t0:.1f} s", flush=True)
        print(f"\n| {w} | median | Q1 | Q3 | spread | bound |\n|---|---|---|---|---|---|")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {(q3 - q1) / med:.4f} "
                  f"| {bounds.get(name)} |", flush=True)
        print()


if __name__ == "__main__":
    sys.exit(main())
