"""Record a parent-versus-change benchmark comparison as one JSON file.

    python3 tools/bench_record.py --parent DIR --change DIR --out OUT.json \
        --first-seed SEED [--pairs trace=10,sweep=3,zeros=3,cli=3] [--layers trace]

DIR is the root of a checkout of the parent commit and of the change.
For each workload, pair i runs `perfbench/run.py` with seed first-seed + i
for the change's BENCHMARK.json `run_seconds` once in each checkout, one
run at a time; odd pairs run the change first, so that a drift of the
host's speed falls on both sides alike.  The record holds, per workload
and end-to-end metric, each side's values, median and quartiles, the
number of pairs the change won (`better` as in BENCHMARK.json) and
whether the medians differ by more than the parent's interquartile range;
per run, `correct`, `failed` and `attempted`, or the exit code of a run
that failed or timed out, whose pair is then left out of the comparison;
with --layers, the per-layer metrics (or the exit code) of one traced run
per side; the wall time of the Tier-1 test command in each checkout; and
each side's git SHA and Python and numpy versions, as perfbench reports
them.  There is no default seed: seeds used while developing a change
should not be the ones that judge it.

Standard library only.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def run_bench(root, workload, seed, seconds, trace=0):
    """One perfbench run in checkout `root`: (its exit code, its environment,
    its result).  A run that fails has no environment or result, and one
    that times out has the exit code "timeout"."""
    try:
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                           cwd=root, capture_output=True, text=True, timeout=900)
    except subprocess.TimeoutExpired:
        return "timeout", None, None
    if p.returncode:
        return p.returncode, None, None
    lines = [json.loads(line) for line in p.stdout.splitlines() if line.startswith("{")]
    return 0, lines[0]["environment"], lines[-1]


def tier1(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.monotonic()
    p = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True, timeout=1800)
    lines = p.stdout.strip().splitlines()
    return {"wall_s": round(time.monotonic() - t0, 3), "exit": p.returncode,
            "summary": lines[-1] if lines else ""}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def compare(pairs, better):
    """Per metric: each side's summary, the change's wins and the gap test."""
    out = {}
    for name in pairs[0][0]["metrics"]:
        old = [p[0]["metrics"][name]["value"] for p in pairs]
        new = [p[1]["metrics"][name]["value"] for p in pairs]
        sign = 1.0 if better[name] == "lower" else -1.0
        s_old, s_new = summary(old), summary(new)
        out[name] = {"parent": s_old, "change": s_new,
                     "change_wins": sum(sign * (b - a) < 0 for a, b in zip(old, new)),
                     "pairs": len(pairs),
                     "median_change": (s_new["median"] - s_old["median"]) / s_old["median"],
                     "gap_exceeds_parent_iqr":
                         abs(s_new["median"] - s_old["median"]) > s_old["q3"] - s_old["q1"]}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--pairs", default="trace=10,sweep=3,zeros=3,cli=3")
    ap.add_argument("--first-seed", type=int, required=True)
    ap.add_argument("--layers", default="", help="comma-separated workloads to trace once per side")
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    record = {"seconds": seconds, "environment": {}, "workloads": {}, "layers": {}}
    for spec in filter(None, args.pairs.split(",")):
        workload, count = spec.split("=")
        pairs, runs = [], []
        for i in range(int(count)):
            seed = args.first_seed + i
            order = ("change", "parent") if i % 2 else ("parent", "change")
            run, res = {"seed": seed, "order": list(order)}, {}
            for side in order:
                code, env, res[side] = run_bench(roots[side], workload, seed, seconds)
                if res[side] is None:
                    run[side] = {"exit": code}
                    print(f"{workload} seed {seed} {side}: exit {code}", file=sys.stderr, flush=True)
                    continue
                record["environment"][side] = env
                run[side] = {k: res[side][k] for k in ("correct", "failed", "attempted")}
                print(f"{workload} seed {seed} {side}: correct={res[side]['correct']} "
                      f"failed={res[side]['failed']}/{res[side]['attempted']} wall_s="
                      f"{res[side]['metrics']['wall_s']['value']:.4g}", file=sys.stderr, flush=True)
            runs.append(run)
            if None not in res.values():  # a pair with a failed run is left out of compare
                pairs.append((res["parent"], res["change"]))
        record["workloads"][workload] = {"runs": runs,
                                         "metrics": compare(pairs, better) if pairs else {}}
    for workload in filter(None, args.layers.split(",")):
        record["layers"][workload] = {}
        for side in ("parent", "change"):
            code, _, res = run_bench(roots[side], workload, args.first_seed, seconds, trace=1)
            record["layers"][workload][side] = (
                {"exit": code} if res is None else {k: m["value"] for k, m in res["metrics"].items()})
            print(f"{workload} traced {side}: exit {code}", file=sys.stderr, flush=True)
    record["tier1"] = {side: tier1(root) for side, root in roots.items()}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
