"""Benchmark for charlier-hermite.

    python3 perfbench/run.py --workload {sweep,trace,zeros,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in a fresh,
single-threaded interpreter (perfbench/worker.py), one process at a time,
against the package under src/.  With --trace 0 the last stdout line
holds the end-to-end metrics of an untraced run; with --trace 1 it holds
the per-layer metrics of one traced pass, plus the tracing overhead.
Every op is checked against an oracle that does not use the package's
float code (perfbench/oracle.py).  The full record, with the environment
and sample counts, goes to perfbench/out/, and the traced run's spans to
perfbench/out/spans-WORKLOAD-seedN.jsonl.gz.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

from layers import PER_LAYER

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "trace", "zeros", "cli")
SETUP_PROBES = 5
WORKER_TIMEOUT = 150

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_ms.p50": "ms",
                    "op_ms.p90": "ms", "peak_rss_mb": "MB"}


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # fit_rate goes through BLAS lstsq; keep every worker on one thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(env, *args):
    """Run worker.py in a fresh interpreter; returns (its JSON result, the
    monotonic time just before it was started)."""
    spawned = time.monotonic()
    p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
                       env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT)
    if p.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {p.returncode}")
    return json.loads(p.stdout.decode().strip().splitlines()[-1]), spawned


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    """HEAD of the checkout, read from .git without leaving the checkout;
    None where the checkout is not a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as f:
        ref = f.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return None


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    return {"git_sha": git_sha(), "source_digest": source_digest(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "cpu_count": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "charlier_hermite", "__init__.py")):
        print("perfbench: no package at src/charlier_hermite; run from a checkout", file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    env = worker_env()
    w, seed, secs = args.workload, args.seed, args.seconds

    if args.trace:
        spans_file = os.path.join(out_dir, f"spans-{w}-seed{seed}.jsonl.gz")
        res, _ = run_worker(env, w, seed, secs, "trace", spans_file)
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, spawned = run_worker(env, w, seed, secs, "setup")
            setups.append((probe["ready"] - spawned) * probe["speed"])
        res, spawned = run_worker(env, w, seed, secs, "run")
        setups.append((res["ready"] - spawned) * res["speed"])
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(res["pass_walls"]),
                  "ops_per_s": res["ops"] / res["timed_s"],
                  "op_ms.p50": res["op_ms_p50"], "op_ms.p90": res["op_ms_p90"],
                  "peak_rss_mb": res["peak_rss_mb"]}
        missing = [k for k, v in values.items() if v is None]
        if missing:
            raise RuntimeError(f"too few samples for {missing} ({res['ops']} ops)")
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        res["setup_samples"] = setups

    unexpected = res["failed"] - res["known_defects"]
    record = {"workload": w, "seed": seed, "seconds": secs, "trace": args.trace,
              "environment": environment(), "metrics": metrics,
              "attempted": res["attempted"], "failed": res["failed"],
              "fail_ratio": res["failed"] / res["attempted"], "worker": res}
    with open(os.path.join(out_dir, f"{w}-seed{seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"environment": record["environment"]}))
    print(f"{w}: {res['attempted']} ops checked, {res['failed']} failed "
          f"({res['known_defects']} known defect, {unexpected} unexpected); "
          f"fail_ratio {record['fail_ratio']:.4g}; {len(res['pass_walls'])} whole passes of "
          f"{res['ops_per_pass']} ops timed ({res['ops']} op samples)")
    for note in res["notes"]:
        print(f"  unexpected: {note}")
    # Failures the oracle puts down to a documented known defect are counted
    # in `failed` but do not make the run incorrect.
    print(json.dumps({"correct": unexpected == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
