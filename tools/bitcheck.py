"""Check that the float Charlier sums and traces give the same doubles as at another commit.

    python3 tools/bitcheck.py REV [--seed SEED]

Extracts REV's `src/` with `git archive` into a temporary directory and
runs one seeded grid in fresh interpreters on that source and on the
`src/` of the checkout this script lives in: 3,000 `charlier_direct`
sums at n = ceil(a - x sqrt(2a)), with a in [10, 1e7], |x| <= 3,
|nu| <= 12 and every fifth nu an integer; 300 `head_tail_split`
configs, with a in [1, 1e9] and nu in [-60, -4]; 200 state traces, with
a in [5, 1e6], |nu| <= 12, x_max in [0, 3] and both directions, each
with its `euler_polygon` and `trace_deviation`; and 300 `scaled_y`
points, 100 of them at a = 1e4 and nu in [-160, -140], where the scale
is applied as two factors.  The grid runs twice on each side: warm,
with numpy loaded first, and cold, where the first sums build their
terms in Python until the process's budget of Python terms loads numpy.
Each outcome is the `float.hex` of every value, or the error's type and
message; a trace's outcome is its node count, the SHA-256 of the hex of
all its values, and its deviation.  Prints every outcome that differs
and exits 1 if any does, 0 if none does.

Standard library only; the children need numpy.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Prints the outcome of each case of the grid drawn from seed argv[1], as
# JSON: [case, values or error].  argv[2] is "warm" to load numpy first.
GRID = """
import hashlib, json, math, random, sys
if sys.argv[2] == "warm":
    import numpy  # noqa: F401, every sum takes its numpy path
from charlier_hermite import (ScaledPoint, SplitConfig, charlier_direct, charlier_state_trace,
                              euler_polygon, head_tail_split, scaled_y, trace_deviation)
rng = random.Random(int(sys.argv[1]))
cases = []
for i in range(3000):
    a = 10.0 ** rng.uniform(1.0, 7.0)
    nu = float(rng.randint(-12, 12)) if i % 5 == 0 else rng.uniform(-12.0, 12.0)
    n = math.ceil(a - rng.uniform(-3.0, 3.0) * math.sqrt(2.0 * a))
    cases.append(("charlier_direct", n, a, nu))
for _ in range(300):
    cases.append(("head_tail_split", 10.0 ** rng.uniform(0.0, 9.0), rng.uniform(-60.0, -4.0)))
for _ in range(200):
    nu, a = rng.uniform(-12.0, 12.0), 5.0 * 10.0 ** rng.uniform(0.0, math.log10(2e5))
    cases.append(("charlier_state_trace", nu, a, rng.uniform(0.0, 3.0), rng.choice((1, -1))))
for i in range(300):
    a = 1e4 if i % 3 == 0 else 10.0 ** rng.uniform(1.0, 7.0)
    nu = rng.uniform(-160.0, -140.0) if i % 3 == 0 else rng.uniform(-12.0, 12.0)
    cases.append(("scaled_y", rng.uniform(-3.0, 3.0), a, nu))
out = []
for case in cases:
    try:
        if case[0] == "charlier_direct":
            got = [charlier_direct(*case[1:]).hex()]
        elif case[0] == "head_tail_split":
            values = vars(head_tail_split(SplitConfig(*case[1:]))).values()
            got = [None if v is None else v.hex() for v in values]
        elif case[0] == "scaled_y":
            got = [scaled_y(ScaledPoint(*case[1:3]), case[3]).hex()]
        else:
            nu, a, x_max, direction = case[1:]
            z = charlier_state_trace(nu, a, x_max, direction)
            u = euler_polygon(nu, z.states[0], x_max, z.step, direction)
            values = [*z.xs.tolist(), *z.states.ravel().tolist(), *u.states.ravel().tolist()]
            digest = hashlib.sha256(" ".join(v.hex() for v in values).encode()).hexdigest()
            got = [len(z.xs), digest, trace_deviation(z, u).hex()]
    except Exception as exc:
        got = f"{type(exc).__name__}: {exc}"
    out.append([case, got])
print(json.dumps(out))
"""


def outcomes(src, seed, start):
    done = subprocess.run([sys.executable, "-c", GRID, str(seed), start], capture_output=True,
                          check=True, env=dict(os.environ, PYTHONPATH=str(src)), text=True)
    return json.loads(done.stdout)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev")
    ap.add_argument("--seed", type=int, default=2012)
    args = ap.parse_args(argv)
    archive = subprocess.run(["git", "archive", "--format=tar", args.rev, "src"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        for start in ("warm", "cold"):
            old = outcomes(pathlib.Path(tmp) / "src", args.seed, start)
            new = outcomes(ROOT / "src", args.seed, start)
            diffs = [(case, a, b) for (case, a), (_, b) in zip(old, new) if a != b]
            for case, a, b in diffs:
                print(f"{start} {case}: {args.rev} {a} | this checkout {b}")
            print(f"{start}: {len(diffs)} of {len(new)} outcomes differ from {args.rev}")
            failed = failed or bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
