"""Check that the Charlier sums, traces and Hermite values are the same as at another commit.

    python3 tools/bitcheck.py REV [--seed SEED]

Extracts REV's `src/` with `git archive` into a temporary directory and
runs one seeded grid in fresh interpreters on that source and on the
`src/` of the checkout this script lives in: 3,000 `charlier_direct`
sums at n = ceil(a - x sqrt(2a)), with a in [10, 1e7], |x| <= 3,
|nu| <= 12 and every fifth nu an integer; 300 `head_tail_split`
configs, with a in [1, 1e9] and nu in [-60, -4]; 203 state traces, 200
with a in [5, 1e6], |nu| <= 12, x_max in [0, 3] and both directions,
and 3 at nu = -160, a = 1e4, whose deviations are near 1e-163, each
with its `euler_polygon` and `trace_deviation`; and 301 `scaled_y`
points, 100 of them at a = 1e4 and nu in [-160, -140], where the scale
is applied as two factors, and one at a = nu = 300, where c_1 = 0 and
the scale overflows; 1,004 `hermite_fn` values, with |nu| <= 12
(every fifth nu an integer) and |x| <= 10, x = 0 and subnormal x, and
x = 150, where the Kummer series hits its iteration cap; 540
`kummer_m` values, with alpha at non-positive integers, beta = 0.5,
1.5 or any, and 40 series that pass the end of its denominator tables;
300 rational-mode `charlier_direct` sums, with n <= 60, a = p/q and
nu = r/s, negative or ending the series; 117 `sharpness_check`
pairs, 2 of them refused; and 209 calls with one hostile real argument
(nan, +-inf, +-0.0, 5e-324, +-1e300, True, "1.5" or None, the others
valid) to `hermite_fn`, `charlier_direct`, `scaled_y`, `kummer_m`,
`upper_incomplete_gamma`, `f_nu` and `euler_polygon`, each seen by its
outcome's `repr`, and 10 more inputs that were once accepted, gave nan
or inf, or raised a bare error; 8,001 values of `hermite_fn(nu, 0.0)`
on the grid nu = -400, -399.9, ..., 400, which holds the band where
H_nu(0) overflows and the odd nu where 1/Gamma(-nu/2) does, and 6 more
where 2^nu overflows: at odd nu = 1025, 1027, 2^52 + 1 and 2^53 - 1, and
at 2^53 and 2^53 + 2; 5 rational-mode calls with a bool for a rational;
and 7 `trace_deviation`s of traces built from given states, nan, inf
and +-1e308 among them; the `repr` of one record of each of the 9
public record types; 200 `charlier_zeros_in_order` calls, with n <= 40
and a in [0.5, 100], 40 of them over the whole positive range, 3 more
at (20, 10), (40, 40) and (60, 30) from lo = 1e-12, 3 on [0, 1] at
(200, 100), (30, 2) and (40, 0.5), whose least zeros are 4.7e-17,
1.5e-23 and 2.7e-59, so that a change to the count kernel's rounding
shows, and 2 over huge ranges, (16384, 1) on [-1e308, 0.05] and
(40, 40) on [-1e300, 1e300]; 101 `hermite_zeros_in_order` scans, 100
with |x| <= 3 and lo in [-4, 8], and one at x = 0 on [-1e308, 1e308],
where hi - lo overflows; 12 `zero_convergence_table`s at README scale,
with |x| <= 1, targets in [0.5, 6] and a from 80 to 8000, one at x = 0,
target 3 and a = 1e6, 1e7 and 1e8, where the float sum at the target
cancels to 0, and 3 with an a from 9e307 up, where 2a overflows; and
58 `count_positive_zeros` outcomes, 40 seeded with n <= 6 and a in
[0.1, 1e6], and 18 at given (n, a): 12 with a from 2 to 1e12, each
counted as n, and 6 that the argument checks refuse (n = 16385 or True,
a = -1, 5e-324, 1e31 or 1e300).  The grid runs twice on each
side: warm, with numpy loaded first, and cold, where the first sums
build their terms in Python until the process's budget of Python terms
loads numpy.  Each outcome is the `float.hex` of every value (an exact
value as its `str`), or the error's type and message; a trace's outcome
is its node count, the SHA-256 of the hex of all its values, and its
deviation.  Prints every outcome that differs and exits 1 if any does,
0 if none does.

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
import charlier_hermite as api
from charlier_hermite import (PolygonTrace, ScaledPoint, SplitConfig, admissible_sharpness_pairs,
                              charlier_direct, charlier_state_trace, euler_polygon,
                              head_tail_split, hermite_fn, kummer_m, scaled_y, sharpness_check,
                              trace_deviation)
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
for i in range(1000):
    nu = float(rng.randint(-12, 12)) if i % 5 == 0 else rng.uniform(-12.0, 12.0)
    cases.append(("hermite_fn", nu, rng.uniform(-10.0, 10.0)))
cases += [("hermite_fn", rng.uniform(-12.0, 12.0), x) for x in (0.0, 5e-324, -1e-310)]
cases.append(("hermite_fn", 0.5, 150.0))
for i in range(500):
    alpha = float(-rng.randint(0, 30)) if i % 4 == 0 else rng.uniform(-20.0, 20.0)
    beta = rng.choice((0.5, 1.5, rng.uniform(-20.0, 20.0)))
    cases.append(("kummer_m", alpha, beta, rng.uniform(-60.0, 100.0)))
for _ in range(40):  # each passes the end of the 1024-term tables
    cases.append(("kummer_m", rng.uniform(-40.0, -30.0), rng.choice((0.5, 1.5)),
                  rng.uniform(840.0, 880.0)))
for i in range(300):
    n = rng.randint(0, 60)
    nu = (f"{rng.randint(0, n)}" if i % 4 == 0
          else f"{rng.randint(-40, 40)}/{rng.choice((1, 2, 3, 5, 7))}")
    cases.append(("charlier_rational", n, f"{rng.randint(1, 60)}/{rng.randint(1, 30)}", nu))
cases += [("sharpness_check", str(x), str(a)) for x, a in admissible_sharpness_pairs((2, 4, 6, 8, 10))]
cases += [("sharpness_check", "1/3", "3"), ("sharpness_check", "1/7", "2")]
valid = {"hermite_fn": (1.5, 0.5), "charlier_direct": (5, 2.5, 1.5), "scaled_y": (0.5, 100.0, 1.5),
         "kummer_m": (-1.5, 0.5, 2.0), "upper_incomplete_gamma": (1.5, 2.0), "f_nu": (1.0, 1.5),
         "euler_polygon": (1.0, 0.0, 2.0, 1.0, 0.1)}
for name, args in valid.items():
    for i in range(name == "charlier_direct", len(args)):
        for v in (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300, -1e300, True, "1.5", None):
            cases.append(("call", name, *args[:i], v, *args[i + 1:]))
cases += [("call", "hermite_fn", 0.5, 1e200), ("call", "f_nu", "1", 1.0),
          ("call", "count_positive_zeros", 1, -1.0), ("call", "euler_polygon", 1e300, 1.0, 1.0, 1.0, 0.1),
          ("call", "system_matrix_norm_bound", math.nan, 1.0),
          ("call", "system_matrix_norm_bound", 1e300, 1.0),
          ("call", "apriori_deviation_bound", 1.0, 0.1, 1.0, 0.0, 1e3, 1e3),
          ("call", "charlier_direct", 5, "2", "1"), ("call", "charlier_direct", 5, math.inf, 1, "rational"),
          ("call", "sharpness_check", 0, math.inf)]
cases += [("hermite_fn", i / 10.0, 0.0) for i in range(-4000, 4001)]
cases += [("hermite_fn", nu, 0.0) for nu in (1025.0, 1027.0, 2.0 ** 52 + 1, 2.0 ** 53 - 1,
                                              2.0 ** 53, 2.0 ** 53 + 2)]
cases.append(("scaled_y", 299.0 / math.sqrt(600.0), 300.0, 300.0))  # c_1 = 0, scale inf
cases += [("charlier_state_trace", -160.0, 1e4, x_max, direction)
          for x_max, direction in ((0.05, 1), (0.05, -1), (1.0, 1))]
cases += [("call", "charlier_direct", 5, True, 1, "rational"),
          ("call", "charlier_direct", 5, 2, True, "rational"), ("call", "sharpness_check", True, 2),
          ("call", "sharpness_check", 0, True), ("call", "scaled_y", 0.0, 2.0, True, "rational")]
zero = [[0.0, 0.0], [0.0, 0.0]]
cases += [("trace_deviation", [0.0, 0.5], s1, s2) for s1, s2 in [
    ([[0.0, 1.0], [math.nan, 1.0]], zero), ([[0.0, 1.0], [1.0, -math.inf]], zero),
    ([[1e308, 1e308], [1e308, 1e308]], [[-1e308, -1e308], [-1e308, -1e308]]),
    ([[1e200, 0.0], [0.0, 0.0]], zero), ([[3e-200, 4e-200], [0.0, 0.0]], zero),
    ([[0.1, -2.5], [1.75, 3.0]], [[0.3, 2.5], [-1.0, 1e-3]])]]
cases.append(("trace_deviation", [0.0, math.inf], zero, zero))
for i in range(200):
    n, a = rng.randint(1, 40), 10.0 ** rng.uniform(math.log10(0.5), 2.0)
    top = a + 4.0 * n * math.sqrt(a)
    lo = rng.choice((0.0, 1e-12)) if i % 5 == 0 else rng.uniform(-2.0, top)
    hi = top if i % 5 == 0 else lo + rng.uniform(0.5, top)
    cases.append(("charlier_zeros_in_order", n, a, lo, hi))
cases += [("charlier_zeros_in_order", n, a, 1e-12, a + 4.0 * n * math.sqrt(a))
          for n, a in ((20, 10.0), (40, 40.0), (60, 30.0))]
cases += [("charlier_zeros_in_order", n, a, 0.0, 1.0) for n, a in ((200, 100.0), (30, 2.0), (40, 0.5))]
cases += [("charlier_zeros_in_order", 16384, 1.0, -1e308, 0.05),
          ("charlier_zeros_in_order", 40, 40.0, -1e300, 1e300)]
for _ in range(100):
    lo = rng.uniform(-4.0, 8.0)
    cases.append(("hermite_zeros_in_order", rng.uniform(-3.0, 3.0), lo, lo + rng.uniform(0.5, 6.0),
                  rng.choice((16, 64, 128, 256))))
cases.append(("hermite_zeros_in_order", 0.0, -1e308, 1e308))
for _ in range(12):  # a target with no Hermite zero within 0.5 is refused
    cases.append(("zero_convergence_table", rng.uniform(-1.0, 1.0), rng.uniform(0.5, 6.0),
                  [a * rng.uniform(0.8, 1.25) for a in (100.0, 400.0, 1600.0, 6400.0)]))
cases += [("zero_convergence_table", 0.5, 1.66, [100.0, 1e308]),
          ("zero_convergence_table", 0.0, 3.0, [1e6, 1e7, 1e8]),
          ("zero_convergence_table", 0.0, 3.0, [9e307]),
          ("zero_convergence_table", -0.5, 2.25, [sys.float_info.max])]
cases += [("count_positive_zeros", rng.randint(1, 6), 10.0 ** rng.uniform(-1.0, 6.0))
          for _ in range(40)]
cases += [("count_positive_zeros", n, a) for n, a in (
    (1, 2.0), (2, 2.0), (4, 3.0), (6, 5.0), (2, 1e5), (3, 1e4), (25, 12.0), (32, 16.0),
    (6, 1e6), (2, 1e12), (8, 1e5), (30, 30.0), (16385, 2.0), (True, 2.0), (1, -1.0),
    (2, 5e-324), (2, 1e31), (2, 1e300))]
cases += [("repr", call) for call in (
    "ScaledPoint(0.5, 100.0)", "SplitConfig(200.5, -4.0)", "head_tail_split(SplitConfig(200.5, -4.0))",
    "trapezoid_gamma_check(-4.5, 10, 40, 0.1)", "euler_polygon(1.0, (1.0, 0.0), 0.3, 0.1)",
    "fit_rate([(100.0, 0.1), (1000.0, 0.03), (10000.0, 0.01)])", "sharpness_check('1/2', 2)",
    "hermite_zeros_in_order(0.0, 0.5, 1.5)", "zero_convergence_table(0.0, 3.0, [100.0, 0.0])")]


out = []
for case in cases:
    try:
        if case[0] == "charlier_direct":
            got = [charlier_direct(*case[1:]).hex()]
        elif case[0] == "head_tail_split":
            got = [None if v is None else v.hex() for v in head_tail_split(SplitConfig(*case[1:]))]
        elif case[0] == "scaled_y":
            got = [scaled_y(ScaledPoint(*case[1:3]), case[3]).hex()]
        elif case[0] == "hermite_fn":
            got = [hermite_fn(*case[1:]).hex()]
        elif case[0] == "kummer_m":
            got = [kummer_m(*case[1:]).hex()]
        elif case[0] == "charlier_rational":
            got = [str(charlier_direct(*case[1:], mode="rational"))]
        elif case[0] == "sharpness_check":
            got = [str(v) for v in sharpness_check(*case[1:])]
        elif case[0] == "trace_deviation":
            import numpy as np
            t1, t2 = (PolygonTrace(np.array(case[1]), np.array(s), 0.5) for s in case[2:])
            got = [trace_deviation(t1, t2).hex()]
        elif case[0] in ("charlier_zeros_in_order", "hermite_zeros_in_order",
                         "zero_convergence_table"):
            got = [[v.hex() if isinstance(v, float) else v for v in r]
                   for r in getattr(api, case[0])(*case[1:])]
        elif case[0] == "count_positive_zeros":
            got = [api.count_positive_zeros(*case[1:])]
        elif case[0] == "repr":
            got = [repr(eval(case[1], {name: getattr(api, name) for name in api.__all__}))]
        elif case[1] == "scaled_y":
            got = [repr(scaled_y(ScaledPoint(*case[2:4]), *case[4:]))]
        elif case[1] == "euler_polygon":
            got = [repr(euler_polygon(case[2], case[3:5], *case[5:]).states.tolist())]
        elif case[0] == "call":
            got = [repr(getattr(api, case[1])(*case[2:]))]
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
