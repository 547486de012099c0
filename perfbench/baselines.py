"""Time the single-call baselines that ROADMAP.md quotes, untraced.

    python3 perfbench/baselines.py

Each figure is the median of a few calls in this interpreter, except the
import and CLI figures, which are medians over fresh interpreters.  It
takes about half a minute.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def median_time(fn, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fresh(argv, reps=7):
    sys.path.insert(0, HERE)
    from run import worker_env
    env = worker_env()
    return median_time(lambda: subprocess.run(argv, env=env, cwd=ROOT, check=True,
                                              capture_output=True), reps)


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import charlier_hermite as api
    rows = []
    for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
        reps = 21 if n < 10 ** 6 else 5
        rows.append((f"charlier_direct n={n:.0e}", "ms",
                     1e3 * median_time(lambda: api.charlier_direct(n, float(n), 1.5), reps)))
    rows.append(("scaled_y a=1e7", "s", median_time(
        lambda: api.scaled_y(api.ScaledPoint(0.5, 1e7), 1.5), 1)))
    # nu = 1.5: at integer nu the Charlier series has only nu + 1 nonzero
    # terms and fsum over the zero tail is much cheaper
    for a in (1e3, 1e4, 1e5):
        rows.append((f"charlier_state_trace a={a:.0e} nu=1.5 x in [0, 1]", "s", median_time(
            lambda: api.charlier_state_trace(1.5, a, 1.0), 3 if a < 1e5 else 1)))
    z = api.charlier_state_trace(1.5, 1e4, 1.0)
    dx = 1.0 / (2e5) ** 0.5
    rows.append(("euler_polygon on the a=1e5 grid", "ms", 1e3 * median_time(
        lambda: api.euler_polygon(1.5, z.states[0], 1.0, dx), 21)))
    rows.append(("hermite_fn(1.3, 0.4)", "us", 1e6 * median_time(
        lambda: [api.hermite_fn(1.3, 0.4) for _ in range(1000)], 7) / 1000))
    py = sys.executable
    rows.append(("python -c pass", "s", fresh([py, "-c", "pass"])))
    rows.append(("python -c 'import numpy'", "s", fresh([py, "-c", "import numpy"])))
    rows.append(("python -c 'import charlier_hermite'", "s", fresh([py, "-c", "import charlier_hermite"])))
    rows.append(("eval hermite --nu 2 --x 0.5", "s",
                 fresh([py, "-m", "charlier_hermite.cli", "eval", "hermite", "--nu", "2", "--x", "0.5"])))
    print("| baseline | value | unit |\n|---|---|---|")
    for name, unit, value in rows:
        print(f"| {name} | {value:.4g} | {unit} |")


if __name__ == "__main__":
    main()
