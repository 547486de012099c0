"""One workload in a fresh interpreter; started by run.py, one at a time.

    worker.py WORKLOAD SEED SECONDS MODE [SPANS_FILE]

MODE is `setup` (get ready, report when, exit), `run` (untimed set-up,
then the timed closed loop for SECONDS, then the checks) or `trace` (the
closed loop for SECONDS/2, then one traced pass, then the checks and the
per-layer metrics; spans go to SPANS_FILE).  The result is one JSON line
on stdout.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import layers
import spans as spanlib
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_OPS = 100
# Times are reported in reference seconds: measured seconds times
# REF_PROBE_S over the time of the speed probe at that moment.  A shared
# host can switch CPU speed within seconds (by about 1.5x on the VM that
# perfbench/README.md cites); the probe tracks the switch, the clock alone
# does not.
REF_PROBE_S = 0.005
PROBE_EVERY = 0.5


def make_workload(name):
    if name == "cli":
        return workloads.Cli(ROOT, dict(os.environ))
    return {"sweep": workloads.Sweep, "trace": workloads.Trace, "zeros": workloads.Zeros}[name]()


def speed_probe():
    """Seconds taken by a fixed pure-Python kernel that does not touch the
    package (about 5 ms at full speed on the VM the README cites)."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(25_000):
        acc += math.sqrt(i + acc % 7.0)
        table[i & 255] = acc
    return time.perf_counter() - t0


def speed_factor():
    """Factor from seconds at the machine's present speed to reference
    seconds: REF_PROBE_S over the median of three speed probes."""
    return REF_PROBE_S / statistics.median(speed_probe() for _ in range(3))


def run_pass(api, wl, ops, documented, deadline=None, tracer=None):
    """Run the ops of one pass in order; stop early once `deadline` has
    passed.  Returns (outcomes, per-op reference seconds).  The speed
    probes run between ops, every PROBE_EVERY seconds, and are not timed."""
    clock = time.perf_counter
    done, lat = [], []
    reprobe = clock()
    for i, (kind, params) in enumerate(ops):
        now = clock()
        if deadline is not None and now >= deadline:
            break
        if now >= reprobe:
            factor = speed_factor()
            reprobe = clock() + PROBE_EVERY
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            out = ("ok", wl.call(api, kind, params, done))
        except documented as exc:
            base = "DomainError" if isinstance(exc, documented[0]) else "ConvergenceError"
            out = ("raised", base, str(exc))
        except Exception as exc:  # an undocumented exception is a failed op
            out = ("crashed", repr(exc))
        lat.append((clock() - t0) * factor)
        done.append(out)
    return done, lat


class Outcomes:
    """The first whole pass's outcomes and, for the passes after it, only
    which ops differed from the first (keeping every outcome would grow
    with the run and show in peak_rss_mb)."""

    def __init__(self, wl, ops):
        self.wl, self.ops = wl, ops
        self.first = self.digests = None
        self.differ = set()  # indices of ops with a run that differed from the first pass

    def add(self, done):
        kinds = [kind for kind, _ in self.ops]
        if self.first is None:
            self.first = done
            self.digests = [self.wl.digest(k, out) for k, out in zip(kinds, done)]
        else:
            self.differ.update(i for i, out in enumerate(done)
                               if self.wl.digest(kinds[i], out) != self.digests[i])

    def check(self):
        """Check the first pass against the oracle.  Returns (attempted,
        failed, known, notes) over the distinct ops of the pass, each
        counted once however often it ran, so that they depend on the
        seed and not on how many passes fit in the run.  An op fails if it
        misses the oracle or if any of its runs differed from the first."""
        failed = known = 0
        notes = []
        for i, ((kind, params), out) in enumerate(zip(self.ops, self.first)):
            ok, is_known, note = self.wl.check(kind, params, out, self.first)
            if ok and i in self.differ:
                ok, is_known, note = False, False, f"op {i} ({kind}) differs between passes"
            if not ok:
                failed += 1
                known += is_known
                if not is_known and len(notes) < 5:
                    notes.append(note)
        return len(self.first), failed, known, notes


def timed_loop(api, wl, ops, documented, seconds, record, min_ops=0):
    """Closed loop over passes for `seconds`, and past that until at least
    one whole pass and `min_ops` ops have run.  Returns (per-op, whole-pass
    and total op time) of the whole passes, in reference seconds.  The pass
    the deadline cuts short is checked but not counted: its ops are the
    first ones of the pass, not a sample of it.  The comparison of each
    pass with the first, between passes, is not timed."""
    deadline = time.perf_counter() + seconds
    lat, walls = [], []
    while True:
        short = not walls or len(lat) < min_ops
        done, op_s = run_pass(api, wl, ops, documented, None if short else deadline)
        record.add(done)
        if len(done) == len(ops):
            lat += op_s
            walls.append(sum(op_s))
        if time.perf_counter() >= deadline and walls and len(lat) >= min_ops:
            return lat, walls, sum(walls)


def probe(argv, reps=5):
    """Median wall seconds of running argv in a fresh interpreter."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, capture_output=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_probe(reps=5):
    code = ("import time; t = time.perf_counter(); import charlier_hermite; "
            "print(time.perf_counter() - t)")
    out = [float(subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                                cwd=ROOT).stdout) for _ in range(reps)]
    return statistics.median(out)


def peak_alloc_mb(api, charlier_args):
    """Peak traced allocation of the traced pass's largest-n float
    charlier_direct call, replayed under tracemalloc."""
    import tracemalloc
    if not charlier_args:
        return 0.0
    tracemalloc.start()
    try:
        api.charlier_direct(*max(charlier_args))
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def hermite_fail_ratio(hermite_calls, sample=200):
    """Share of an even sample of the traced hermite_fn calls that miss
    the mpmath oracle; returns (ratio, sample size)."""
    import oracle
    if not hermite_calls:
        return 0.0, 0
    step = max(1, len(hermite_calls) // sample)
    picked = hermite_calls[::step][:sample]
    bad = sum(not oracle.check_hermite(nu, x, h)[0] for nu, x, h in picked)
    return bad / len(picked), len(picked)


def traced_pass(api, wl, ops, documented, spans_file):
    """One pass with every public package function traced (the cli
    workload traces inside each child process instead).  Returns
    (outcomes, pass seconds, per-layer metrics, call profile, number of
    hermite_fn calls sampled against mpmath)."""
    tracer = spanlib.Tracer()
    child_files, cmd_ms = [], {}
    if wl.name == "cli":
        def child(cmd):
            path = f"{spans_file}.child{len(child_files)}.json"
            child_files.append((cmd, path))
            return path
        wl.child = child
    else:
        layers.install(tracer)
    try:
        done, lat = run_pass(api, wl, ops, documented, tracer=tracer)
    finally:
        tracer.uninstall()
        wl.child = None
    span_lists, main_self = [tracer.spans], 0.0
    for (cmd, path), op_s in zip(child_files, lat):
        with open(path) as f:
            child_spans = json.load(f)
        os.remove(path)
        span_lists.append(child_spans)
        main_self += sum(s for s, rec in zip(spanlib.self_times(child_spans), child_spans)
                         if rec[spanlib.NAME] == "cli.main")
        cmd_ms.setdefault(cmd, []).append(1e3 * op_s)
    with gzip.open(spans_file, "wt") as f:
        for proc, recs in enumerate(span_lists):
            for rec in recs:
                f.write(json.dumps([proc, *rec]) + "\n")
    per_layer, charlier_args, hermite_calls = layers.layer_metrics(span_lists)
    per_layer["cli.main.self_s"] = main_self
    for cmd in layers.CLI_COMMANDS:
        per_layer[f"cli.{cmd}.ms"] = statistics.median(cmd_ms[cmd]) if cmd in cmd_ms else 0.0
    per_layer["charlier.charlier_direct.peak_alloc_mb"] = peak_alloc_mb(api, charlier_args)
    ratio, sampled = hermite_fail_ratio(hermite_calls)
    per_layer["hermite.hermite_fn.fail_ratio"] = ratio
    return done, sum(lat), per_layer, layers.call_profile(tracer.spans), sampled


def main(argv):
    t_start = time.monotonic()
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    import charlier_hermite as api
    from charlier_hermite.errors import ConvergenceError, DomainError
    documented = (DomainError, ConvergenceError)
    wl = make_workload(name)
    ops = wl.ops(random.Random(seed))
    wl.warm(api)
    ready = time.monotonic()
    result = {"ready": ready, "started": t_start, "speed": speed_factor(),
              "ops_per_pass": len(ops)}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    # p90 is reported only with 10 samples beyond it, so a run takes at
    # least 100 ops; the traced mode needs only the untraced pass time.
    record = Outcomes(wl, ops)
    if mode == "run":
        lat, walls, timed_s = timed_loop(api, wl, ops, documented, seconds, record, MIN_OPS)
    else:
        lat, walls, timed_s = timed_loop(api, wl, ops, documented, seconds / 2, record)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    result.update(ops=len(lat), timed_s=timed_s, pass_walls=walls,
                  op_ms_p50=spanlib.percentile([1e3 * t for t in lat], 0.5),
                  op_ms_p90=spanlib.percentile([1e3 * t for t in lat], 0.9),
                  peak_rss_mb=rss.ru_maxrss / 1024.0)
    if mode == "trace":
        done, wall, per_layer, profile, sampled = traced_pass(api, wl, ops, documented, argv[4])
        record.add(done)
        per_layer["cli.interpreter_s"] = probe([sys.executable, "-c", "pass"])
        per_layer["cli.import_s"] = import_probe()
        per_layer["trace.overhead_ratio"] = wall / statistics.median(walls)
        result.update(per_layer=per_layer, profile=profile, traced_wall=wall,
                      hermite_sampled=sampled)
    attempted, failed, known, notes = record.check()
    result.update(attempted=attempted, failed=failed, known_defects=known, notes=notes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
