"""Call spans for the traced run, and the arithmetic the benchmark does on
spans and latencies.

A span is a list [name, start, end, parent, op, via, info]: the traced
function's name, perf_counter start and end, the index of the enclosing
span (-1 at top level), the benchmark op that caused it, the module
through which the call was made, and an optional per-call value (for
example the degree of a Charlier sum).  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import math
import time

NAME, START, END, PARENT, OP, VIA, INFO = range(7)


class Tracer:
    """Records a span around every call of the functions it wraps."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._patched = []

    def wrap(self, name, fn, via, note=None):
        """Return fn wrapped to record spans named `name`.

        note(name, args, kwargs, result) -> (name, info) may rename the
        span and attach a value once the call has returned.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, via, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NAME], rec[INFO] = note(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, modules, targets):
        """Replace, in every module of `modules`, each attribute bound to a
        function in `targets` ({function: (span name, note)}) by a traced
        wrapper.  The wrapper records the short module name as `via`, so a
        call made through an imported name is told apart from a direct one.
        """
        by_id = {id(fn): (fn, spec) for fn, spec in targets.items()}
        for mod in modules:
            via = mod.__name__.rsplit(".", 1)[-1]
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is None or hit[0] is not val:
                    continue
                name, note = hit[1]
                self._patched.append((mod, attr, val))
                setattr(mod, attr, self.wrap(name, val, via, note))

    def uninstall(self):
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()


def self_times(spans):
    """Self time of each span: its duration minus the part of its interval
    that the union of its child spans covers."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        lo_run = hi_run = None
        clipped = sorted((max(spans[c][START], start), min(spans[c][END], end))
                         for c in children[i])
        for lo, hi in clipped:
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out.append((end - start) - covered)
    return out


def percentile(values, q, min_beyond=10):
    """Nearest-rank q-quantile of `values`, or None when fewer than
    `min_beyond` samples lie above it (so p90 needs at least 100)."""
    n = len(values)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < min_beyond:
        return None
    return sorted(values)[rank - 1]
