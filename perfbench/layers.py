"""Which package functions the traced run wraps, and the per-layer metrics
computed from the spans they record."""

from __future__ import annotations

import inspect
import math
import statistics
import sys
from collections import Counter

from spans import END, INFO, NAME, PARENT, START, VIA, self_times

MODULES = ("special", "hermite", "charlier", "asymptotics", "polygon", "zeros", "ratefit")

CLI_COMMANDS = ("eval-hermite", "eval-charlier", "eval-charlier-rational", "eval-scaled",
                "sweep-convergence", "plot-fnu", "zeros-convergence", "polygon-compare",
                "asymptotics-head-tail")

# (name, unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = [
    ("special.kummer_m.calls", "count", "lower"),
    ("special.kummer_m.self_s", "s", "lower"),
    ("special.upper_incomplete_gamma.calls", "count", "lower"),
    ("special.upper_incomplete_gamma.self_s", "s", "lower"),
    ("special.ln_gamma.calls", "count", "lower"),
    ("special.ln_gamma.self_s", "s", "lower"),
    ("hermite.hermite_fn.calls", "count", "lower"),
    ("hermite.hermite_fn.self_s", "s", "lower"),
    ("hermite.hermite_fn.us_per_call", "us", "lower"),
    ("hermite.hermite_fn.fail_ratio", "ratio", "lower"),
    ("charlier.charlier_direct.calls", "count", "lower"),
    ("charlier.charlier_direct.self_s", "s", "lower"),
    ("charlier.charlier_direct.terms", "count", "lower"),
    ("charlier.charlier_direct.ns_per_term", "ns", "lower"),
    ("charlier.charlier_direct.peak_alloc_mb", "MB", "lower"),
    ("charlier.rational.calls", "count", "lower"),
    ("charlier.rational.self_s", "s", "lower"),
    ("charlier.scaled_y.calls", "count", "lower"),
    ("charlier.scaled_y.self_s", "s", "lower"),
    ("asymptotics.head_tail_split.calls", "count", "lower"),
    ("asymptotics.head_tail_split.self_s", "s", "lower"),
    ("asymptotics.factor_q.calls", "count", "lower"),
    ("asymptotics.factor_q.self_s", "s", "lower"),
    ("asymptotics.trapezoid_gamma_check.self_s", "s", "lower"),
    ("polygon.charlier_state_trace.calls", "count", "lower"),
    ("polygon.charlier_state_trace.self_s", "s", "lower"),
    ("polygon.charlier_state_trace.nodes", "count", "lower"),
    ("polygon.charlier_state_trace.charlier_calls_per_node", "ratio", "lower"),
    ("polygon.euler_polygon.self_s", "s", "lower"),
    ("zeros.self_s", "s", "lower"),
    ("zeros.fevals", "count", "lower"),
    ("zeros.roots", "count", "higher"),
    ("zeros.fevals_per_root", "ratio", "lower"),
    ("ratefit.fit_rate.self_s", "s", "lower"),
    ("ratefit.sharpness_check.self_s", "s", "lower"),
    ("cli.interpreter_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    *((f"cli.{c}.ms", "ms", "lower") for c in CLI_COMMANDS),
    ("trace.overhead_ratio", "ratio", "lower"),
]

_COUNTED = {"special.kummer_m", "special.upper_incomplete_gamma", "special.ln_gamma",
            "hermite.hermite_fn", "charlier.charlier_direct", "charlier.rational",
            "charlier.scaled_y", "asymptotics.head_tail_split", "asymptotics.factor_q",
            "asymptotics.trapezoid_gamma_check", "polygon.charlier_state_trace",
            "polygon.euler_polygon", "ratefit.fit_rate", "ratefit.sharpness_check"}


def _arg(args, kwargs, i, key, default=None):
    return args[i] if len(args) > i else kwargs.get(key, default)


def _charlier_note(name, args, kwargs, result):
    n = int(_arg(args, kwargs, 0, "n"))
    if _arg(args, kwargs, 3, "mode", "float") == "rational":
        return "charlier.rational", (n, None, None)
    return name, (n, float(_arg(args, kwargs, 1, "a")), float(_arg(args, kwargs, 2, "nu")))


def _hermite_note(name, args, kwargs, result):
    return name, (float(_arg(args, kwargs, 0, "nu")), float(_arg(args, kwargs, 1, "x")), result)


def _nodes_note(name, args, kwargs, result):
    return name, len(result.xs)


def _roots_note(name, args, kwargs, result):
    if isinstance(result, int):
        return name, result
    return name, sum(getattr(r, "error", None) is None for r in result)


NOTES = {
    "charlier.charlier_direct": _charlier_note,
    "hermite.hermite_fn": _hermite_note,
    "polygon.charlier_state_trace": _nodes_note,
    "zeros.charlier_zeros_in_order": _roots_note,
    "zeros.hermite_zeros_in_order": _roots_note,
    "zeros.count_positive_zeros": _roots_note,
    "zeros.zero_convergence_table": _roots_note,
}


def install(tracer):
    """Wrap every public function of the package's modules, in every loaded
    module of the package that binds it."""
    import charlier_hermite as pkg
    targets = {}
    for attr in pkg.__all__:
        fn = getattr(pkg, attr)
        short = getattr(fn, "__module__", "").rsplit(".", 1)[-1]
        if inspect.isfunction(fn) and short in MODULES:
            name = f"{short}.{fn.__name__}"
            targets[fn] = (name, NOTES.get(name))
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "charlier_hermite" or key.startswith("charlier_hermite.")]
    tracer.install(modules, targets)


def layer_metrics(span_lists):
    """Per-layer metrics (totals over the traced pass) from one span list per
    traced process; also returns the recorded charlier_direct arguments and
    hermite_fn calls for the allocation replay and the mpmath sample."""
    calls, own, incl = Counter(), Counter(), Counter()
    terms = nodes = trace_charlier = fevals = roots = 0
    zeros_self = 0.0
    charlier_args, hermite_calls = [], []
    for spans in span_lists:
        st = self_times(spans)
        for i, s in enumerate(spans):
            name = s[NAME]
            calls[name] += 1
            own[name] += st[i]
            incl[name] += s[END] - s[START]
            parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
            if name == "charlier.charlier_direct" and s[INFO]:
                terms += s[INFO][0] + 1
                charlier_args.append(s[INFO])
            elif name == "hermite.hermite_fn" and s[INFO]:
                hermite_calls.append(s[INFO])
            elif name == "polygon.charlier_state_trace" and s[INFO]:
                nodes += s[INFO]
            if name.startswith("zeros."):
                zeros_self += st[i]
                if not parent.startswith("zeros."):
                    roots += s[INFO] or 0
            is_eval = name in ("hermite.hermite_fn", "charlier.charlier_direct", "charlier.rational")
            if is_eval and s[VIA] == "zeros":
                fevals += 1
            if name.startswith("charlier.") and parent == "polygon.charlier_state_trace":
                trace_charlier += 1
    out = {}
    for name in _COUNTED:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = own[name]
    h = "hermite.hermite_fn"
    out[f"{h}.us_per_call"] = 1e6 * incl[h] / calls[h] if calls[h] else 0.0
    c = "charlier.charlier_direct"
    out[f"{c}.terms"] = terms
    out[f"{c}.ns_per_term"] = 1e9 * own[c] / terms if terms else 0.0
    p = "polygon.charlier_state_trace"
    out[f"{p}.nodes"] = nodes
    out[f"{p}.charlier_calls_per_node"] = trace_charlier / nodes if nodes else 0.0
    out["zeros.self_s"] = zeros_self
    out["zeros.fevals"] = fevals
    out["zeros.roots"] = roots
    out["zeros.fevals_per_root"] = fevals / roots if roots else 0.0
    return out, charlier_args, hermite_calls


def call_profile(spans):
    """Median milliseconds per call of charlier_direct by the power of ten
    nearest to n, and of charlier_state_trace by node count: the
    single-call figures ROADMAP.md quotes, read off the traced pass."""
    by_n, by_nodes = {}, {}
    for s in spans:
        if s[NAME] == "charlier.charlier_direct" and s[INFO] and s[INFO][0] > 0:
            key = f"1e{round(math.log10(s[INFO][0]))}"
            by_n.setdefault(key, []).append(1e3 * (s[END] - s[START]))
        elif s[NAME] == "polygon.charlier_state_trace" and s[INFO]:
            by_nodes.setdefault(s[INFO], []).append(1e3 * (s[END] - s[START]))
    med = lambda d: {k: (statistics.median(v), len(v)) for k, v in sorted(d.items())}
    return {"charlier_direct_ms_by_n_decade": med(by_n),
            "charlier_state_trace_ms_by_nodes": med(by_nodes)}
