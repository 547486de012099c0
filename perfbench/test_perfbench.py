"""Self-checks of the benchmark's own arithmetic: span self time, the
percentile rule, the tracer, the per-layer counts and the Charlier oracle.

    python3 -m pytest perfbench
"""

import math
import types
from fractions import Fraction

import layers
import oracle
from spans import Tracer, percentile, self_times


def span(name, start, end, parent, via="", info=None):
    return [name, start, end, parent, 0, via, info]


def test_self_time_of_nested_tree():
    tree = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("b.1", 5.5, 7.0, 3),
        span("b.2", 6.5, 8.0, 3),   # overlaps b.1: the union counts once
        span("b.3", 8.5, 9.5, 3),   # runs past its parent: clipped at 9
    ]
    got = self_times(tree)
    want = [10 - 3 - 4, 3 - 1, 1, 4 - 2.5 - 0.5, 1.5, 1.5, 1.0]
    assert all(math.isclose(g, w) for g, w in zip(got, want)), got
    # self times of a tree without overlaps add up to the root's duration
    assert math.isclose(sum(self_times(tree[:4])), 10.0)


def test_percentile_needs_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.9) == 90.0      # 10 samples above it
    assert percentile(values[:99], 0.9) is None  # only 9 above
    assert percentile(values[:20], 0.5) == 10.0
    assert percentile(values[:19], 0.5) is None
    assert percentile([], 0.5) is None


def test_tracer_records_nesting_and_restores():
    mod = types.ModuleType("fake.mod")

    def inner(v):
        return v + 1

    def outer(v):
        return mod.inner(v) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.install([mod], {inner: ("m.inner", None), outer: ("m.outer", None)})
    tracer.op = 7
    assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    (o, i) = tracer.spans
    assert (o[0], o[3], i[0], i[3], i[4], i[5]) == ("m.outer", -1, "m.inner", 0, 7, "mod")
    assert o[1] <= i[1] <= i[2] <= o[2]


def test_layer_counts():
    spans = [
        span("zeros.zero_convergence_table", 0.0, 10.0, -1, "zeros", 3),
        span("zeros.hermite_zeros_in_order", 1.0, 2.0, 0, "zeros", 1),
        span("hermite.hermite_fn", 1.1, 1.2, 1, "zeros", (0.5, 0.1, 1.0)),
        span("charlier.charlier_direct", 3.0, 4.0, 0, "zeros", (99, 100.0, 1.5)),
        span("polygon.charlier_state_trace", 5.0, 9.0, -1, "polygon", 2),
        span("charlier.charlier_direct", 5.0, 6.0, 4, "polygon", (9, 10.0, 1.0)),
        span("charlier.charlier_direct", 6.0, 7.0, 4, "polygon", (10, 10.0, 1.0)),
        span("charlier.charlier_direct", 7.0, 8.0, 4, "polygon", (11, 10.0, 1.0)),
    ]
    out, args, hermite = layers.layer_metrics([spans])
    assert out["zeros.roots"] == 3            # only the outermost zeros span counts
    assert out["zeros.fevals"] == 2
    assert math.isclose(out["zeros.self_s"], (10 - 1 - 1) + (1 - 0.1))
    assert out["charlier.charlier_direct.terms"] == 100 + 10 + 11 + 12
    assert out["polygon.charlier_state_trace.charlier_calls_per_node"] == 1.5
    assert len(args) == 4 and hermite == [(0.5, 0.1, 1.0)]
    assert {name for name, _, _ in layers.PER_LAYER} <= set(out) | {
        "charlier.charlier_direct.peak_alloc_mb", "hermite.hermite_fn.fail_ratio",
        "cli.interpreter_s", "cli.import_s", "cli.main.self_s", "trace.overhead_ratio",
        *(f"cli.{c}.ms" for c in layers.CLI_COMMANDS)}


def test_charlier_oracle_matches_exact_sum():
    for n, a, nu in ((5, Fraction(5, 2), Fraction(1, 3)), (30, 7.25, -2.5), (40, 40.0, 1.5)):
        A, V = Fraction(a), Fraction(nu)
        exact = sum(math.comb(n, k) * math.prod(j - V for j in range(k)) / A ** k
                    for k in range(n + 1))
        got, weight = oracle.charlier_exact(n, a, nu)
        assert weight >= 1.0
        assert abs(got - exact) <= n * Fraction(weight) / 2 ** 300

