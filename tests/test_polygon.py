import functools
import math
import sys
import types
from fractions import Fraction

import numpy as np
import pytest

from charlier_hermite import (
    DomainError,
    apriori_deviation_bound,
    charlier_state_trace,
    euler_polygon,
    fit_rate,
    hermite_derivative,
    hermite_fn,
    scaled_y,
    ScaledPoint,
    system_matrix_norm_bound,
    trace_deviation,
)
from charlier_hermite import charlier, charlier_direct, polygon


def test_norm_bound_dominates_singular_value():
    rng = np.random.default_rng(41)
    for _ in range(200):
        nu = float(rng.uniform(-5.0, 5.0))
        x = float(rng.uniform(-3.0, 3.0))
        sigma = np.linalg.svd([[0.0, 1.0], [-2.0 * nu, 2.0 * x]], compute_uv=False)[0]
        assert sigma <= system_matrix_norm_bound(x, nu) * (1.0 + 1e-12), (nu, x)


def test_euler_single_step():
    u0 = np.array([0.7, -1.2])
    dx = 0.01
    tr = euler_polygon(1.3, u0, 0.015, dx)  # two nodes
    want = u0 + dx * np.array([[0.0, 1.0], [-2.0 * 1.3, 0.0]]) @ u0
    assert np.allclose(tr.states[1], want, rtol=0.0, atol=0.0)
    assert tr.xs[0] == 0.0 and tr.xs[1] == dx


def test_euler_is_exact_on_the_linear_solution():
    # H_1 = 2x solves the system; Euler reproduces it without error
    for dx in (1.0 / 64.0, 1.0 / math.sqrt(20000.0)):
        tr = euler_polygon(1.0, (0.0, 2.0), 1.0, dx)
        assert np.array_equal(tr.states[:, 0], 2.0 * tr.xs)
        assert np.all(tr.states[:, 1] == 2.0)


def test_euler_first_order_convergence():
    init = (hermite_fn(2.0, 0.0), hermite_derivative(2.0, 0.0))
    exact = hermite_fn(2.0, 1.0)
    errs = []
    for dx in (0.02, 0.01, 0.005, 0.0025):
        tr = euler_polygon(2.0, init, 1.0, dx)
        errs.append(abs(tr.states[-1, 0] - exact))
    for e1, e2 in zip(errs, errs[1:]):
        assert e2 <= 0.5 * e1, errs


def test_euler_direction_reversal():
    init = (hermite_fn(2.0, 0.0), hermite_derivative(2.0, 0.0))
    tr = euler_polygon(2.0, init, 0.5, 0.001, direction=-1)
    assert tr.xs[-1] < 0
    # H_2 = 4x^2 - 2 is even; the final node approximates H_2(-0.5) = H_2(0.5)
    assert abs(tr.states[-1, 0] - hermite_fn(2.0, -0.5)) < 5e-3


def test_euler_validation():
    with pytest.raises(DomainError):
        euler_polygon(1.0, (0.0, 2.0), 1.0, 0.1, direction=0)
    with pytest.raises(DomainError):
        euler_polygon(1.0, (0.0, 2.0), -1.0, 0.1)


def test_node_count_is_capped_before_any_work(monkeypatch):
    # the capped inputs ask for 10^9, 1.4e6 and infinitely many nodes; the
    # cap must reject them before the nodes are added up, the rows or the
    # arrays are made, or a Charlier sum is taken
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the node count was checked")

    monkeypatch.setattr(polygon, "itertools",
                        types.SimpleNamespace(accumulate=no_work, repeat=no_work))
    monkeypatch.setattr(polygon, "_polygon_trace", no_work)
    monkeypatch.setattr(polygon, "charlier_direct", no_work)
    for x_max, dx in ((1.0, 1e-9), (1e308, 1e-300)):
        with pytest.raises(DomainError, match="1000000 nodes"):
            euler_polygon(1.0, (0.0, 2.0), x_max, dx)
    with pytest.raises(DomainError, match="1000000 nodes"):
        charlier_state_trace(1.0, 1e12, 1.0)
    # 10^6 nodes are still allowed, one more is not
    assert polygon._node_count(999_999.0, 1.0) == 999_999
    with pytest.raises(DomainError, match="1000000 nodes"):
        polygon._node_count(1_000_000.0, 1.0)


def test_state_trace_term_cap_precedes_any_sum(monkeypatch):
    # at x_max = 1 the anchors' first blocks hold 7.1e10 terms at a = 1e11,
    # refused before a sum, and 7.1e9 at a = 1e10, which goes on to sum
    class Summed(Exception):
        pass

    def first_sum(*args):
        raise Summed

    monkeypatch.setattr(polygon, "charlier_direct", first_sum)
    for direction in (1, -1):
        with pytest.raises(DomainError, match="13977 anchors of 5059708 terms each, more than "
                                              "10000000000 terms"):
            charlier_state_trace(1.0, 1e11, 1.0, direction)
        with pytest.raises(Summed):
            charlier_state_trace(1.0, 1e10, 1.0, direction)


def test_state_trace_nu_zero_is_constant():
    tr = charlier_state_trace(0.0, 50.0, 1.0)
    assert np.all(tr.states[:, 0] == 1.0)
    assert np.all(tr.states[:, 1] == 0.0)


def test_state_trace_first_node_matches_scaled_y():
    for a in (30.0, 144.5):
        nu = 1.5
        tr = charlier_state_trace(nu, a, 0.5)
        assert tr.states[0, 0] == scaled_y(ScaledPoint(x=0.0, a=a), nu)


def test_state_trace_initial_slope_converges_to_derivative():
    # second component of z_0 vs H'_nu(0) = 2 nu H_{nu-1}(0), rate -1/2
    nu = 1.5
    want = 2.0 * nu * hermite_fn(nu - 1.0, 0.0)
    pts = []
    for a in (1e2, 1e3, 1e4, 1e5):
        tr = charlier_state_trace(nu, a, 0.1)
        pts.append((a, abs(tr.states[0, 1] - want)))
    fit = fit_rate(pts)
    assert -0.65 <= fit.slope <= -0.35, fit


def test_state_trace_degree_guard():
    # x_max = 3 walks 6 degrees down from ceil(a) = 2: below degree 1
    with pytest.raises(DomainError):
        charlier_state_trace(1.0, 2.0, 3.0)


def test_trace_deviation_rules():
    z = charlier_state_trace(0.5, 200.0, 1.0)
    assert trace_deviation(z, z) == 0.0
    u = euler_polygon(0.5, z.states[0], 1.0, z.step)
    assert trace_deviation(z, u) == trace_deviation(u, z)
    short = euler_polygon(0.5, z.states[0], 0.5, z.step)
    with pytest.raises(DomainError):
        trace_deviation(z, short)
    other = euler_polygon(0.5, z.states[0], 1.0, z.step * 1.000001)
    with pytest.raises(DomainError):
        trace_deviation(z, other)


def test_trace_deviation_is_max_hypot():
    # trace_deviation is, by hex, the max of math.hypot over the state
    # differences numpy takes, and within 1 ulp of their 40-digit norm,
    # subnormal and huge differences included; where it is past double range
    # it is refused, and a trace with a NaN state is refused when it is built
    mp = pytest.importorskip("mpmath").mp
    rng = np.random.default_rng(19)
    xs = np.arange(6.0)
    zero = polygon.PolygonTrace(xs, np.zeros((6, 2)), 1.0)
    seen = set()
    for i in range(300):
        low = 307.5 if i % 3 == 2 else -330.0  # a third of the draws near the top
        s1, s2 = (rng.uniform(-1.0, 1.0, (6, 2)) * 10.0 ** rng.uniform(low, 308.25, (6, 2))
                  for _ in range(2))
        if i % 3 == 0:
            s1[rng.integers(6), rng.integers(2)] = math.nan
            with pytest.raises(DomainError, match="^PolygonTrace needs finite xs and states$"):
                polygon.PolygonTrace(xs, s1, 1.0)
            continue
        with np.errstate(over="ignore"):
            d0, d1 = (s1 - s2).T.tolist()
        want = max(map(math.hypot, d0, d1))
        with mp.workdps(40):
            norm = max(mp.sqrt(mp.mpf(u) ** 2 + mp.mpf(v) ** 2) for u, v in zip(d0, d1))
            assert abs(want - norm) <= math.ulp(want) or norm > sys.float_info.max, i
        t1, t2 = polygon.PolygonTrace(xs, s1, 1.0), polygon.PolygonTrace(xs, s2, 1.0)
        seen.add(want == math.inf)  # both kinds are drawn
        if want == math.inf:
            with pytest.raises(DomainError, match="^the trace deviation is outside double range$"):
                trace_deviation(t1, t2)
        else:
            got = trace_deviation(t1, t2)
            assert got.hex() == want.hex(), (i, got, want)
    assert seen == {False, True}
    # the squares of these differences overflow, or underflow to 0
    for state, want in (((1e200, 0.0), 1e200), ((3e-200, 4e-200), 5e-200)):
        far = polygon.PolygonTrace(xs, np.array([state] * 6), 1.0)
        assert trace_deviation(far, zero) == trace_deviation(zero, far) == want


def test_trace_deviation_of_traces_a_caller_builds():
    # a trace holds finite nodes and states; the difference of two of them
    # can still overflow, and is taken without numpy's overflow warning
    xs = np.array([0.0, 0.5])
    for bad_xs, bad_states in [(xs, [[0.0, 1.0], [math.nan, 1.0]]),
                               (xs, [[0.0, 1.0], [1.0, -math.inf]]),
                               ([0.0, math.inf], [[0.0, 1.0], [1.0, 1.0]])]:
        with pytest.raises(DomainError, match="^PolygonTrace needs finite xs and states$"):
            polygon.PolygonTrace(np.array(bad_xs), np.array(bad_states), 0.5)
    big = polygon.PolygonTrace(xs, np.full((2, 2), 1e308), 0.5)
    low = polygon.PolygonTrace(xs, np.full((2, 2), -1e308), 0.5)
    with pytest.raises(DomainError, match="^the trace deviation is outside double range$"):
        trace_deviation(big, low)
    assert trace_deviation(big, big) == 0.0
    zero = polygon.PolygonTrace(xs, np.zeros((2, 2)), 0.5)
    huge = polygon.PolygonTrace(xs, np.array([[0.0, 0.0], [1e200, 0.0]]), 0.5)
    assert trace_deviation(huge, zero) == 1e200
    tiny = polygon.PolygonTrace(xs, np.array([[0.0, 0.0], [3e-200, 4e-200]]), 0.5)
    assert trace_deviation(tiny, zero) == 5e-200


def test_a_trace_needs_one_state_per_node():
    # one (y, y') state per node, and at least one node
    for xs, states in ((np.zeros(3), np.zeros((2, 2))), (np.zeros(0), np.zeros((0, 2)))):
        with pytest.raises(DomainError,
                           match="^PolygonTrace needs matching non-empty xs and states$"):
            polygon.PolygonTrace(xs, states, 0.1)


def test_z_trace_tracks_euler_at_rate_half():
    for nu in (0.5, 2.0):
        pts = []
        for a in (1e2, 1e3, 1e4):
            z = charlier_state_trace(nu, a, 1.0)
            u = euler_polygon(nu, z.states[0], 1.0, z.step)
            pts.append((a, trace_deviation(z, u)))
        fit = fit_rate(pts)
        assert -0.65 <= fit.slope <= -0.35, (nu, fit)


def test_apriori_bound_dominates_measured_deviation():
    nu, a, x_max = 0.5, 1000.0, 1.0
    z = charlier_state_trace(nu, a, x_max)
    u = euler_polygon(nu, z.states[0], x_max, z.step)
    measured = trace_deviation(z, u)
    bound = apriori_deviation_bound(
        x=x_max,
        dx=z.step,
        u0_norm=float(np.linalg.norm(z.states[0])),
        init_err=0.0,
        xi=x_max,
        psi=abs(nu),
    )
    assert measured <= bound
    # the bound grows with the Lipschitz constant but stays finite
    assert math.isfinite(bound) and bound > 0.0


def test_lipschitz_bound_value():
    xi, psi = 1.0, 2.0
    want = math.sqrt(1.0 + 4.0 * psi ** 2 + 4.0 * xi ** 2)
    assert system_matrix_norm_bound(xi, psi) == want


@functools.lru_cache(maxsize=None)
def _mp_charlier(n, a, nu):
    """(c_n^a(nu), sum_k (k+1)|t_k|) from the series at the exact values of
    a and nu, summed by mpmath at 40 digits until the tail is certified
    below 10^-40 of the second sum, by the bound _blocks uses."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        a_m, nu_m = mp.mpf(a), mp.mpf(nu)
        term = total = weight = mp.mpf(1)
        for k in range(1, n + 1):
            term *= (n - k + 1) * (k - 1 - nu_m) / (k * a_m)
            total += term
            weight += (k + 1) * abs(term)
            if k % 16 == 0 and k > max(nu, 0.0):
                rho = ((n - k) / a) * max(1.0, (k - nu) / (k + 1))
                if rho < 1.0 and abs(term) * rho <= 1e-40 * weight * (1.0 - rho):
                    break
        return +total, +weight


def _assert_states_within_oracle_tolerance(tr, nu, a, direction, nodes):
    # y_k = r^nu c_m and dy_k = direction r^{nu+1} (c_m - c_{m+direction}),
    # m = ceil(a) - direction k, each within 8 eps (scale * weight) +
    # 8 eps |value| of the exact series, as for a float sum of that weight
    mp = pytest.importorskip("mpmath").mp
    eps = 2.0 ** -52
    with mp.workdps(40):
        r = mp.sqrt(2 * mp.mpf(a))
        scale = r ** mp.mpf(nu)
        for k in nodes:
            m = math.ceil(a) - direction * k
            (c, w), (c_prev, w_prev) = _mp_charlier(m, a, nu), _mp_charlier(m + direction, a, nu)
            y, dy = scale * c, direction * scale * r * (c - c_prev)
            assert abs(tr.states[k, 0] - y) <= 8 * eps * (scale * w + abs(y)), (k, m)
            assert abs(tr.states[k, 1] - dy) <= 8 * eps * (scale * r * (w + w_prev) + abs(dy)), (k, m)


def _oracle_cases():
    # a seeded grid over nu in [-3, 4], a from 10 to 1e5, x_max in {1, 2.5}
    # and both directions.  The fixed cases: degree 0, an a where anchors
    # 32 nodes apart would span a turn of about 2 pi (33 times the
    # tolerance), the largest trace at a = 1e5, and traces at a = 3000,
    # 2e4 and 70050.5 in both directions; the README's `polygon compare`,
    # where c at node 0 is exactly 0; a long trace at nu near 0, where the
    # tolerance is about 16 eps relative; and nu = 6.6e-4 at a = 10121 both
    # ways, which a float solve missed 10-fold where it formed each pivot as
    # (m + a - nu) - m h and so lost nu's digits.
    rng = np.random.default_rng(11)
    cases = [(0.7, 0.5, 2.0, -1), (3.8011888941282166, 97.08298473539806, 2.5, 1),
             (3.9, 1e5, 2.5, -1), (-2.3, 3000.0, 1.0, 1), (-2.3, 3000.0, 1.0, -1),
             (2.7, 20000.0, 1.0, 1), (2.7, 20000.0, 1.0, -1),
             (1.5, 70050.5, 0.3, 1), (-0.4, 70050.5, 0.3, -1),
             (1.0, 10000.0, 1.0, 1), (-1e-6, 98937.0, 2.5, 1),
             (6.6e-4, 10121.0, 2.5, 1), (6.6e-4, 10121.0, 2.5, -1)]
    for i in range(16):
        cases.append((float(rng.uniform(-3.0, 4.0)), float(10.0 ** rng.uniform(1.0, 5.0)),
                      (1.0, 2.5)[i % 2], (1, -1)[i // 2 % 2]))
    return cases


@pytest.mark.parametrize("nu, a, x_max, direction", _oracle_cases())
def test_state_trace_is_within_oracle_tolerance(nu, a, x_max, direction):
    # every node where the trace has at most 20, else nodes 0, 1, the last
    # and three more
    try:
        tr = charlier_state_trace(nu, a, x_max, direction)
    except DomainError:
        assert direction == 1 and math.ceil(a) <= x_max * math.sqrt(2.0 * a)
        return
    steps = len(tr.xs) - 1
    x = 0.0
    for k in range(steps + 1):
        assert tr.xs[k] == x
        x += direction * tr.step
    rng = np.random.default_rng(11)
    nodes = range(steps + 1) if steps <= 20 else \
        {0, 1, steps, *(int(k) for k in rng.integers(2, steps, 3))}
    _assert_states_within_oracle_tolerance(tr, nu, a, direction, nodes)


@pytest.mark.parametrize("nu, a, x_max, direction", [
    (2.7, 20000.0, 2.5, 1),
    (-0.4, 1e9, 0.001, -1),
    (3.9, 12.0, 1.0, -1),  # turns by up to 0.62 radians a degree: anchors 3 apart
])
def test_state_trace_sums_only_its_anchors(monkeypatch, nu, a, x_max, direction):
    # charlier_direct runs at node 0, at every span-th node and at the last
    # node, and nowhere else; the recurrence gives the rest
    degrees = []

    def recorded(n, a, nu):
        degrees.append(n)
        return charlier_direct(n, a, nu)

    monkeypatch.setattr(polygon, "charlier_direct", recorded)
    tr = charlier_state_trace(nu, a, x_max, direction)
    steps, top = len(tr.xs) - 1, math.ceil(a)
    theta = math.asin(math.sqrt(min(1.0, max(nu, 0.0) / a)))
    span = int(2.0 / max(theta, 2.0 / polygon._SPAN))
    nodes = sorted({*range(0, steps, span), max(steps, 1)})
    assert degrees == [top - direction * k for k in nodes]
    assert len(degrees) <= steps // span + 2


def _exact_node_values(nu, a, top, direction, last, anchors):
    # _node_values' boundary problems solved in rationals from the same
    # float anchors (degree -> value), by the textbook Thomas elimination
    # upward in degree, each pivot formed as (m + a - nu) - m h
    a_q, nu_q = Fraction(a), Fraction(nu)
    c = {(top - n) * direction: Fraction(v) for n, v in anchors.items()}
    ends = sorted(anchors)
    for lo, hi in zip(ends, ends[1:]):
        g, h = [c[(top - lo) * direction]], [Fraction(0)]
        for m in range(lo + 1, hi):
            den = m + a_q - nu_q - m * h[-1]
            g.append(m * g[-1] / den)
            h.append(a_q / den)
        value = c[(top - hi) * direction]
        for m in range(hi - 1, lo, -1):
            value = g[m - lo] + h[m - lo] * value
            c[(top - m) * direction] = value
    lo, up = (a_q, top) if direction == 1 else (top, a_q)
    c[-1] = ((top + a_q - nu_q) * c[0] - up * c[1]) / lo
    return [c[k] for k in range(-1, last + 1)]


def test_node_values_are_the_exact_solve_of_their_segments(monkeypatch):
    # every node of 12 seeded traces, x_max = 2.5 where the degrees allow,
    # both directions: nu within 1e-3 of 0, nu <= -5, nu > 0 at a small
    # enough that anchors are 2/theta apart, and any nu at a up to 1e5.
    # Each c is within 8 eps of the trace's largest |c| of the rational
    # solve; the float solve keeps nu's digits in s_m = d_m - a
    anchors = {}

    def recorded(n, a, nu):
        anchors[n] = charlier_direct(n, a, nu)
        return anchors[n]

    monkeypatch.setattr(polygon, "charlier_direct", recorded)
    rng, cases = np.random.default_rng(33), []
    for _ in range(3):
        small = rng.uniform(5.0, 200.0)
        cases += [(rng.uniform(-1e-3, 1e-3), 10.0 ** rng.uniform(1.0, 5.0)),
                  (rng.uniform(-8.0, -5.0), 10.0 ** rng.uniform(1.0, 5.0)),
                  (rng.uniform(0.05, 0.35) * small, small),
                  (rng.uniform(-3.0, 4.0), 10.0 ** rng.uniform(4.0, 5.0))]
    for i, (nu, a) in enumerate(cases):
        nu, a, direction = float(nu), float(a), (1, -1)[i // 4 % 2]
        top, last = math.ceil(a), int(2.5 * math.sqrt(2.0 * a))
        if direction == 1:
            last = min(last, top - 1)
        anchors.clear()
        got = polygon._node_values(nu, a, top, direction, last)
        want = _exact_node_values(nu, a, top, direction, last, anchors)
        bound = 8 * 2.0 ** -52 * max(map(abs, got))
        assert len(got) == last + 2
        for k, (g, w) in enumerate(zip(got, want), -1):
            assert abs(Fraction(g) - w) <= bound, (nu, a, direction, k)


def test_state_trace_refuses_a_zero_pivot(monkeypatch):
    # no input is known to reach one: for nu < a the first pivot a + m - nu
    # is above 0, and where nu >= a every node is an anchor.  Without the
    # 2/theta rule, the pivots from degree 0 at a = 3, nu = 2 are d_1 = 2
    # and d_2 = 3 + 2 (-1/2) - 2 = 0, exactly
    monkeypatch.setattr(polygon, "math", types.SimpleNamespace(asin=lambda x: 0.0,
                                                               sqrt=math.sqrt))
    with pytest.raises(DomainError, match="a zero pivot in the state trace at a=3.0, nu=2.0"):
        polygon._node_values(2.0, 3.0, 0, -1, 4)


def test_state_trace_end_nodes_are_charlier_direct():
    # node 0 and the last node carry charlier_direct's values, bit for bit,
    # on any input where the trace returns; every state is finite
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.floats(-8.0, 8.0), st.floats(1e-3, 1e5), st.floats(0.0, 3.0),
                      st.sampled_from((1, -1)))
    @hypothesis.example(1.5, 0.5, 0.0, -1)   # steps == 0 at top == 1
    @hypothesis.example(-7.5, 0.5, 3.0, -1)  # top == 1, degree 0 before node 0
    def check(nu, a, x_max, direction):
        try:
            tr = charlier_state_trace(nu, a, x_max, direction)
        except DomainError:
            return
        assert np.isfinite(tr.states).all()
        r, top, steps = math.sqrt(2.0 * a), math.ceil(a), len(tr.xs) - 1
        for k in (0, steps):
            want = charlier._scaled(r, nu, [charlier_direct(top - direction * k, a, nu)])[0]
            assert float(tr.states[k, 0]).hex() == want.hex(), (k, top)

    check()
