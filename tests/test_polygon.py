import math

import numpy as np
import pytest

from charlier_hermite import (
    DomainError,
    apriori_deviation_bound,
    charlier_state_trace,
    euler_polygon,
    fit_rate,
    hermite_at_zero,
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
    # cap must reject them before an array or a Charlier sum is made
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the node count was checked")

    monkeypatch.setattr(np, "empty", no_work)
    monkeypatch.setattr(polygon, "_charlier_values", no_work)
    for x_max, dx in ((1.0, 1e-9), (1e308, 1e-300)):
        with pytest.raises(DomainError, match="1000000 nodes"):
            euler_polygon(1.0, (0.0, 2.0), x_max, dx)
    with pytest.raises(DomainError, match="1000000 nodes"):
        charlier_state_trace(1.0, 1e12, 1.0)
    # 10^6 nodes are still allowed, one more is not
    assert polygon._node_count(999_999.0, 1.0) == 999_999
    with pytest.raises(DomainError, match="1000000 nodes"):
        polygon._node_count(1_000_000.0, 1.0)


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
    want = 2.0 * nu * hermite_at_zero(nu - 1.0)
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


def _assert_states_are_per_degree_values(tr, nu, a, direction, nodes=None):
    # z_k = (r^nu c_m, r^{nu+1} (c_m - c_{m+direction})) with m = ceil(a) -
    # direction k, each c_m a charlier_direct call, rounded as a node-by-node
    # evaluation rounds them
    r = math.sqrt(2.0 * a)
    scale = r ** nu
    top = math.ceil(a)
    for k in range(len(tr.xs)) if nodes is None else nodes:
        m = top - direction * k
        c, c_prev = charlier_direct(m, a, nu), charlier_direct(m + direction, a, nu)
        assert tr.states[k, 0] == scale * c, (k, m)
        assert tr.states[k, 1] == direction * scale * r * (c - c_prev), (k, m)


@pytest.mark.parametrize("nu, a, x_max, direction", [
    (0.7, 0.5, 2.0, -1),        # reaches degree 0
    (-2.3, 3000.0, 1.0, 1),
    (-2.3, 3000.0, 1.0, -1),
    (2.7, 20000.0, 1.0, 1),     # chunks of 32 degrees
    (2.7, 20000.0, 1.0, -1),
    (1.5, 70050.5, 0.3, 1),     # block sizes 1057 and 1058
    (-0.4, 70050.5, 0.3, -1),
])
def test_state_trace_is_the_per_degree_formula(nu, a, x_max, direction):
    tr = charlier_state_trace(nu, a, x_max, direction)
    x = 0.0
    for k in range(len(tr.xs)):
        assert tr.xs[k] == x
        x += direction * tr.step
    _assert_states_are_per_degree_values(tr, nu, a, direction)


def test_state_trace_blocks_stay_within_the_element_budget(monkeypatch):
    # 45 nodes at a = 1e9 need 46 degrees with blocks of 126,491 terms: in
    # one block they would hold 5.8e6 elements, so each degree gets its own
    shapes = []
    term_block = charlier._term_block

    def recorded(*args):
        t = term_block(*args)
        shapes.append(t.shape)
        return t

    # and the TwoSum tree's input and its scratch: one array of the size of
    # the chunk's first block, never padded (a block of 1057 terms padded
    # to 2048 would hold 22 degrees * 2048 = 45,056 elements)
    trees = []
    tree_sums = charlier._tree_sums

    def tree_recorded(t, start, scratch):
        trees.append((t.shape, scratch.shape))
        return tree_sums(t, start, scratch)

    monkeypatch.setattr(charlier, "_term_block", recorded)
    monkeypatch.setattr(charlier, "_tree_sums", tree_recorded)
    tr = charlier_state_trace(0.7, 1e9, 0.001)
    assert len(tr.xs) == 45 and shapes
    assert all(r == 1 for r, _ in shapes), set(shapes)
    assert not trees  # one degree a chunk: fsum sums it
    _assert_states_are_per_degree_values(tr, 0.7, 1e9, 1, nodes=(0, 22, 44))
    # at a = 2e4 and a = 70050.5 (blocks of 1057 and 1058 terms) the
    # degrees share blocks, none above the budget
    for nu, a, x_max, widths in ((2.7, 20000.0, 1.0, {1024}), (1.5, 70050.5, 0.3, {1057, 1058})):
        shapes.clear()
        trees.clear()
        tr = charlier_state_trace(nu, a, x_max)
        rows = [s for s in shapes if s[0] > 1]
        assert rows and max(r * w for r, w in rows) <= charlier._BLOCK_ELEMENTS
        assert {w for (_, w), _ in trees} == widths
        assert all(r * w <= s <= charlier._BLOCK_ELEMENTS for (r, w), (s,) in trees), set(trees)
    assert (22, 1057) in {t for t, _ in trees}
    _assert_states_are_per_degree_values(tr, 1.5, 70050.5, 1)


def test_state_trace_range_takes_the_certified_fast_path(recorded):
    # Over the `trace` benchmark's range (nu in [-2, 3], a from 1e3 to 2e4,
    # both directions), every row of a chunk summed by the TwoSum tree is
    # certified: no chunk is left to fsum and no row falls back to it.  A
    # certificate that always failed would pass every bit-identity test.
    chunks = recorded(charlier, "_cancels_too_far")
    rows = recorded(charlier, "_certified_sum")
    rng = np.random.default_rng(34)
    for i in range(17):
        a = 10.0 ** (3.0 + 1.3 * i / 16)
        for direction in (1, -1):
            charlier_state_trace(float(rng.uniform(-2.0, 3.0)), a, 1.0, direction)
    assert chunks and not any(chunks) and None not in rows
    assert len(rows) > 2500
