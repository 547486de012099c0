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
    system_matrix,
    system_matrix_norm_bound,
    trace_deviation,
)


def test_system_matrix_entries():
    assert np.array_equal(system_matrix(0.0, 0.0), [[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(system_matrix(1.0, 2.0), [[0.0, 1.0], [-4.0, 2.0]])


def test_norm_bound_dominates_singular_value():
    rng = np.random.default_rng(41)
    for _ in range(200):
        nu = float(rng.uniform(-5.0, 5.0))
        x = float(rng.uniform(-3.0, 3.0))
        sigma = np.linalg.svd(system_matrix(x, nu), compute_uv=False)[0]
        assert sigma <= system_matrix_norm_bound(x, nu) * (1.0 + 1e-12), (nu, x)


def test_euler_single_step():
    u0 = np.array([0.7, -1.2])
    dx = 0.01
    tr = euler_polygon(1.3, u0, 0.015, dx)  # two nodes
    want = u0 + dx * system_matrix(0.0, 1.3) @ u0
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
