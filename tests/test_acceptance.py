"""Acceptance gate: the eight verification criteria, one test each.

Every test prints a single line

    criterion N: PASS (...) / criterion N: FAIL (...)

before asserting, so a full run reports the verdict for all criteria
(run with -s to see the lines for passing tests too).  The assertion
messages carry the measured figures.

Three criteria measure a quantity whose leading behaviour is known
beyond the O(1/sqrt(a)) bound, and they assert against it:

- criterion 1 fits the pointwise rate on ladders of a that hold the
  ceiling offset theta = n - (a - x*sqrt(2a)) fixed, because the leading
  error term (c0 + c1*theta)/sqrt(a) moves with theta;
- criterion 4 checks the gamma-ratio constant against its limit
  nu(nu+1)/2 and the next coefficient of the Tricomi-Erdelyi expansion,
  both of which depend on nu;
- criterion 7 asserts the target-1 zero exactly on integer a, where
  duality makes the Charlier zero coincide with the Hermite zero, and
  fits the rate on ladders of a with a fractional part.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from charlier_hermite import (
    DomainError,
    ScaledPoint,
    SplitConfig,
    admissible_sharpness_pairs,
    charlier_backward_step,
    charlier_direct,
    charlier_order_shift,
    euler_polygon,
    charlier_state_trace,
    factor_q,
    fit_rate,
    head_tail_split,
    hermite_derivative,
    hermite_fn,
    reciprocal_gamma,
    scaled_y,
    sharpness_check,
    trace_deviation,
    trapezoid_gamma_check,
    zero_convergence_table,
)

A_SWEEP = (1e2, 1e3, 1e4, 1e5)
THETAS = (0.25, 0.5, 0.75)


def _line(n: int, ok: bool, detail: str) -> str:
    msg = f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(msg)
    return msg


def _fixed_theta_ladder(x: float, theta: float, rungs=A_SWEEP) -> list:
    """One ScaledPoint near each rung (A_SWEEP by default), all with offset
    theta.

    With m the integer nearest a0 - x*sqrt(2*a0), r = x + sqrt(x^2 +
    2(m - theta)) and a = r^2/2, the offset a - x*sqrt(2a) is m - theta,
    so n = m and ScaledPoint.theta = theta.  theta = 0 is avoided: float
    rounding of a - x*sqrt(2a) could put the ceiling at m or m + 1.
    """
    ladder = []
    for a0 in rungs:
        m = round(a0 - x * math.sqrt(2.0 * a0))
        r = x + math.sqrt(x * x + 2.0 * (m - theta))
        ladder.append(ScaledPoint(x=x, a=0.5 * r * r))
    return ladder


def test_criterion_1_pointwise_rate():
    # The leading error term is (c0 + c1*theta)/sqrt(a).  On a ladder
    # where theta changes from rung to rung, sqrt(a)*err moves with it
    # and the fitted slope is an artefact (-0.34 at (0.5, 0.5) on
    # A_SWEEP itself), so each ladder holds theta fixed.
    pairs = ((-1.5, 0.0), (0.5, 0.5), (1.5, 0.7), (3.7, 1.0))
    slopes = {}
    for nu, x in pairs:
        h = hermite_fn(nu, x)
        for theta in THETAS:
            ladder = _fixed_theta_ladder(x, theta)
            off = max(abs(p.theta - theta) for p in ladder)
            assert off <= 1e-9, (nu, x, theta, off)
            pts = [(p.a, abs(scaled_y(p, nu) - h)) for p in ladder]
            slopes[nu, x, theta] = fit_rate(pts).slope
    bad = {k: s for k, s in slopes.items() if not -0.6 <= s <= -0.4}
    detail = "; ".join(
        f"({nu}, {x}) slopes "
        + "/".join(f"{slopes[nu, x, t]:.4f}" for t in THETAS)
        for nu, x in pairs)
    msg = _line(1, not bad, detail + " at theta "
                + "/".join(f"{t:g}" for t in THETAS) + "; band [-0.6, -0.4]")
    assert not bad, msg


def test_pointwise_rate_to_a_1e9():
    # The Charlier sum costs O(sqrt a), so criterion 1's fixed-theta
    # ladders reach a = 1e9.  Up there a - x*sqrt(2a) carries about 1e-7
    # of rounding, which bounds how exactly each rung holds theta.
    slopes = {}
    for nu, x in ((-1.5, 0.0), (0.5, 0.5), (1.5, 0.7)):
        h = hermite_fn(nu, x)
        for theta in THETAS:
            ladder = _fixed_theta_ladder(x, theta, (1e6, 1e7, 1e8, 1e9))
            assert max(abs(p.theta - theta) for p in ladder) <= 1e-6, (nu, x, theta)
            slopes[nu, x, theta] = fit_rate(
                [(p.a, abs(scaled_y(p, nu) - h)) for p in ladder]).slope
    bad = {k: s for k, s in slopes.items() if not -0.55 <= s <= -0.45}
    assert not bad, bad


def test_uniform_error_rate():
    # sup over an x grid removes the theta oscillation seen at fixed x
    xs = np.linspace(0.0, 1.0, 21)
    for nu in (-1.5, 0.5, 1.5, 3.7):
        pts = []
        for a in A_SWEEP:
            sup = max(abs(scaled_y(ScaledPoint(x=float(x), a=a), nu)
                          - hermite_fn(nu, float(x))) for x in xs)
            pts.append((a, sup))
        slope = fit_rate(pts).slope
        assert -0.6 <= slope <= -0.4, (nu, slope)


def test_criterion_2_sharpness_exact():
    results = [sharpness_check(x, a) for x, a in admissible_sharpness_pairs()]
    equal = sum(r.equal for r in results)
    ok = equal == len(results)
    msg = _line(2, ok, f"{equal}/{len(results)} admissible pairs exactly equal")
    assert ok, msg


def test_criterion_3_head_tail_rate():
    details = []
    ok = True
    for nu in (-4.0, -5.5):
        scale = 2.0 ** (nu / 2.0) * reciprocal_gamma(-nu)
        err_pts, tail_pts = [], []
        for a in A_SWEEP:
            rep = head_tail_split(SplitConfig(a, nu))
            err_pts.append((a, abs(rep.y0_reconstructed - rep.h_nu_0)))
            tail_pts.append((a, abs(scale * rep.r_tail)))
        s_err = fit_rate(err_pts).slope
        s_tail = fit_rate(tail_pts).slope
        ok = ok and -0.6 <= s_err <= -0.4 and s_tail <= -0.4
        details.append(f"nu={nu:g}: err slope {s_err:.4f}, "
                       f"tail slope {s_tail:.1f}")
    msg = _line(3, ok, "; ".join(details))
    assert ok, msg


def test_criterion_4_gamma_ratio_constant():
    # q(k) k^(nu+1) - 1 = c1/k + c2/k^2 + O(k^-3) for q(k) = Gamma(k - nu)/k!
    # (Tricomi-Erdelyi, DLMF 5.11.13 with beta = 1).  The constant
    # k |q(k) k^(nu+1) - 1| therefore tends to |c1| = |nu(nu+1)|/2, which
    # depends on nu (15 at nu = -6).  Per k, k(q k^(nu+1) - 1) - c1 must
    # lie within 10% of c2/k: the O(k^-3) term moves it by at most 2.7%
    # for k >= 100, and a relative error of 1e-4 in q at any k in range
    # moves it by more than 10% at nu = -3.
    details = []
    ok = True
    for nu in (-3.0, -4.5, -6.0):
        c1 = nu * (nu + 1.0) / 2.0
        c2 = (nu + 1.0) * (nu + 2.0) / 2.0 * nu * (3.0 * nu + 1.0) / 12.0
        worst = 0.0
        ratios = []
        for k in range(100, 10001):
            d = factor_q(k, nu) * k ** (nu + 1.0) - 1.0
            worst = max(worst, abs(d) * k)
            ratios.append((k * d - c1) * k / c2)
        ok = ok and all(abs(r - 1.0) <= 0.1 for r in ratios)
        details.append(f"nu={nu:g}: constant {worst:.4f} vs c1 {c1:g}, "
                       f"k(k d - c1)/c2 in [{min(ratios):.4f}, "
                       f"{max(ratios):.4f}] vs c2 {c2:g}")
    msg = _line(4, ok, "; ".join(details) + "; gate [0.9, 1.1]")
    assert ok, msg


def test_criterion_5_trapezoid_identity():
    dt = 1e-2  # 1/sqrt(A) for A = 1e4
    chk = trapezoid_gamma_check(-3.0, 1, 10**4, dt)
    half = trapezoid_gamma_check(-3.0, 1, 10**4, dt / 2.0)
    ratio = half.abs_err / chk.abs_err
    ok = chk.abs_err <= 5.0 * dt and ratio <= 0.5
    msg = _line(5, ok, f"abs err {chk.abs_err:.4e} vs gate {5.0 * dt:g}; "
                       f"halving ratio {ratio:.4f}")
    assert ok, msg


def test_criterion_6_polygon_agreement():
    slopes = {}
    for nu in (0.5, 2.0):
        pts = []
        for a in A_SWEEP:
            z = charlier_state_trace(nu, a, 1.0)
            u = euler_polygon(nu, z.states[0], 1.0, z.step)
            pts.append((a, trace_deviation(z, u)))
        slopes[nu] = fit_rate(pts).slope
    # Euler against the exact nu = 2 solution 4x^2 - 2 at the final node
    errs = []
    for dx in (0.02, 0.01, 0.005):
        u = euler_polygon(2.0, (-2.0, 0.0), 1.0, dx)
        errs.append(abs(u.states[-1, 0] - (4.0 * u.xs[-1] ** 2 - 2.0)))
    ratios = [errs[i + 1] / errs[i] for i in range(len(errs) - 1)]
    ok = (all(-0.65 <= s <= -0.35 for s in slopes.values())
          and all(r <= 0.5 for r in ratios))
    detail = ", ".join(f"nu={nu:g} slope {s:.4f}" for nu, s in slopes.items())
    msg = _line(6, ok, detail + "; halving ratios "
                + ", ".join(f"{r:.4f}" for r in ratios))
    assert ok, msg


def _zero_slope(target: float, a_values) -> float | None:
    """Fitted slope of the zero error at x = 0, or None if no fit.

    Also checks that the table took its degree n = floor(a) at each a.
    """
    rows = zero_convergence_table(0.0, target, a_values)
    assert [r.n for r in rows] == [math.floor(a) for a in a_values], rows
    try:
        return fit_rate([(r.a, r.abs_err) for r in rows]).slope
    except DomainError:
        return None


def test_criterion_7_zero_convergence():
    # zero_convergence_table takes the degree n = floor(a - x*sqrt(2a)),
    # which is floor(a) at x = 0.  On integer a the duality
    # c_n^a(m) = c_m^a(n) gives c_a^a(1) = 1 - a/a = 0, so the target-1
    # zero is located exactly: its error is 0, which meets the bound but
    # has no slope.  Target 3 is not degenerate there.  The ladders
    # a = m + f keep n = floor(a) = m and move the Charlier zero off
    # both targets.
    ms = (100.0, 400.0, 1600.0, 6400.0)
    exact = zero_convergence_table(0.0, 1.0, ms)
    exact_ok = all(r.error is None and r.abs_err <= 1e-12 for r in exact)
    notes = ["target 1 on integer a: errors ["
             + ", ".join(f"{r.abs_err:.1e}" for r in exact) + "] (gate 1e-12)"]
    slopes = {(3.0, 0.0): _zero_slope(3.0, ms)}
    for f in (0.25, 0.5, 0.75):
        for target in (1.0, 3.0):
            slopes[target, f] = _zero_slope(target, [m + f for m in ms])
    ok = exact_ok and all(s is not None and -0.65 <= s <= -0.35
                          for s in slopes.values())
    notes += [f"target {t:g}, a = m + {f:g}: "
              + ("no fit" if s is None else f"slope {s:.4f}")
              for (t, f), s in slopes.items()]
    msg = _line(7, ok, "; ".join(notes) + "; band [-0.65, -0.35]")
    assert ok, msg


def test_criterion_8_identity_suites():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 25))
        a = float(rng.uniform(0.5, 20.0))
        nu = float(rng.uniform(-8.0, 8.0))
        if abs(nu) < 0.1:
            nu += 0.2
        cm, c0, cp = (charlier_direct(m, a, nu) for m in (n - 1, n, n + 1))
        r_deg = a * cp - (n + a - nu) * c0 + n * cm
        s_deg = max(1.0, abs(a * cp), abs((n + a - nu) * c0), abs(n * cm))
        up = charlier_direct(n, a, nu + 1.0)
        dn = charlier_direct(n, a, nu - 1.0)
        r_ord = charlier_order_shift(n, a, nu, c0, dn) - up
        s_ord = max(1.0, abs(up), abs(c0), abs(dn))
        back = charlier_backward_step(n, a, nu, cm, c0)
        r_back = back - charlier_direct(n - 1, a, nu - 1.0)
        s_back = max(1.0, (a / abs(nu)) * (abs(cm) + abs(c0)))
        worst = max(worst, abs(r_deg) / s_deg, abs(r_ord) / s_ord,
                    abs(r_back) / s_back)
    recurrences_ok = worst <= 1e-10

    rng = np.random.default_rng(103)
    worst_h = 0.0
    for _ in range(300):
        nu = float(rng.uniform(-4.0, 4.0))
        x = float(rng.uniform(-2.0, 2.0))
        hm, h0, hp = (hermite_fn(nu + d, x) for d in (-1.0, 0.0, 1.0))
        r_rec = hp - 2.0 * x * h0 + 2.0 * nu * hm
        s_rec = max(1.0, abs(hp), abs(2.0 * x * h0), abs(2.0 * nu * hm))
        ypp = 2.0 * nu * hermite_derivative(nu - 1.0, x)
        r_ode = ypp - 2.0 * x * hermite_derivative(nu, x) + 2.0 * nu * h0
        s_ode = max(1.0, abs(ypp), abs(2.0 * nu * h0))
        worst_h = max(worst_h, abs(r_rec) / s_rec, abs(r_ode) / s_ode)
    hermite_ok = worst_h <= 1e-9

    duality_bad = 0
    for a in (1, 2, Fraction(7, 2)):
        for m in range(21):
            for n in range(21):
                lhs = charlier_direct(n, a, m, mode="rational")
                rhs = charlier_direct(m, a, n, mode="rational")
                duality_bad += lhs != rhs
    duality_ok = duality_bad == 0

    # integer order: parity and the classical polynomials up to degree 8
    coeffs = [[1], [0, 2]]
    for k in range(1, 8):
        prev, cur = coeffs[k - 1], coeffs[k]
        nxt = [0.0] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2.0 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2.0 * k * c
        coeffs.append(nxt)
    poly_ok = True
    for deg, cs in enumerate(coeffs):
        for x in (-1.7, -0.4, 0.0, 0.8, 2.3):
            ref = sum(c * x ** i for i, c in enumerate(cs))
            val = hermite_fn(float(deg), x)
            mirrored = (-1.0) ** deg * hermite_fn(float(deg), -x)
            scale = max(1.0, abs(ref))
            poly_ok = poly_ok and abs(val - ref) <= 1e-10 * scale
            poly_ok = poly_ok and abs(val - mirrored) <= 1e-10 * scale

    ok = recurrences_ok and hermite_ok and duality_ok and poly_ok
    msg = _line(8, ok, f"recurrence residual {worst:.2e} (gate 1e-10); "
                       f"hermite residual {worst_h:.2e} (gate 1e-9); "
                       f"duality mismatches {duality_bad}; "
                       f"integer-order match {'yes' if poly_ok else 'no'}")
    assert ok, msg
