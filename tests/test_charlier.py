import math
from fractions import Fraction

import numpy as np
import pytest

from charlier_hermite import (
    DegenerateArgumentError,
    DomainError,
    RationalModeError,
    ScaledPoint,
    charlier_backward_step,
    charlier_degree_sequence,
    charlier_direct,
    charlier_order_shift,
    scaled_y,
)

# mpmath (50 digits) oracle for the float path, frozen to 17 digits
CHARLIER_ORACLE = [
    # (n, a, nu, c_n^a(nu))
    (137, 250.0, 0.37, 0.74633363024552423),
    (50, 60.0, -2.5, 35.047893449341387),
    (1000, 1000.0, 1.5, -0.0033942591092128357),
    (12, 3.5, 4.25, 8.3088483926147738),
]


def test_closed_forms():
    assert charlier_direct(0, 5.0, 3.3) == 1.0
    for n in (1, 2, 7, 40):
        assert charlier_direct(n, 2.5, 0.0) == 1.0
    # n=1 is the linear seed 1 - nu/a
    assert math.isclose(charlier_direct(1, 4.0, 1.3), 1.0 - 1.3 / 4.0, rel_tol=1e-15)
    assert charlier_direct(2, 2.0, 2.0) == -0.5


def test_float_path_against_oracle():
    for n, a, nu, want in CHARLIER_ORACLE:
        got = charlier_direct(n, a, nu)
        assert math.isclose(got, want, rel_tol=5e-13), (n, a, nu, got)


def test_rational_mode_is_exact():
    assert charlier_direct(2, 2, 2, mode="rational") == Fraction(-1, 2)
    # c_2^a(x) = 1 - (1+2a)x/a^2 + x^2/a^2
    a = Fraction(7, 2)
    x = Fraction(5, 3)
    want = 1 - (1 + 2 * a) * x / a ** 2 + x ** 2 / a ** 2
    assert charlier_direct(2, a, x, mode="rational") == want


def test_rational_mode_input_handling():
    # binary floats enter at their exact value; 2.5 and 0.5 are exact
    assert charlier_direct(1, 2.5, 0.5, mode="rational") == 1 - Fraction(1, 5)
    # decimal and p/q strings go through Fraction unchanged
    assert charlier_direct(1, "5/2", "0.5", mode="rational") == Fraction(4, 5)
    with pytest.raises(RationalModeError):
        charlier_direct(2, "not-a-number", 1, mode="rational")
    with pytest.raises(DomainError):
        charlier_direct(2, Fraction(-1, 2), 1, mode="rational")


def test_float_vs_rational_cross_validation():
    # compensated summation promises |float - exact| = O(eps) * sum|t_k|
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 31))
        a = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 8)))
        nu = Fraction(int(rng.integers(-30, 30)), int(rng.integers(1, 8)))
        exact = charlier_direct(n, a, nu, mode="rational")
        approx = charlier_direct(n, float(a), float(nu))
        term = Fraction(1)
        magnitude = Fraction(1)
        for k in range(n):
            term *= Fraction(n - k, k + 1) * (k - nu) / a
            magnitude += abs(term)
        assert abs(approx - float(exact)) <= 1e-13 * float(magnitude), (n, a, nu)


def test_degree_validation():
    with pytest.raises(DomainError):
        charlier_direct(-1, 2.0, 1.0)
    with pytest.raises(DomainError):
        charlier_direct(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        charlier_direct(2, -3.0, 1.0)


def test_degree_sequence_matches_direct():
    a, nu = 2.0, 2.0
    seq = charlier_degree_sequence(a, nu, 6)
    assert seq[0] == 1.0
    assert math.isclose(seq[1], 1.0 - nu / a, rel_tol=1e-15)
    assert math.isclose(seq[2], -0.5, rel_tol=1e-13)
    for n, value in enumerate(seq):
        assert math.isclose(value, charlier_direct(n, a, nu), rel_tol=1e-11, abs_tol=1e-13), n
    # nu = 0 collapses to all ones
    assert charlier_degree_sequence(3.7, 0.0, 5) == [1.0] * 6


def test_degree_recurrence_residual():
    # a c_{n+1} - (n + a) c_n + n c_{n-1} + nu c_n = 0
    rng = np.random.default_rng(23)
    for _ in range(500):
        n = int(rng.integers(1, 25))
        a = float(rng.uniform(0.5, 20.0))
        nu = float(rng.uniform(-8.0, 8.0))
        cm, c0, cp = (charlier_direct(m, a, nu) for m in (n - 1, n, n + 1))
        residual = a * cp - (n + a) * c0 + n * cm + nu * c0
        scale = max(1.0, abs(a * cp), abs((n + a) * c0), abs(n * cm))
        assert abs(residual) <= 1e-12 * scale, (n, a, nu)


def test_order_shift_matches_direct():
    # exact seed case: inputs at nu = 1 produce c(2)
    got = charlier_order_shift(2, 2.0, 1.0,
                               charlier_direct(2, 2.0, 1.0),
                               charlier_direct(2, 2.0, 0.0))
    assert math.isclose(got, -0.5, rel_tol=1e-13)
    # nu = 0: the nu/a coefficient vanishes
    assert charlier_order_shift(3, 5.0, 0.0, 1.0, charlier_direct(3, 5.0, -1.0)) == 1.0 - 3.0 / 5.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(0, 20))
        a = float(rng.uniform(0.5, 15.0))
        nu = float(rng.uniform(-6.0, 6.0))
        got = charlier_order_shift(n, a, nu,
                                   charlier_direct(n, a, nu),
                                   charlier_direct(n, a, nu - 1.0))
        want = charlier_direct(n, a, nu + 1.0)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-11), (n, a, nu)


def test_backward_step_matches_direct():
    # x = a, n = 1: c_0(x) - c_1(x) = x/a = 1, so the step returns c_0(x-1) = 1
    assert charlier_backward_step(1, 3.0, 3.0, 1.0, charlier_direct(1, 3.0, 3.0)) == 1.0
    got = charlier_backward_step(2, 2.0, 3.0,
                                 charlier_direct(1, 2.0, 3.0),
                                 charlier_direct(2, 2.0, 3.0))
    assert abs(got - charlier_direct(1, 2.0, 2.0)) < 1e-13
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 18))
        a = float(rng.uniform(0.5, 12.0))
        x = float(rng.uniform(0.3, 10.0))
        got = charlier_backward_step(n, a, x,
                                     charlier_direct(n - 1, a, x),
                                     charlier_direct(n, a, x))
        want = charlier_direct(n - 1, a, x - 1.0)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-11), (n, a, x)


def test_backward_step_degenerate_x():
    with pytest.raises(DegenerateArgumentError):
        charlier_backward_step(2, 2.0, 0.0, 1.0, 1.0)
    with pytest.raises(DegenerateArgumentError):
        charlier_backward_step(2, 2.0, 1e-320, 1.0, 1.0)


def test_scaled_point_ceiling_and_theta():
    p = ScaledPoint(x=0.5, a=2.0)
    assert (p.n, p.theta) == (1, 0.0)
    p = ScaledPoint(x=1.0, a=8.0)
    assert (p.n, p.theta) == (4, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(300):
        # keep a - x sqrt(2a) >= 0 so the derived degree is valid
        a = float(rng.uniform(6.0, 500.0))
        x = float(rng.uniform(-2.0, 2.0))
        p = ScaledPoint(x=x, a=a)
        s = a - x * math.sqrt(2.0 * a)
        assert p.n == math.ceil(s)
        assert 0.0 <= p.theta < 1.0
    with pytest.raises(DomainError):
        ScaledPoint(x=0.5, a=0.0)
    with pytest.raises(DomainError):
        ScaledPoint(x=10.0, a=1.0)  # degree would be negative


def test_scaled_y_float():
    assert scaled_y(ScaledPoint(x=0.3, a=7.0), 0.0) == 1.0
    # x=0.5, a=2 -> n=1, y = (2a)^1 c_1^2(2) = 4 (1 - 2/2) = 0
    assert scaled_y(ScaledPoint(x=0.5, a=2.0), 2.0) == 0.0
    # x=1, a=8 -> n=4, theta=0, y = 4 (1 - 4/8) = 2 = H_1(1)
    assert math.isclose(scaled_y(ScaledPoint(x=1.0, a=8.0), 1.0), 2.0, rel_tol=1e-13)


def test_float_results_outside_double_range_raise():
    # an inf - inf among the terms, terms that are all infinite, and a scale
    # (2a)^(nu/2) = 2000^200 past the float range
    with pytest.raises(DomainError, match="outside double range"):
        charlier_direct(200, 10.0, 500.5)
    with pytest.raises(DomainError, match="outside double range"):
        charlier_direct(400, 1.0, -300.5)
    with pytest.raises(DomainError, match="outside double range"):
        scaled_y(ScaledPoint(x=0.0, a=1000.0), 400.0)


def _full_sum(n, a, nu):
    """c_n^a(nu) from all n + 1 terms of one cumprod, as the float path
    summed before it stopped at a certified tail.  The exact zeros left by
    underflow are dropped; they cannot change fsum's exactly rounded sum."""
    k = np.arange(n, dtype=float)
    ratios = ((n - k) / (k + 1.0)) * ((k - nu) / a)
    terms = np.empty(n + 1)
    terms[0] = 1.0
    np.cumprod(ratios, out=terms[1:])
    return math.fsum(terms[terms != 0].tolist())


def test_truncated_sum_matches_full_sum():
    # n <= 64 covers the Python loop and the numpy path on both sides of
    # their threshold.  n > 1024 makes the sum run in blocks and stop at
    # the certified tail: every fifth nu there is an integer, and every
    # tenth a lies in [2e4, 2e5], where nu > 0 cancels most and a dropped
    # tail would first flip a last bit.
    rng = np.random.default_rng(160)
    cases = [(int(rng.integers(1, 65)), float(rng.uniform(0.5, 80.0)),
              float(rng.uniform(-9.0, 9.0))) for _ in range(400)]
    for i in range(2000):
        x = float(rng.uniform(-3.0, 3.0))
        nu = float(rng.integers(-9, 10)) if i % 5 == 0 else float(rng.uniform(-9.0, 9.0))
        a = float(10.0 ** (rng.uniform(4.3, 5.3) if i % 10 == 0 else rng.uniform(3.2, 4.3)))
        n = ScaledPoint(x, a).n
        assert n > 1024, (n, a, x)
        cases.append((n, a, nu))
    diffs = [(n, a, nu) for n, a, nu in cases if charlier_direct(n, a, nu) != _full_sum(n, a, nu)]
    assert not diffs, diffs[:5]


def test_float_work_is_bounded_before_allocation(arange_cap):
    # The full sums would need 8e12, 8e10 and 8e9 bytes per array; the
    # capped np.arange fails past 10^6 elements in one call.
    with pytest.raises(DomainError, match="outside double range"):
        charlier_direct(10 ** 12, 1.0, 0.5)
    with pytest.raises(DomainError, match="outside double range"):
        charlier_direct(10 ** 10, 1e9, 1.5)
    assert math.isfinite(charlier_direct(10 ** 9, 1e9, 1.5))


def test_scaled_y_rational():
    got = scaled_y(ScaledPoint(x=0.5, a=2.0), 2, mode="rational")
    assert got == 0 and isinstance(got, Fraction)
    # odd nu needs 2a to be a perfect square: 2a = 16 works
    assert scaled_y(ScaledPoint(x=1.0, a=8.0), 1, mode="rational") == 2
    # 2a = 4: negative odd order divides by the exact root
    got = scaled_y(ScaledPoint(x=0.0, a=2.0), -1, mode="rational")
    assert got == Fraction(charlier_direct(2, 2, -1, mode="rational"), 2)
    with pytest.raises(RationalModeError):
        scaled_y(ScaledPoint(x=0.0, a=3.0), 1, mode="rational")  # sqrt(6) irrational
    with pytest.raises(RationalModeError):
        scaled_y(ScaledPoint(x=0.0, a=2.0), Fraction(1, 2), mode="rational")
