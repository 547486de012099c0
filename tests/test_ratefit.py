"""Tests for log-log rate fitting and the exact sharpness identity."""

import math
import random
from fractions import Fraction

import pytest

from charlier_hermite import (
    DomainError,
    admissible_sharpness_pairs,
    fit_rate,
    hermite_fn,
    scaled_y,
    sharpness_check,
)
from charlier_hermite.charlier import ScaledPoint


def test_fit_rate_recovers_exact_half_power():
    a_values = [10.0, 100.0, 1000.0, 10000.0]
    fit = fit_rate([(a, a ** -0.5) for a in a_values])
    assert math.isclose(fit.slope, -0.5, rel_tol=1e-12)
    assert math.isclose(fit.r_squared, 1.0, rel_tol=1e-12)


def test_fit_rate_recovers_slope_and_intercept():
    # err = 7 / a: slope -1, intercept ln 7
    a_values = [2.0, 5.0, 20.0, 80.0, 400.0]
    fit = fit_rate([(a, 7.0 / a) for a in a_values])
    assert math.isclose(fit.slope, -1.0, rel_tol=1e-12)
    assert math.isclose(fit.intercept, math.log(7.0), rel_tol=1e-12)
    assert len(fit.points) == 5


def test_fit_rate_input_validation():
    with pytest.raises(DomainError):
        fit_rate([(10.0, 0.1), (100.0, 0.03)])
    with pytest.raises(DomainError):
        fit_rate([(10.0, 0.1), (10.0, 0.05), (100.0, 0.03)])
    with pytest.raises(DomainError):
        fit_rate([(-10.0, 0.1), (50.0, 0.05), (100.0, 0.03)])
    with pytest.raises(DomainError):
        fit_rate([(10.0, 0.0), (50.0, 0.05), (100.0, 0.03)])


def test_fit_rate_rejects_non_finite_points_and_equal_logs():
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="finite"):
            fit_rate([(10.0, 0.1), (bad, 0.05), (100.0, 0.03)])
        with pytest.raises(DomainError, match="finite"):
            fit_rate([(10.0, 0.1), (50.0, bad), (100.0, 0.03)])
    # distinct a whose float logs are all equal: no line to fit
    a = 1e10
    pts = [(a, 0.1), (math.nextafter(a, 0.0), 0.2), (math.nextafter(a, math.inf), 0.3)]
    assert len({math.log(p[0]) for p in pts}) == 1
    with pytest.raises(DomainError, match="distinct ln a"):
        fit_rate(pts)


def _fraction_fit(points):
    """The least-squares line of the same float logs in Fraction
    arithmetic: slope, intercept and r^2, each rounded once to a double."""
    xs = [Fraction(math.log(a)) for a, _ in points]
    ys = [Fraction(math.log(e)) for _, e in points]
    m, sx, sy = len(xs), sum(xs), sum(ys)
    sxx = m * sum(x * x for x in xs) - sx * sx
    sxy = m * sum(x * y for x, y in zip(xs, ys)) - sx * sy
    syy = m * sum(y * y for y in ys) - sy * sy
    slope = sxy / sxx
    r_squared = 1 if syy == 0 else sxy * sxy / (sxx * syy)
    return float(slope), float((sy - slope * sx) / m), float(r_squared)


def test_fit_rate_is_the_correctly_rounded_exact_fit():
    # seeded: 3 to 21 points, a in [1, 1e10]; a third of the cases have
    # constant errors, a third follow an exact power law
    rng = random.Random(1988)
    kinds = set()
    for i in range(300):
        m = rng.randint(3, 21)
        a_values = {1.0} if i % 7 == 0 else set()
        while len(a_values) < m:
            a_values.add(10.0 ** rng.uniform(0.0, 10.0))
        kind = ("constant", "power", "random")[i % 3]
        if kind == "constant":
            e = 10.0 ** rng.uniform(-300.0, 0.0)
            pts = [(a, e) for a in a_values]
        elif kind == "power":
            p, c = rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(-8.0, 2.0)
            pts = [(a, c * a ** p) for a in a_values]
        else:
            pts = [(a, 10.0 ** rng.uniform(-300.0, 0.0)) for a in a_values]
        fit = fit_rate(pts)
        got = (fit.slope, fit.intercept, fit.r_squared)
        assert [v.hex() for v in got] == [v.hex() for v in _fraction_fit(pts)], pts
        if kind == "constant":
            assert (fit.slope, fit.r_squared) == (0.0, 1.0)
            assert math.copysign(1.0, fit.slope) == 1.0
        elif kind == "power":
            assert math.isclose(fit.slope, p, rel_tol=1e-9, abs_tol=1e-12)
            assert math.isclose(fit.r_squared, 1.0, rel_tol=1e-12)
        kinds.add(kind)
    assert kinds == {"constant", "power", "random"}


def test_fit_rate_on_theorem_sweep():
    # pointwise error at fixed x decays like 1/sqrt(a)
    nu, x = 1.5, 0.7
    target = hermite_fn(nu, x)
    pts = []
    for a in (1e2, 1e3, 1e4, 1e5):
        err = abs(scaled_y(ScaledPoint(x=x, a=a), nu) - target)
        pts.append((a, err))
    fit = fit_rate(pts)
    assert -0.6 <= fit.slope <= -0.4


def test_sharpness_identity_single_pairs():
    res = sharpness_check(Fraction(1, 2), 2)
    assert res.n == 1
    assert res.lhs == res.rhs == 1
    assert res.equal

    res = sharpness_check(0, 8)
    assert res.n == 8
    assert res.lhs == res.rhs == 0

    res = sharpness_check(1, 8)
    assert res.n == 4
    assert res.lhs == res.rhs == 1


def test_sharpness_identity_all_admissible_pairs():
    pairs = admissible_sharpness_pairs()
    # r in {2,4,6,8}: a = 2, 8, 18, 32 -> 3 + 9 + 19 + 33 pairs
    assert len(pairs) == 64
    for x, a in pairs:
        res = sharpness_check(x, a)
        assert res.equal, (x, a)
        r = Fraction(math.isqrt(int(2 * a)))
        assert r * r == 2 * a
        assert res.n == a - x * r


def test_sharpness_rejects_inadmissible_inputs():
    with pytest.raises(DomainError, match=r"^sqrt\(2a\) is irrational for a=3$"):
        sharpness_check(0, 3)  # sqrt(6) irrational
    with pytest.raises(DomainError):
        sharpness_check(Fraction(1, 3), 2)  # n = 2 - 2/3 not an integer
    with pytest.raises(DomainError):
        sharpness_check(3, 2)  # n = 2 - 6 negative
    with pytest.raises(DomainError):
        sharpness_check(0, -2)


def test_admissible_pairs_validation():
    with pytest.raises(DomainError):
        admissible_sharpness_pairs(r_values=(3,))
    with pytest.raises(DomainError):
        admissible_sharpness_pairs(r_values=(-2,))
