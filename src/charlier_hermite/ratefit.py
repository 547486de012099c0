"""Log-log rate fitting and the exact sharpness identity.

fit_rate puts a least-squares line through (ln a, ln err); a slope near
-1/2 is the empirical signature of O(1/sqrt(a)) convergence.  Slope,
intercept and r^2 are each the correctly rounded value of the exact fit
of the float logs.

sharpness_check verifies, in exact rational arithmetic, that for nu = 2
and admissible (x, a), meaning a = r^2/2 with r even and x r a
non-negative integer at most a, the deviation is exactly

    (2a) c_n^a(2) - (4x^2 - 2) = 4x / sqrt(2a),   n = a - x sqrt(2a).
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence

from .errors import DomainError, _integer, _rational, _real

# admissible_sharpness_pairs' largest r, whose 32,769 pairs are its last
_MAX_R = 256


RateFit = namedtuple("RateFit", "slope intercept r_squared points")  # points: ((a, err), ...)


def fit_rate(points: Sequence[tuple[float, float]]) -> RateFit:
    """Least-squares line through (ln a, ln err).

    Needs at least 3 points, all finite, all a distinct and positive,
    all err > 0.
    """
    pts = tuple((_real(a, "a", 0, strict=True), _real(e, "err", 0, strict=True))
                for a, e in points)
    if len(pts) < 3:
        raise DomainError(f"fit_rate needs >= 3 points, got {len(pts)}")
    a_vals = [p[0] for p in pts]
    if len(set(a_vals)) != len(a_vals):
        raise DomainError("fit_rate needs distinct a values")
    values = [value for point in pts for value in point]
    # The least-squares line of the float logs, exactly: each log is an
    # integer over k, the largest of their power-of-two denominators, so
    # every sum below is an exact integer, and int / int rounds correctly.
    ratios = [math.log(value).as_integer_ratio() for value in values]
    k = max(d for _, d in ratios)
    u = [num * (k // d) for num, d in ratios[0::2]]
    v = [num * (k // d) for num, d in ratios[1::2]]
    m, su, sv = len(pts), sum(u), sum(v)
    suu, suv = sum(x * x for x in u), sum(x * y for x, y in zip(u, v))
    sxx, sxy = m * suu - su * su, m * suv - su * sv
    syy = m * sum(y * y for y in v) - sv * sv
    if sxx == 0:
        raise DomainError("fit_rate needs distinct ln a values")
    slope = sxy / sxx
    intercept = (sv * suu - su * suv) / (k * sxx)
    r_squared = 1.0 if syy == 0 else sxy * sxy / (sxx * syy)
    return RateFit(slope, intercept, r_squared, pts)


SharpnessResult = namedtuple("SharpnessResult", "n lhs rhs equal")  # lhs, rhs: Fractions


def sharpness_check(x, a) -> SharpnessResult:
    """Exact evaluation of the nu = 2 deviation identity.

    Inputs are taken as exact rationals (int, float, Fraction or decimal
    string, not a bool); pairs where sqrt(2a) is irrational or n = a - x sqrt(2a)
    is not a non-negative integer are rejected.
    """
    from .charlier import _exact_sqrt, charlier_direct  # here, as only this function sums a series
    x_r, a_r = _rational(x, "x"), _rational(a, "a", positive=True)
    two_a = 2 * a_r
    r = _exact_sqrt(two_a)
    if r is None:
        raise DomainError(f"sqrt(2a) is irrational for a={a!r}")
    n_exact = a_r - x_r * r
    if n_exact.denominator != 1 or n_exact < 0:
        raise DomainError(f"n = a - x*sqrt(2a) = {n_exact} is not a non-negative integer")
    n = int(n_exact)
    c = charlier_direct(n, a_r, 2, mode="rational")
    lhs = two_a * c - (4 * x_r * x_r - 2)
    rhs = 4 * x_r / r
    return SharpnessResult(n, lhs, rhs, lhs == rhs)


def admissible_sharpness_pairs(r_values=(2, 4, 6, 8)) -> list:
    """All (x, a) admissible for sharpness_check: a = r^2/2 for each even
    r from 2 to 256, x = j/r for every integer 0 <= j <= a."""
    import fractions  # here, as only the rational paths need it
    pairs = []
    for r in r_values:
        r = _integer(r, "r", 2, _MAX_R, 2)
        a = fractions.Fraction(r * r, 2)
        for j in range(int(a) + 1):
            pairs.append((fractions.Fraction(j, r), a))
    return pairs
