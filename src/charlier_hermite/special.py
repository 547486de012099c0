"""Real-valued special functions used by the rest of the package.

Everything here is scalar and float-based: log-gamma with an explicit
sign, the reciprocal gamma function (total: exactly 0 at the poles),
the upper incomplete gamma function, Kummer's confluent hypergeometric
function M, and the rising factorial.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConvergenceError, DomainError, PoleError

SQRT_PI = math.sqrt(math.pi)

_MAX_ITER = 10_000


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


class LnGamma(NamedTuple):
    log: float  # ln|Gamma(x)|
    sign: int  # sign of Gamma(x), +1 or -1


def ln_gamma(x: float) -> LnGamma:
    """ln|Gamma(x)| with the sign of Gamma(x) carried separately.

    Raises PoleError at non-positive integers.  For negative non-integer
    x the sign alternates between consecutive integers: Gamma is
    negative on (-1, 0), positive on (-2, -1), and so on.
    """
    if not math.isfinite(x):
        raise DomainError(f"ln_gamma requires finite x, got {x!r}")
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at x = {x}")
    if x > 0:
        sign = 1
    else:
        sign = -1 if math.floor(x) % 2 else 1
    return LnGamma(math.lgamma(x), sign)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), extended by its limiting value 0 at the poles.

    This is the entire-function route around the poles: formulas that
    would divide by Gamma at a non-positive integer instead multiply by
    an exact 0 here.
    """
    if not math.isfinite(x):
        raise DomainError(f"reciprocal_gamma requires finite x, got {x!r}")
    if _is_nonpositive_integer(x):
        return 0.0
    if abs(x) <= 170.0:
        # one rounding instead of exp(lgamma)'s two; Gamma stays finite
        # on this range away from the poles
        return 1.0 / math.gamma(x)
    lg, sign = ln_gamma(x)
    # exp underflows to 0.0 for huge positive arguments of Gamma; that is
    # the correct limit for 1/Gamma.
    try:
        return sign * math.exp(-lg)
    except OverflowError:
        raise DomainError(f"1/Gamma({x!r}) is outside double range") from None


def pochhammer_rising(x: float, k: int):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), (x)_0 = 1.

    Computed as a plain product so it is exact for integer inputs and
    works unchanged for Fraction arguments.
    """
    if k < 0 or k != int(k):
        raise DomainError(f"pochhammer_rising requires integer k >= 0, got {k!r}")
    result = x ** 0  # 1 in the arithmetic of x (int, float or Fraction)
    for j in range(int(k)):
        result = result * (x + j)
    return result


def _upper_gamma_series(s: float, z: float) -> float:
    # Gamma(s, z) = Gamma(s) - lower(s, z); the lower series converges
    # fast for z < s + 1, where it carries at most ~70% of Gamma(s), so
    # the subtraction stays benign.
    term = 1.0 / s
    total = term
    ap = s
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            lower = total * math.exp(-z + s * math.log(z))
            return math.gamma(s) - lower
    raise ConvergenceError(
        f"incomplete gamma series did not converge for s={s}, z={z}"
    )


def _upper_gamma_cf(s: float, z: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction for
    # Gamma(s, z), stable for z >= s + 1.
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return math.exp(-z + s * math.log(z)) * h
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge for s={s}, z={z}"
    )


def upper_incomplete_gamma(s: float, z: float) -> float:
    """Upper incomplete gamma function Gamma(s, z) for s > 0, z >= 0.

    Series branch below z = s + 1, continued fraction at and above it;
    both run to machine tolerance with an iteration cap of 10,000.
    Gamma(s, 0) = Gamma(s).
    """
    if not (math.isfinite(s) and math.isfinite(z)):
        raise DomainError("upper_incomplete_gamma requires finite arguments")
    if s <= 0:
        raise DomainError(f"upper_incomplete_gamma requires s > 0, got s={s}")
    if z < 0:
        raise DomainError(f"upper_incomplete_gamma requires z >= 0, got z={z}")
    if z == 0.0:
        return math.gamma(s)
    if z < s + 1.0:
        return _upper_gamma_series(s, z)
    return _upper_gamma_cf(s, z)


def kummer_m(alpha: float, beta: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(alpha; beta; z).

    Direct power series with the term recurrence
    t_{k+1} = t_k * (alpha+k) z / ((beta+k)(k+1)), compensated
    accumulation, truncated once three consecutive terms fall below
    1e-16 relative to the running sum.  Terminates exactly (it is a
    polynomial) when alpha is a non-positive integer.  beta at a
    non-positive integer is a pole.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta) and math.isfinite(z)):
        raise DomainError("kummer_m requires finite arguments")
    if _is_nonpositive_integer(beta):
        raise PoleError(f"kummer_m pole at beta = {beta}")
    total = 1.0
    comp = 0.0  # Kahan carry
    term = 1.0
    small = 0
    for k in range(_MAX_ITER):
        term *= (alpha + k) * z / ((beta + k) * (k + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if term == 0.0:
            return total  # polynomial case: every later term is 0
        if abs(term) < 1e-16 * abs(total):
            small += 1
            if small == 3:
                return total
        else:
            small = 0
    raise ConvergenceError(
        f"kummer_m series did not converge for alpha={alpha}, beta={beta}, z={z}"
    )
