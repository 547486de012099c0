"""Real-valued special functions used by the rest of the package.

Everything here is scalar and float-based: log-gamma with an explicit
sign, the reciprocal gamma function (total: exactly 0 at the poles),
the upper incomplete gamma function, Kummer's confluent hypergeometric
function M, and the rising factorial.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import partial

from .errors import ConvergenceError, DomainError, _finite, _integer, _real

SQRT_PI = math.sqrt(math.pi)

_MAX_ITER = 10_000
# pochhammer_rising multiplies at most this many factors
_MAX_FACTORS = 1_000_000
# kummer_m's term denominators d_k = (beta + k)(k + 1), k < 1024, for the
# two betas of hermite_fn, each the double the series would compute.  At
# |alpha| <= 12 a series that converges takes at most 822 terms (z = 600);
# from z = 650 on its terms overflow.  Past the table the series computes
# d_k as it goes.
_TABLE_TERMS = 1024
_DENOMINATORS = {beta: tuple([(beta + k) * (k + 1.0) for k in range(_TABLE_TERMS)])
                 for beta in (0.5, 1.5)}


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


LnGamma = namedtuple("LnGamma", "log sign")  # ln|Gamma(x)|, and the sign of Gamma(x), +1 or -1


def ln_gamma(x: float) -> LnGamma:
    """ln|Gamma(x)| with the sign of Gamma(x) carried separately.

    Raises DomainError at non-positive integers.  For negative non-integer
    x the sign alternates between consecutive integers: Gamma is
    negative on (-1, 0), positive on (-2, -1), and so on.
    """
    x = _real(x, "x")
    if _is_nonpositive_integer(x):
        raise DomainError(f"gamma pole at x = {x}")
    if x > 0:
        sign = 1
    else:
        sign = -1 if math.floor(x) % 2 else 1
    # math.lgamma overflows from x = 2.56e305 on
    return LnGamma(_finite(partial(math.lgamma, x), "ln Gamma({!r})", x), sign)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), extended by its limiting value 0 at the poles.

    This is the entire-function route around the poles: formulas that
    would divide by Gamma at a non-positive integer instead multiply by
    an exact 0 here.
    """
    return _reciprocal_gamma(_real(x, "x"))


def _reciprocal_gamma(x: float) -> float:
    # reciprocal_gamma at a finite float x
    if _is_nonpositive_integer(x):
        return 0.0
    if abs(x) <= 170.0:
        # one rounding instead of exp(lgamma)'s two; Gamma stays finite on
        # this range away from the poles, except below |x| = 2^-1024, where
        # Gamma(x) ~ 1/x overflows and 1/Gamma(x) = x (1 + 0.577 x) rounds to x
        try:
            return 1.0 / math.gamma(x)
        except OverflowError:
            return x
    if x > 1e305:  # ln Gamma(x) overflows from 2.56e305; 1/Gamma(x) is 0.0 from 178.5
        return 0.0
    lg, sign = ln_gamma(x)
    # exp underflows to 0.0 for huge positive arguments of Gamma; that is
    # the correct limit for 1/Gamma.
    return sign * _finite(partial(math.exp, -lg), "1/Gamma({!r})", x)


def pochhammer_rising(x: float, k: int):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1), (x)_0 = 1.

    Computed as a plain product so it is exact for integer inputs and
    works unchanged for Fraction arguments.  DomainError where k exceeds
    _MAX_FACTORS or a float product is not finite.
    """
    _real(x, "x")  # only checked: an int or a Fraction x stays exact
    result = x ** 0  # 1 in the arithmetic of x (int, float or Fraction)
    for j in range(_integer(k, "k", 0, _MAX_FACTORS)):
        result = result * (x + j)
    return _finite(result, "({!r})_{}", x, k) if isinstance(result, float) else result


def _upper_gamma_series(s: float, z: float) -> float:
    # Gamma(s, z) = Gamma(s) - lower(s, z); the lower series converges
    # fast for z < s + 1, where it carries at most ~70% of Gamma(s), so
    # the subtraction stays benign.  Gamma(s) first, so that where it
    # overflows the loop does not run to its cap.
    gamma = math.gamma(s)
    term = 1.0 / s
    total = term
    ap = s
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= z / ap
        total += term
        if abs(term) < abs(total) * 1e-16:
            lower = total * math.exp(-z + s * math.log(z))
            return gamma - lower
    raise ConvergenceError(
        f"incomplete gamma series did not converge for s={s}, z={z}"
    )


def _upper_gamma_cf(s: float, z: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction for
    # Gamma(s, z), stable for z >= s + 1.
    # The prefactor z^s e^-z first, its logarithm capped at 710 so that
    # math.exp raises where it is +inf too: where it overflows, the loop
    # could divide by z + 1 - s = 0, as z + 1 rounds to s.
    prefactor = math.exp(min(-z + s * math.log(z), 710.0))
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
            return prefactor * h
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge for s={s}, z={z}"
    )


def upper_incomplete_gamma(s: float, z: float) -> float:
    """Upper incomplete gamma function Gamma(s, z) for s > 0, z >= 0.

    Series branch below z = s + 1, continued fraction at and above it;
    both run to machine tolerance with an iteration cap of 10,000.
    Gamma(s, 0) = Gamma(s).  DomainError where Gamma(s) or the prefactor
    z^s e^-z is outside double range.
    """
    s, z = _real(s, "s", 0, strict=True), _real(z, "z", 0)
    branch = _upper_gamma_series if z < s + 1.0 else _upper_gamma_cf
    # Gamma(s), or the prefactor z^s e^-z, can overflow
    return _finite(partial(math.gamma, s) if z == 0.0 else partial(branch, s, z),
                   "Gamma({!r}, {!r})", s, z)


def kummer_m(alpha: float, beta: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(alpha; beta; z).

    Direct power series with the term recurrence
    t_{k+1} = t_k * (alpha+k) z / ((beta+k)(k+1)), compensated
    accumulation, truncated once three consecutive terms fall below
    1e-16 relative to the running sum.  Terminates exactly (it is a
    polynomial) when alpha is a non-positive integer.  beta at a
    non-positive integer is a pole.  ConvergenceError after 10,000 terms,
    DomainError where the sum is not finite.

    The index k runs as a float, and for beta = 0.5 and 1.5 (hermite_fn's)
    the denominators (beta+k)(k+1), k < 1024, come from a table; each is
    the double the recurrence computes, so the result is too.
    """
    alpha, beta, z = _real(alpha, "alpha"), _real(beta, "beta"), _real(z, "z")
    if _is_nonpositive_integer(beta):
        raise DomainError(f"kummer_m pole at beta = {beta}")
    return _kummer(alpha, beta, z)


def _kummer(alpha: float, beta: float, z: float) -> float:
    # kummer_m at finite floats, beta not a pole
    total = 1.0
    comp = 0.0  # Kahan carry
    term = 1.0
    small = 0
    k = 0.0  # the index as a float: alpha + k rounds as alpha + int(k) does
    denominators = _DENOMINATORS.get(beta, ())
    # terms that overflow can still meet the exits, with a sum of inf or nan
    what = "kummer_m at alpha={}, beta={}, z={}"
    while k < _MAX_ITER:
        for d in denominators:
            term *= (alpha + k) * z / d
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if term == 0.0:  # polynomial case: every later term is 0
                return _finite(total, what, alpha, beta, z)
            if abs(term) < 1e-16 * abs(total):
                small += 1
                if small == 3:
                    return _finite(total, what, alpha, beta, z)
            else:
                small = 0
            k += 1.0
        # past the table, or for a beta without one
        denominators = ((beta + j) * (j + 1.0) for j in range(int(k), _MAX_ITER))
    raise ConvergenceError(
        f"kummer_m series did not converge for alpha={alpha}, beta={beta}, z={z}"
    )
