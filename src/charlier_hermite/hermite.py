"""Hermite functions H_nu of real (possibly non-integer) order nu.

Kummer representation, valid for all real nu and x:

    H_nu(x) = 2^nu sqrt(pi) [ M(-nu/2; 1/2; x^2) / Gamma((1-nu)/2)
                              - 2x M((1-nu)/2; 3/2; x^2) / Gamma(-nu/2) ]

The gamma reciprocals go through reciprocal_gamma, which is exactly 0 at
the poles, so integer nu needs no special-casing: whichever term's gamma
poles simply drops out and H_n reduces to the classical polynomial.
"""

from __future__ import annotations

import math

from .errors import DomainError, _real
from .special import SQRT_PI, _kummer, _reciprocal_gamma


def _two_to(nu: float) -> float:
    """2^nu; DomainError where it overflows a double."""
    try:
        return 2.0 ** nu
    except OverflowError:
        raise DomainError(f"2^nu at nu={nu!r} is outside double range") from None


def hermite_fn(nu: float, x: float) -> float:
    """H_nu(x) for real order nu and real x; DomainError where it is outside
    double range."""
    nu, x = _real(nu, "nu"), _real(x, "x")
    x2 = x * x
    if x2 == math.inf:  # the series' terms would be inf and nan to the iteration cap
        raise DomainError(f"x^2 at x={x!r} is outside double range")
    even = _reciprocal_gamma((1.0 - nu) / 2.0) * _kummer(-nu / 2.0, 0.5, x2)
    odd = 2.0 * x * _reciprocal_gamma(-nu / 2.0) * _kummer((1.0 - nu) / 2.0, 1.5, x2)
    value = _two_to(nu) * SQRT_PI * (even - odd)
    if not math.isfinite(value):  # the product overflows, or even - odd is inf - inf
        raise DomainError(f"H_nu(x) at nu={nu!r}, x={x!r} is outside double range")
    return value


def hermite_at_zero(nu: float) -> float:
    """H_nu(0) = 2^nu sqrt(pi) / Gamma((1-nu)/2); zero exactly at odd nu."""
    nu = _real(nu, "nu")
    return _two_to(nu) * SQRT_PI * _reciprocal_gamma((1.0 - nu) / 2.0)


def hermite_derivative(nu: float, x: float) -> float:
    """H'_nu(x) = 2 nu H_{nu-1}(x); DomainError where it is outside double range."""
    nu = _real(nu, "nu")
    value = 2.0 * nu * hermite_fn(nu - 1.0, x)
    if not math.isfinite(value):
        raise DomainError(f"H'_nu(x) at nu={nu!r}, x={x!r} is outside double range")
    return value
