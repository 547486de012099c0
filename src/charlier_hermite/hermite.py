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

from .errors import DomainError
from .special import SQRT_PI, kummer_m, reciprocal_gamma


def _two_to(nu: float) -> float:
    """2^nu; DomainError where it overflows a double."""
    try:
        return 2.0 ** nu
    except OverflowError:
        raise DomainError(f"2^nu at nu={nu!r} is outside double range") from None


def hermite_fn(nu: float, x: float) -> float:
    """H_nu(x) for real order nu and real x."""
    nu = float(nu)
    x = float(x)
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise DomainError(f"hermite_fn requires finite arguments, got nu={nu!r}, x={x!r}")
    x2 = x * x
    even = reciprocal_gamma((1.0 - nu) / 2.0) * kummer_m(-nu / 2.0, 0.5, x2)
    odd = 2.0 * x * reciprocal_gamma(-nu / 2.0) * kummer_m((1.0 - nu) / 2.0, 1.5, x2)
    return _two_to(nu) * SQRT_PI * (even - odd)


def hermite_at_zero(nu: float) -> float:
    """H_nu(0) = 2^nu sqrt(pi) / Gamma((1-nu)/2); zero exactly at odd nu."""
    nu = float(nu)
    if not math.isfinite(nu):
        raise DomainError(f"hermite_at_zero requires finite nu, got {nu!r}")
    return _two_to(nu) * SQRT_PI * reciprocal_gamma((1.0 - nu) / 2.0)


def hermite_derivative(nu: float, x: float) -> float:
    """H'_nu(x) = 2 nu H_{nu-1}(x)."""
    return 2.0 * float(nu) * hermite_fn(float(nu) - 1.0, x)
