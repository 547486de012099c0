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

from .errors import _finite, _real
from .special import SQRT_PI, _kummer, _reciprocal_gamma


def hermite_fn(nu: float, x: float) -> float:
    """H_nu(x) for real order nu and real x; DomainError where it is outside
    double range."""
    nu, x = _real(nu, "nu"), _real(x, "x")
    # where x^2 is inf the series' terms would be inf and nan to the iteration cap
    x2 = _finite(x * x, "x^2 at x={!r}", x)
    value = _reciprocal_gamma((1.0 - nu) / 2.0) * _kummer(-nu / 2.0, 0.5, x2)
    if x:  # the odd half is +-0.0 at x = 0, even where its 1/Gamma overflows
        value -= 2.0 * x * _reciprocal_gamma(-nu / 2.0) * _kummer((1.0 - nu) / 2.0, 1.5, x2)
    elif not value and nu < 2.0 ** 53:
        # the even half is 0 at odd nu (a pole) or where it underflows, whatever
        # 2^nu is; from 2^53 on (1 - nu)/2 is rounded, and H_nu(0) is past double range
        return value
    # 2.0 ** nu raises OverflowError from nu = 1024 on, where inf stands for it;
    # a callable in its place costs this hot path about 0.3 us a call
    scale = _finite(2.0 ** nu if nu < 1024.0 else math.inf, "2^nu at nu={!r}", nu)
    # the product overflows, or the halves are inf - inf
    return _finite(scale * SQRT_PI * value, "H_nu(x) at nu={!r}, x={!r}", nu, x)


def hermite_derivative(nu: float, x: float) -> float:
    """H'_nu(x) = 2 nu H_{nu-1}(x); DomainError where it is outside double range."""
    nu = _real(nu, "nu")
    return _finite(2.0 * nu * hermite_fn(nu - 1.0, x), "H'_nu(x) at nu={!r}, x={!r}", nu, x)
