"""Charlier polynomials c_n^a at real (not just integer) arguments.

The defining series is

    c_n^a(nu) = sum_{k=0}^{n} C(n,k) (-nu)_k a^{-k}

with (-nu)_k the rising factorial.  Writing the ratio of consecutive
terms as ((n-k)/(k+1)) * ((k-nu)/a) avoids both binomials and gamma
quotients, so real nu costs nothing extra and there is no pole to dodge.

The scaled value

    y_nu^a(x) = (2a)^{nu/2} c_n^a(nu),   n = ceil(a - x*sqrt(2a))

is the quantity that approaches the Hermite function H_nu(x) as a grows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .errors import DegenerateArgumentError, DomainError, RationalModeError

Rational = Union[int, Fraction]
Number = Union[int, float, Fraction]

# The float sum drops a tail certified below 2^-160 of its largest term;
# at 2^-110 the last bit of a cancelling sum was seen to flip.
_TAIL_FRACTION = 2.0 ** -160
# No float sum builds more terms than this; every a <= 1e10 measured
# needs at most 2.3e6.
_MAX_TERMS = 10_000_000


def _check_degree(n: int, name: str = "n") -> int:
    if isinstance(n, bool) or n != int(n) or n < 0:
        raise DomainError(f"{name} must be an integer >= 0, got {n!r}")
    return int(n)


def _to_fraction(v: Number, name: str) -> Fraction:
    # Floats are taken at their exact binary value; decimal strings and
    # Fractions pass through exactly.
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise RationalModeError(f"{name}={v!r} is not an exact rational") from exc


def charlier_direct(n: int, a: Number, nu: Number, mode: str = "float"):
    """Evaluate c_n^a(nu) by direct summation of the defining series.

    mode="float": terms generated by the overflow-safe ratio recurrence
    and accumulated with exactly rounded (compensated) summation.  The
    sum stops once the terms left are certified to total at most 2^-160
    of the largest term, so the work is O(sqrt(min(a, n))) past the peak
    term rather than O(n).
    mode="rational": the same recurrence in Fraction arithmetic; exact.
    """
    n = _check_degree(n)
    if mode == "rational":
        a_r = _to_fraction(a, "a")
        nu_r = _to_fraction(nu, "nu")
        if a_r <= 0:
            raise DomainError(f"a must be positive, got {a!r}")
        total = Fraction(1)
        term = Fraction(1)
        for k in range(n):
            term *= Fraction(n - k, k + 1) * (k - nu_r) / a_r
            if term == 0:
                break
            total += term
        return total
    if mode != "float":
        raise DomainError(f"unknown mode {mode!r}")
    a_f = float(a)
    nu_f = float(nu)
    if not (math.isfinite(a_f) and math.isfinite(nu_f)) or a_f <= 0:
        raise DomainError(f"need finite nu and finite a > 0, got a={a!r}, nu={nu!r}")
    values = _float_terms(n, a_f, nu_f)
    try:
        total = math.fsum(values)
    except (ValueError, OverflowError):  # infinite terms, or an inf - inf
        total = math.inf
    if not math.isfinite(total):
        raise DomainError(f"c_n^a(nu) at n={n}, a={a!r}, nu={nu!r} is outside double range")
    return total


def _float_terms(n: int, a: float, nu: float) -> list:
    """The terms t_0, t_1, ... of c_n^a(nu) with t_{k+1} = t_k r_k, each
    rounded as one cumprod over all n ratios r_k would round it.  They stop
    before t_n only where the rest is certified negligible or a term is
    no longer finite.

    Up to about 50 terms a Python loop beats numpy's cost per call; it
    rounds as numpy does, and float arithmetic overflows to inf silently.
    Beyond that the terms are built in blocks, a block's first ratio
    multiplied by the last term before its cumprod.  For j >= k > max(nu, 0)
    every later ratio is at most rho = ((n-k)/a) max(1, (k-nu)/(k+1)) in
    size, so once rho < 1 the terms past k sum to at most
    |t_k| rho/(1-rho).  The terms stop after the first block where that
    bound is at most _TAIL_FRACTION of the largest term, or whose last
    term is not finite.  Past the peak, the terms above that fraction span
    about 16 sqrt(min(a, n)) indices; a block is a quarter of that.
    """
    values = [1.0]
    if n <= 48:
        t = 1.0
        for j in range(n):
            t *= ((n - j) / (j + 1.0)) * ((j - nu) / a)
            values.append(t)
        return values
    start, largest = 0, 1.0
    block = max(1024, int(4.0 * math.sqrt(min(a, n))))
    while True:
        stop = min(n, start + block)
        terms = _term_block(n, a, nu, start, stop, values[-1])
        values += terms.tolist()
        last = values[-1]
        if stop == n or not math.isfinite(last):
            return values
        largest = max(largest, float(abs(terms).max()))
        if stop > nu:
            rho = ((n - stop) / a) * max(1.0, (stop - nu) / (stop + 1))
            if rho < 1.0 and abs(last) * rho <= _TAIL_FRACTION * largest * (1.0 - rho):
                return values
        start = stop


def _term_block(n: int, a: float, nu: float, start: int, stop: int, prev: float):
    """The terms t_{start+1}, ..., t_stop of c_n^a(nu) as a numpy array,
    continued from prev = t_start by one cumprod of the ratios
    ((n-k)/(k+1)) ((k-nu)/a), k = start .. stop-1.  Overflow gives inf
    silently.  Raises DomainError, before allocating, when stop is past
    _MAX_TERMS.
    """
    if stop > _MAX_TERMS:
        raise DomainError(f"the Charlier sum at n={n}, a={a!r}, nu={nu!r} needs more "
                          f"than {_MAX_TERMS} terms")
    import numpy as np
    k = np.arange(start, stop, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = ((n - k) / (k + 1.0)) * ((k - nu) / a)
        ratios[0] *= prev
        return np.cumprod(ratios)


def charlier_order_shift(n: int, a: float, nu: float,
                         c_at_nu: float, c_at_nu_minus_1: float) -> float:
    """c_n(nu+1) from c_n(nu) and c_n(nu-1):

        c_n(nu+1) = ((nu + a - n)/a) c_n(nu) - (nu/a) c_n(nu-1).
    """
    n = _check_degree(n)
    if a <= 0:
        raise DomainError(f"a must be positive, got {a!r}")
    return ((nu + a - n) / a) * c_at_nu - (nu / a) * c_at_nu_minus_1


def charlier_backward_step(n: int, a: float, x: float,
                           c_nm1_at_x: float, c_n_at_x: float) -> float:
    """c_{n-1}(x-1) from same-argument values at degrees n-1 and n:

        c_{n-1}(x-1) = (a/x) (c_{n-1}(x) - c_n(x)).

    Signals rather than divides when |x| < 1e-300; the caller must use
    direct evaluation there.
    """
    n = _check_degree(n)
    if n < 1:
        raise DomainError("backward step needs n >= 1")
    if a <= 0:
        raise DomainError(f"a must be positive, got {a!r}")
    if abs(x) < 1e-300:
        raise DegenerateArgumentError(
            f"backward step degenerate at x={x!r}; evaluate directly instead"
        )
    return (a / x) * (c_nm1_at_x - c_n_at_x)


@dataclass(frozen=True)
class ScaledPoint:
    """A point (x, a) of the convergence sweep.

    Carries the derived degree n = ceil(a - x*sqrt(2a)) and the ceiling
    offset theta = n - (a - x*sqrt(2a)) in [0, 1).
    """

    x: float
    a: float
    n: int = field(init=False)
    theta: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.a)) or self.a <= 0:
            raise DomainError(
                f"ScaledPoint needs finite x and finite a > 0, got x={self.x!r}, a={self.a!r}"
            )
        s = self.a - self.x * math.sqrt(2.0 * self.a)
        n = math.ceil(s)
        if n < 0:
            raise DomainError(
                f"derived degree n = ceil({s}) is negative; x too large for a"
            )
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "theta", float(n) - s)


def _exact_sqrt(f: Fraction):
    if f < 0:
        return None
    pn = math.isqrt(f.numerator)
    pd = math.isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def scaled_y(point: ScaledPoint, nu: Number, mode: str = "float"):
    """y_nu^a(x) = (2a)^{nu/2} c_n^a(nu) at a ScaledPoint.

    Rational mode needs (2a)^{nu/2} to be rational: nu an even integer,
    or nu an odd integer with 2a a perfect square.
    """
    if mode == "float":
        nu_f = float(nu)
        try:
            scale = (2.0 * point.a) ** (nu_f / 2.0)
        except OverflowError:
            scale = math.inf
        value = scale * charlier_direct(point.n, point.a, nu_f)
        if not math.isfinite(value):
            raise DomainError(
                f"y_nu^a(x) at a={point.a!r}, nu={nu!r} is outside double range")
        return value
    if mode != "rational":
        raise DomainError(f"unknown mode {mode!r}")
    nu_r = _to_fraction(nu, "nu")
    if nu_r.denominator != 1:
        raise RationalModeError(f"(2a)^(nu/2) is irrational for nu={nu!r}")
    nu_i = nu_r.numerator
    two_a = 2 * _to_fraction(point.a, "a")
    if nu_i % 2 == 0:
        scale = two_a ** (nu_i // 2)
    else:
        root = _exact_sqrt(two_a)
        if root is None:
            raise RationalModeError(
                f"sqrt(2a) is irrational for a={point.a!r}; cannot scale exactly"
            )
        scale = root ** nu_i
    return scale * charlier_direct(point.n, _to_fraction(point.a, "a"), nu_r,
                                   mode="rational")
