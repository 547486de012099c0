"""Charlier polynomials c_n^a at real (not just integer) arguments.

The defining series is

    c_n^a(nu) = sum_{k=0}^{n} C(n,k) (-nu)_k a^{-k}

with (-nu)_k the rising factorial.  Writing the ratio of consecutive
terms as ((n-k)/(k+1)) * ((k-nu)/a) avoids both binomials and gamma
quotients, so real nu costs nothing extra and there is no pole to dodge.
The float sum of the terms is exactly rounded: it is math.fsum's double,
computed in numpy by error-free extraction once the terms are many.  The
terms are built in blocks, the first sized to hold the terms that count,
and the sum ends with the first block whose last term certifies the rest
negligible.

The scaled value

    y_nu^a(x) = (2a)^{nu/2} c_n^a(nu),   n = ceil(a - x*sqrt(2a))

is the quantity that approaches the Hermite function H_nu(x) as a grows.
The zeros of nu -> c_n^a(nu) are found in zeros.py, by Sturm counts that
evaluate no c_n^a.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import DomainError, _finite, _integer, _rational, _real

if TYPE_CHECKING:
    from fractions import Fraction

# The float sum drops a tail certified below 2^-160 of its largest term;
# at 2^-110 the last bit of a cancelling sum was seen to flip.
_TAIL_FRACTION = 2.0 ** -160
# No float sum builds more terms than this; every a <= 1e10 measured
# needs at most 2.3e6.
_MAX_TERMS = 10_000_000
# A process builds at most this many terms in Python while numpy is not
# loaded, about as many as numpy's import (170 ms cold) is worth: on a
# 2-vCPU VM, cold `eval charlier` at n = a broke even at 6e5 to 9e5 terms.
_PYTHON_TERMS = 700_000
_python_spent = 0  # the terms _blocks has built in Python so far
# Rational mode refuses a sum or a scale whose exact value could need more
# bits than this.  scaled_y at x = 0, nu = -2 took 0.74 s at a = 2000
# (bound 50,011 bits), and its work grows about as the cube of a.
_RATIONAL_BITS = 1 << 16
# _term_block builds a block in pieces of at most this many terms.  A numpy
# array of more than 2^14 doubles (128 KiB) comes from mmap on glibc, and
# its pages fault in afresh on each call: built in one piece, blocks of
# 27,776 and 50,660 terms took 20 and 17 ns a term, in pieces 9 ns, as one
# of 16,064 did (2-vCPU VM).  The first block at a = 1e6 is one piece.
_PIECE = 16128
# _sum leaves a sum of fewer terms than this to math.fsum.  Timed per
# charlier_direct call over 400 sums of 50 to 1100 terms, each summed both
# ways in turn (2-vCPU VM, two seeds), extraction broke even with fsum at
# 450 to 550 terms; 512 came within 1% of the least total time, where
# 1024 took 4 to 11% more.
_EXTRACT_TERMS = 512


def charlier_direct(n: int, a: int | float | Fraction, nu: int | float | Fraction,
                    mode: str = "float"):
    """Evaluate c_n^a(nu) by direct summation of the defining series.

    mode="float": terms generated by the overflow-safe ratio recurrence
    and summed exactly rounded, as math.fsum sums them (_sum).  The sum
    takes whole blocks of terms (_blocks), up to the first block whose
    last term certifies that the terms left total at most 2^-160 of the
    largest term (or the block that reaches t_n), so the work is
    O(sqrt(min(a, n))) past the peak term rather than O(n).
    mode="rational": exact, as one Fraction.  With a = p/q and nu = r/s the
    term t_k is T_k / (s p)^k, the integers T_k built by _rational_terms,
    summed by Horner's rule in s p.  DomainError, before any term is
    built, where the value could need more than 2^16 bits.
    In float mode n is at most the largest double.
    """
    n = _integer(n, "n", 0, math.inf) if mode == "rational" else _integer(n, "n")
    if mode == "rational":
        a_r, nu_r = _rational(a, "a", positive=True), _rational(nu, "nu")
        # with a = p/q and nu = r/s, the terms t_1 .. t_K that can be nonzero
        # share the denominator (s p)^K, and their numerators are at most
        # C(n, k) (K s + |r|)^K q^K
        p, q, r, s = a_r.numerator, a_r.denominator, nu_r.numerator, nu_r.denominator
        K = min(n, r) if s == 1 and r >= 0 else n
        _check_bits(min(n, K * n.bit_length()) + (K + 1).bit_length() + K * (
            (K * s + abs(r)).bit_length() + q.bit_length() + s.bit_length() + p.bit_length()))
        # Horner's rule in s p: total / (s p)^k = sum of T_j / (s p)^j, j <= k
        sp, total = s * p, 0
        for k, t in enumerate(_rational_terms(n, q, r, s)):
            total = total * sp + t
        import fractions  # here, as the float path never needs it
        return fractions.Fraction(total, sp ** k)
    if mode != "float":
        raise DomainError(f"unknown mode {mode!r}")
    a_f, nu_f = _real(a, "a", 0, strict=True), _real(nu, "nu")
    if n > 48:
        blocks = [(1.0,)]
        for t, ends in _blocks(n, a_f, nu_f):
            blocks.append(t)
            if ends:
                break
        total = _sum(blocks)
    else:
        # A short sum costs less in Python than in a numpy block, numpy loaded
        # or not, and is far below _EXTRACT_TERMS: fsum without _sum's tests
        # took a call at n = 5 from 4.2 to 3.0 us.
        try:
            total = math.fsum([1.0, *_term_row(n, a_f, nu_f, 0, n, 1.0)])
        except (ValueError, OverflowError):  # an inf - inf, or an intermediate overflow
            total = math.inf
    return _finite(total, "c_n^a(nu) at n={}, a={!r}, nu={!r}", n, a, nu)


def _rational_terms(n: int, q: int, r: int, s: int):
    """Yield T_0 = 1, T_1, ..., T_K, the integers with t_k = T_k / (s p)^k
    for the terms t_k of c_n^a(nu) at a = p/q and nu = r/s, up to the last
    term that is not 0: T_{k+1} = T_k (n-k) (k s - r) q / (k+1), exact
    since C(n,k) (n-k) / (k+1) = C(n,k+1).  The series ends where k s = r.
    """
    t = 1
    yield t
    for k in range(n):
        f = k * s - r
        if f == 0:
            return
        t = t * (n - k) * f * q // (k + 1)
        yield t


def _check_bits(bits: int) -> None:
    """DomainError, before any of the work, where an exact value could
    need more than _RATIONAL_BITS bits."""
    if bits > _RATIONAL_BITS:
        # str() refuses an int of over 4300 digits, as at n = 10^5000
        need = bits if bits.bit_length() <= 64 else f"over 2^{bits.bit_length() - 1}"
        raise DomainError(f"the exact value could need {need} bits, "
                          f"more than rational mode's {_RATIONAL_BITS}")


def _sum(blocks) -> float:
    """math.fsum of the terms of `blocks` (tuples, lists or memoryviews of
    floats), bit for bit, and inf where fsum raises (an inf - inf, or an
    intermediate overflow).

    Where numpy is loaded and the blocks hold at least _EXTRACT_TERMS
    terms, the sum runs on a numpy copy p of all the terms by error-free
    extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation, Part I", SIAM J. Sci. Comput. 31, 2008).  With m = len(p)
    and sigma = 2^e >= 2 m max|p|, q = (sigma + p) - sigma and p - q are
    exact, the q lie on the grid 2^(e-53) and total at most 2^(e-1) +
    m 2^(e-53) in size, so q.sum() is exact in any order; each residual
    p - q is at most 2^(e-53).  Each round adds q.sum() to the list taus
    and keeps the residuals as p.  The exact sum S then lies within
    delta = m 2^(e-53) of sum(taus), and rounding is monotone, so once
    fsum(taus + [-delta]) == fsum(taus + [delta]) that double is fsum's
    rounding of S.  Every round shrinks max|p| by 2^51/m or more.  Terms
    that are all zero, or not all finite, or a sigma past 2^1023 go to
    math.fsum, which then decides the sign of a zero and every error.
    """
    if "numpy" in sys.modules and sum(map(len, blocks)) >= _EXTRACT_TERMS:
        import numpy as np
        p = np.concatenate(blocks)  # a copy: no block is written
        q, m, taus = np.empty_like(p), len(p), []
        while True:
            mu = float(np.abs(p, out=q).max())
            if mu == 0.0 and taus:  # no residual is left: S = sum(taus)
                return math.fsum(taus)
            if not 0.0 < 2.0 * m * mu <= 2.0 ** 1022:
                break
            e = math.frexp(2.0 * m * mu)[1]
            sigma = math.ldexp(1.0, e)
            np.add(p, sigma, out=q)
            q -= sigma
            p -= q
            taus.append(float(q.sum()))
            delta = m * math.ldexp(1.0, e - 53)
            low = math.fsum(taus + [-delta])
            if low == math.fsum(taus + [delta]):
                return low
    try:
        return math.fsum(itertools.chain.from_iterable(blocks))
    except (ValueError, OverflowError):
        return math.inf


def _block_size(n: int, a: float) -> tuple:
    """(first, later): how many terms the first block of c_n^a(nu) holds,
    and each block after it.

    Past the peak, the terms above _TAIL_FRACTION of the largest span
    about 16 sqrt(m) indices, m = min(a, n): on 400 seeded sums at
    n = ceil(a - x sqrt(2a)) (a in [1e2, 1e6], |x| <= 1, |nu| <= 4), the
    tail test, checked term by term, first held 10.0 to 16.7 sqrt(m) terms
    in, 13.6 sqrt(m) at the median.  The first block holds that span and
    64 terms more, so most sums take one block; each later block holds a
    quarter span (_blocks ends it at a multiple of one).  Every block
    holds at least 1024 terms (4 sqrt(65536)), so a sum at n <= 1024 takes
    one block and no test.
    """
    m = min(a, n)
    first = int(16.0 * math.sqrt(m)) + 64
    return (first if first > 1024 else 1024), _quarter_span(m)


def _quarter_span(m: float) -> int:
    """max(1024, int(4 sqrt(m))): the size of each block after the first,
    at m = min(a, n), and the step of head_tail_split's row ends."""
    later = int(4.0 * math.sqrt(m))
    return later if later > 1024 else 1024


def _python_terms() -> int:
    """How many more terms _blocks may build in Python, by _term_row: what
    is left of the process's _PYTHON_TERMS while numpy is not loaded, and
    none once it is (its blocks are faster).  A block that does not fit
    loads numpy, and every later block goes to it: spending the budget and
    then importing numpy costs a process at most twice the cheaper of the
    two (the ski-rental rule), however many sums it goes on to make."""
    return 0 if "numpy" in sys.modules else _PYTHON_TERMS - _python_spent


def _blocks(n: int, a: float, nu: float):
    """Yield (block, ends) for the terms t_1, ..., t_n of c_n^a(nu),
    t_0 = 1 and t_{k+1} = t_k r_k: each block a list or a memoryview of
    floats.  ends is true for the block with which charlier_direct's sum
    ends, and false for every block before and after it.

    The first block holds the terms _block_size gives for it, and each
    later one ends at the next multiple of its later size, as blocks did
    when all were that size: head_tail_split's rows end on such a
    multiple, and the terms past it are subnormal, slow to build.  Each
    block is continued from the last term of the one before; one that
    would end past t_{_MAX_TERMS} raises DomainError before any of it is
    built.  A block that fits in what _python_terms leaves is built by
    _term_row and counted in _python_spent, any other by _term_block, which
    loads numpy, so every later block goes to it too.  Both round every
    term as one cumprod over all its ratios would, wherever the blocks
    break.

    The sum ends with the block that reaches t_n, that ends on a term that
    is not finite, or whose last term passes _tail_negligible; it takes
    each block whole.  Where the blocks break therefore moves only terms
    below _TAIL_FRACTION of the largest, and on every input tested the
    double is the same.  The block at t_n is not tested, as no term is
    left past it.
    """
    global _python_spent
    first, later = _block_size(n, a)
    largest, last, start, summing = 1.0, 1.0, 0, True
    while start < n:
        stop = min(start - start % later + later if start else first, n)
        if stop > _MAX_TERMS:
            raise DomainError(f"the Charlier sum at n={n}, a={float(a)!r}, nu={float(nu)!r} "
                              f"needs more than {_MAX_TERMS} terms")
        python = stop - start <= _python_terms()
        t = (_term_row if python else _term_block)(n, a, nu, start, stop, last)
        if python:
            _python_spent += len(t)
        last = float(t[-1])
        if not summing:
            ends = False
        elif stop >= n or not math.isfinite(last):
            ends = True
        else:  # taken first, max and min made a one-block sum at a = 100 50% slower
            high, low = (max(t), min(t)) if python else (float(t.max()), float(t.min()))
            largest = max(largest, abs(high), abs(low))
            ends = _tail_negligible(n, a, nu, stop, last, largest)
        summing = summing and not ends
        yield (t if python else memoryview(t)), ends
        start = stop


def _tail_negligible(n: int, a: float, nu: float, k: int, t_k: float, largest: float) -> bool:
    """Whether the terms past t_k are certified to total at most
    _TAIL_FRACTION of largest, the largest |t_j|, j <= k.

    Every later ratio r_j, j >= k, is at most rho in size, with
    rho = ((n-k)/a) max(1, (k-nu)/(k+1)) for k > nu, and otherwise
    rho = ((n-k)/(k+1)) max(nu-k, |n-nu|)/a, as (n-j)/(j+1) falls with j
    and |j-nu| is largest at j = k or j = n.  Once rho < 1 the terms past
    k sum to at most |t_k| rho/(1-rho).
    """
    if k > nu:
        rho = ((n - k) / a) * max((k - nu) / (k + 1), 1.0)
    else:
        rho = ((n - k) / (k + 1)) * (max(nu - k, abs(n - nu)) / a)
    return rho < 1.0 and abs(t_k) * rho <= _TAIL_FRACTION * largest * (1.0 - rho)


def _term_row(n: int, a: float, nu: float, start: int, stop: int, prev: float) -> list:
    """The terms t_{start+1}, ..., t_stop of c_n^a(nu) as a list, continued
    from prev = t_start: _term_block's terms, built in Python with the same
    roundings, since each is one IEEE operation in the same order.
    """
    nf, t, row = float(n), prev, []
    for k in itertools.islice(itertools.count(float(start)), stop - start):
        t *= ((nf - k) / (k + 1.0)) * ((k - nu) / a)
        row.append(t)
    return row


def _term_block(n: int, a: float, nu: float, start: int, stop: int, prev: float):
    """The terms t_{start+1}, ..., t_stop of c_n^a(nu) as a numpy array,
    continued from prev = t_start by one cumprod of the ratios
    ((n-k)/(k+1)) ((k-nu)/a), k = start .. stop-1.  Overflow gives inf
    silently.
    """
    import numpy as np
    # The block is built mostly in place, as fresh temporaries cost more
    # than the arithmetic, and in pieces of at most _PIECE terms, each
    # continued from the last term of the one before as the cumprod would.
    out = np.empty(stop - start)
    with np.errstate(over="ignore", invalid="ignore"):
        for low in range(start, stop, _PIECE):
            k = np.arange(low, min(low + _PIECE, stop), dtype=float)
            ratios = np.subtract(k, nu, out=out[low - start:low - start + len(k)])
            ratios /= a
            high = float(n) - k
            k += 1.0
            high /= k
            ratios *= high
            if low:  # t_0 = 1, so the first piece needs no prev
                ratios[0] *= prev
            prev = ratios.cumprod(out=ratios)[-1]
    return out


def charlier_order_shift(n: int, a: float, nu: float,
                         c_at_nu: float, c_at_nu_minus_1: float) -> float:
    """c_n(nu+1) from c_n(nu) and c_n(nu-1):

        c_n(nu+1) = ((nu + a - n)/a) c_n(nu) - (nu/a) c_n(nu-1).

    DomainError where an argument or the result is not finite.
    """
    n, a, nu = _integer(n, "n"), _real(a, "a", 0, strict=True), _real(nu, "nu")
    c0, c1 = _real(c_at_nu, "c_at_nu"), _real(c_at_nu_minus_1, "c_at_nu_minus_1")
    return _finite(((nu + a - n) / a) * c0 - (nu / a) * c1,
                   "the recurrence step at n={}, a={!r}, nu={!r}", n, a, nu)


def charlier_backward_step(n: int, a: float, x: float,
                           c_nm1_at_x: float, c_n_at_x: float) -> float:
    """c_{n-1}(x-1) from same-argument values at degrees n-1 and n:

        c_{n-1}(x-1) = (a/x) (c_{n-1}(x) - c_n(x)).

    DomainError at x = 0, where the caller must evaluate directly, and
    where an argument or the result is not finite.
    """
    n, a, x = _integer(n, "n", 1), _real(a, "a", 0, strict=True), _real(x, "x")
    c0, c1 = _real(c_nm1_at_x, "c_nm1_at_x"), _real(c_n_at_x, "c_n_at_x")
    if x == 0.0:
        raise DomainError(f"backward step degenerate at x={x!r}; evaluate directly instead")
    return _finite((a / x) * (c0 - c1), "the recurrence step at n={}, a={!r}, x={!r}", n, a, x)


class ScaledPoint(namedtuple("ScaledPoint", "x a n theta")):
    """A point (x, a) of the convergence sweep, built as ScaledPoint(x, a).

    Carries the derived degree n = ceil(a - x*sqrt(2a)) and the ceiling
    offset theta = n - (a - x*sqrt(2a)) in [0, 1).
    """

    __slots__ = ()

    def __new__(cls, x: float, a: float):
        a_f = _real(a, "a", 0, strict=True)
        s = a_f - _real(x, "x") * math.sqrt(2.0 * a_f)
        if not math.isfinite(s):
            raise DomainError(f"derived degree n = ceil({s}) is not finite; |x| too large for a")
        n = math.ceil(s)
        if n < 0:
            raise DomainError(
                f"derived degree n = ceil({s}) is negative; x too large for a"
            )
        return super().__new__(cls, x, a, n, float(n) - s)

    def __getnewargs__(self):  # copy and pickle rebuild from (x, a)
        return self.x, self.a


def _exact_sqrt(f: Fraction):
    if f < 0:
        return None
    pn = math.isqrt(f.numerator)
    pd = math.isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        import fractions  # here, as only rational paths take a square root
        return fractions.Fraction(pn, pd)
    return None


def _scaled(base: float, p: float, c: list, factor: float = 1.0) -> list:
    """factor * base^p * v for each float v of c, as (base^p * factor) * v
    while base^p is a normal double; where it overflows, a v of +-0 gives
    factor * v and any other v inf times it.  Below 2^-1022 a power has
    lost digits, so base^p is applied as two equal normal factors
    s = base^(p/2), as ((s * factor) * v) * s.  Raises DomainError when s
    is not normal either, or a nonzero v gives a result below the normal range.
    """
    try:
        scale = base ** p
    except OverflowError:
        return [factor * v if v == 0 else math.inf * factor * v for v in c]
    if scale >= sys.float_info.min:
        return [scale * factor * v for v in c]
    s = base ** (p / 2.0)
    value = [s * factor * v * s for v in c]
    if s < sys.float_info.min or any(v != 0 and abs(w) < sys.float_info.min
                                     for v, w in zip(c, value)):
        raise DomainError(f"scaling by {base!r}**{p!r} leaves the normal double range")
    return value


def scaled_y(point: ScaledPoint, nu: int | float | Fraction, mode: str = "float"):
    """y_nu^a(x) = (2a)^{nu/2} c_n^a(nu) at a ScaledPoint.

    Rational mode needs (2a)^{nu/2} to be rational: nu an even integer,
    or nu an odd integer with 2a a perfect square; it raises DomainError
    first where the scale or the sum could need more than 2^16 bits.
    """
    if mode == "float":
        nu_f = _real(nu, "nu")
        value = _scaled(2.0 * point.a, nu_f / 2.0, [charlier_direct(point.n, point.a, nu_f)])[0]
        return _finite(value, "y_nu^a(x) at a={!r}, nu={!r}", point.a, nu)
    if mode != "rational":
        raise DomainError(f"unknown mode {mode!r}")
    nu_r = _rational(nu, "nu")
    if nu_r.denominator != 1:
        raise DomainError(f"(2a)^(nu/2) is irrational for nu={nu!r}")
    nu_i = nu_r.numerator
    a_r = _rational(point.a, "a")
    two_a = 2 * a_r
    _check_bits(abs(nu_i) * (two_a.numerator.bit_length() + two_a.denominator.bit_length()) // 2)
    if nu_i % 2 == 0:
        scale = two_a ** (nu_i // 2)
    else:
        root = _exact_sqrt(two_a)
        if root is None:
            raise DomainError(f"sqrt(2a) is irrational for a={point.a!r}; cannot scale exactly")
        scale = root ** nu_i
    return scale * charlier_direct(point.n, a_r, nu_r, mode="rational")
