"""Zero location in the order/argument variable, and zero convergence.

Charlier zeros here are zeros of nu -> c_n^a(nu) (all real, positive and
simple); Hermite zeros are zeros of nu -> H_nu(x) for fixed x.
charlier_zeros_in_order evaluates no c_n^a to find a zero: a Sturm count
(_zeros_below, in dstqds form) gives the number of zeros below a point,
relatively accurate at every size of nu, and bisection on counts narrows
a range to cells 1e-12 wide (relative) that hold exactly its count of
zeros, however small the zero.  Hermite zeros are found on a uniform
grid: a sign change between two nodes brackets a zero, which Brent's
zeroin refines to a bracket 1e-12 wide (relative), and a node where the
function is exactly 0 is a zero itself.  Every bracket stops at the one
relative tolerance _tol.

zero_convergence_table tracks one Hermite zero target: for each a it
takes n = floor(a - x sqrt(2a)) and finds the Charlier zero nearest the
target inside a window reaching halfway to the adjacent Hermite zeros,
on a grid of c_n^a values, or takes the target itself where c_n^a is
exactly 0 there.  It needs only the zeros nearest the target,
so its scans visit the grid outward from the target and stop where no
farther cell could hold a nearer zero: a few nodes and one refinement per
a, where a full scan of the window costs every node and every refinement.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections import namedtuple
from collections.abc import Callable

from .charlier import charlier_direct
from .errors import DomainError, _integer, _real
from .hermite import hermite_fn

_BRACKET_REL_TOL = 1e-12
# A scan of values (hermite_zeros_in_order's, and the zero table's) has at
# most this many nodes.
_MAX_GRID = 1 << 16
# The Sturm counts take n up to this: two counts there take 3 to 5 ms.
_MAX_COUNT_N = 1 << 14
# The pivots counted every zero for a in this range.  Below it, a is below
# pivmin, so 0 counts as a zero; above it (6000 seeded (n, a), n <= 16384)
# the first miscount was at a = 2.2e31, n = 16384: hi rounded below a zero.
_MIN_COUNT_A, _MAX_COUNT_A = 2.0 ** -1022, 1e30
# charlier_zeros_in_order finds k zeros at degree n where k n is at most
# this: about 1 s of counts
_MAX_ZEROS_WORK = 1 << 18
# zero_convergence_table's scan of its window
_TABLE_GRID = 64


ZeroResult = namedtuple("ZeroResult", "root bracket_lo bracket_hi residual iterations")


def _tol(mid: float) -> float:
    """The bracket width a refinement stops below, around mid: 1e-12 |mid|."""
    return _BRACKET_REL_TOL * abs(mid)


def _exact(f: Callable[[float], float], x: float, lo: float, hi: float,
           iterations: int = 0) -> ZeroResult:
    """x, where f(x) == 0 exactly.  Its bracket is [x - d, x + d], with d a
    quarter of _tol(x), where f has opposite signs at its ends, and
    [lo, hi] otherwise."""
    d = 0.25 * _tol(x)
    if f(x - d) * f(x + d) < 0:
        lo, hi = x - d, x + d
    return ZeroResult(x, lo, hi, 0.0, iterations)


def _refine(f: Callable[[float], float], lo: float, hi: float,
            f_lo: float, f_hi: float) -> ZeroResult:
    """Brent's zeroin (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4) on [lo, hi], where f(lo) f(hi) < 0.

    Each step takes the inverse quadratic or secant estimate where it
    stays well inside the bracket and the steps keep shrinking, and halves
    the bracket otherwise; no step is shorter than half the tolerance.  It
    stops once the bracket is narrower than _tol of its midpoint, or
    cannot be split in floats.  The bracket's ends have opposite signs,
    and the root returned lies strictly inside it: the secant point
    through the ends, as the last step is often the shortest one, which
    would leave the midpoint a quarter of the tolerance off.  A step onto
    an exact zero returns it through _exact.
    """
    if not (f_lo * f_hi < 0):
        raise DomainError(f"refinement bracket [{lo}, {hi}] has no sign change")
    # b is the best estimate and c the other end of the bracket, so that
    # f(b) f(c) < 0 and |f(b)| <= |f(c)|; a is the previous b; d is the
    # last step and e the one before it
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc, d = a, fa, b - a
    e, iterations = d, 0
    while True:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        m = 0.5 * (c - b)
        tol = _tol(b + m)
        if abs(c - b) < tol or b + m in (b, c):
            break
        shortest = 0.5 * tol
        interpolate = abs(e) >= shortest and abs(fa) > abs(fb)
        if interpolate:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            p, q = (p, -q) if p > 0 else (-p, q)
            interpolate = 2.0 * p < 3.0 * m * q - abs(shortest * q) and p < abs(0.5 * e * q)
        e, d = (d, p / q) if interpolate else (m, m)
        a, fa = b, fb
        b += d if abs(d) > shortest else math.copysign(shortest, m)
        fb = f(b)
        iterations += 1
        if fb == 0.0:
            return _exact(f, b, min(a, c), max(a, c), iterations)
        if (fb > 0) == (fc > 0):
            c, fc = a, fa
            d = e = b - a
    lo, hi = (b, c) if b < c else (c, b)
    root = b - fb * ((c - b) / (fc - fb))
    root = min(max(root, math.nextafter(lo, hi)), math.nextafter(hi, lo))
    return ZeroResult(root, lo, hi, abs(f(root)), iterations)


def _slots(f: Callable[[float], float], lo: float, hi: float, grid: int) -> tuple:
    """The nodes of a scan of [lo, hi] on `grid` nodes, and zero(i): the
    zero in slot i, on node i or in the cell from node i to node i + 1, or
    None.  f is evaluated at a node the first time a slot needs it."""
    lo = _real(lo, "lo")
    hi = _real(hi, "hi", lo, strict=True)
    grid = _integer(grid, "grid", 2, _MAX_GRID)
    # np.linspace's grid, node for node, built without numpy
    step = (hi - lo) / (grid - 1)
    if not math.isfinite(step):  # hi - lo overflows
        raise DomainError(f"[{lo!r}, {hi!r}] is too wide to scan: hi - lo is not finite")
    xs = [i * step + lo for i in range(grid - 1)] + [hi]
    fs = [None] * grid

    def f_at(i):
        if fs[i] is None:
            fs[i] = f(xs[i])
        return fs[i]

    def zero(i):
        if f_at(i) == 0.0:
            # the node is the zero, either end included; the cells beside
            # it show no sign change
            d = (xs[1] - xs[0]) * 1e-6
            return _exact(f, xs[i], xs[i] - d, xs[i] + d)
        if i + 1 < grid and fs[i] * f_at(i + 1) < 0:
            return _refine(f, xs[i], xs[i + 1], fs[i], fs[i + 1])
        return None

    return xs, zero


def _scan(f: Callable[[float], float], lo: float, hi: float, grid: int) -> list:
    """Sign-change scan: returns refined ZeroResults in ascending order."""
    xs, zero = _slots(f, lo, hi, grid)
    return [z for z in map(zero, range(len(xs))) if z is not None]


def _nearest(f: Callable[[float], float], lo: float, hi: float, grid: int,
             target: float) -> ZeroResult | None:
    """The zero of _scan(f, lo, hi, grid) nearest target, the lower one of
    two as near, or None where there is none.

    Slots are visited in order of their distance from target, and the walk
    stops at the first slot too far to hold a nearer zero (or one as near
    and lower); a slot's zero lies in its cell, so abs(root - target) is
    at least the distance of the cell, rounding included.
    """
    xs, zero = _slots(f, lo, hi, grid)

    def bound(i):
        return max(xs[i] - target, target - xs[min(i + 1, len(xs) - 1)], 0.0), i

    best = None
    for key in sorted(map(bound, range(len(xs)))):
        if best is not None and key > best[0]:
            break
        z = zero(key[1])
        if z is not None and (best is None or (abs(z.root - target), key[1]) < best[0]):
            best = (abs(z.root - target), key[1]), z
    return best and best[1]


def _zeros_below(n: int, a: float, nu: float) -> int:
    """How many zeros of c_n^a lie below nu, or at it: the negative pivots
    d_k = a c_{k+1}(nu) / c_k(nu) of J - nu I, J the Jacobi matrix of the
    degree recurrence, whose eigenvalues are the zeros (Golub & Welsch,
    Math. Comp. 23, 1969; Barth, Martin & Wilkinson, Numer. Math. 9, 1967).

    The pivots are carried in the stationary qd form (dstqds; Dhillon &
    Parlett, Linear Algebra Appl. 387, 2004) of J = L (a I) L^T, with L
    unit lower bidiagonal: as s_k = d_k - a, where s_0 = -nu and
    s_k = k s_{k-1} / d_{k-1} - nu.  No step rounds nu or s_k to ulp(a),
    so the count resolves nu relative to its own size; at nu = 0 every
    pivot is exactly a and the count is 0.
    A pivot below pivmin in size is taken as -pivmin, as in LAPACK's
    dstebz, with pivmin the least normal double times max(1, a n): no step
    overflows.
    """
    pivmin, count, s = sys.float_info.min * max(1.0, a * n), 0, -nu
    for k in range(1, n):
        d = a + s
        if d < pivmin:
            count += 1
            if d > -pivmin:
                d = -pivmin
        s = s / d * k - nu
    return count + (a + s < pivmin)


def _count_args(n, a) -> tuple:
    """(n, a, top) where the Sturm counts take (n, a), with top = n + a +
    2 sqrt(a n) above every zero of c_n^a (Gershgorin); DomainError otherwise."""
    n = _integer(n, "n", 1, _MAX_COUNT_N)
    a = _real(_real(a, "a", _MIN_COUNT_A), "a", hi=_MAX_COUNT_A)
    return n, a, n + a + 2.0 * math.sqrt(a * n)


def charlier_zeros_in_order(n: int, a: float, lo: float, hi: float) -> list:
    """Zeros of nu -> c_n^a(nu) in [lo, hi], ascending, by bisection on
    Sturm counts (Barth, Martin & Wilkinson, Numer. Math. 9, 1967).

    The counts at lo - _tol(lo) and at hi give the range's count of
    zeros, k, so that a zero on lo is in it.  Bisection starts from that
    range cut to [0, top], whose ends have the same counts, as every zero
    lies in (0, top] (_count_args) and the count at 0 is exactly 0.  A
    cell whose end counts differ is split at its geometric mean (0 taken
    as the least positive double): that halves the cell in log scale, and
    all but in width once the cell is narrow, so that a zero of any size
    costs about 50 counts.  The split's count is clamped between those of
    the ends: the cells then hold exactly k zeros, even where float counts
    are not monotone.  A cell narrower than _tol of its split point, or
    one that cannot be split in floats, gives one ZeroResult per zero it
    holds: the split point as root (the upper end where it cannot be
    split, as the zero lies in (x0, x1]), the cell as bracket, the counts
    that narrowed it as iterations, and |c_n^a(root)| as residual, inf
    where charlier_direct refuses.  (n, a) are taken as
    count_positive_zeros takes them; DomainError also where
    k n > _MAX_ZEROS_WORK, after the two counts.
    """
    n, a, top = _count_args(n, a)
    lo = _real(lo, "lo")
    hi = _real(hi, "hi", lo, strict=True)
    below = lo - _tol(lo)
    c_lo, c_hi = _zeros_below(n, a, below), _zeros_below(n, a, hi)
    if (c_hi - c_lo) * n > _MAX_ZEROS_WORK:
        raise DomainError(f"[{lo!r}, {hi!r}] holds {c_hi - c_lo} zeros of c_{n}^a; at n={n} "
                          f"at most {_MAX_ZEROS_WORK // n} are found in one call")
    results, cells = [], [(max(below, 0.0), min(hi, top), c_lo, c_hi, 0)]
    while cells:  # depth first, lower cell first: the zeros come out ascending
        x0, x1, c0, c1, depth = cells.pop()
        if c0 == c1:
            continue
        mid = math.sqrt(max(x0, math.ulp(0.0))) * math.sqrt(x1)
        if not x0 < mid < x1 or x1 - x0 < _tol(mid):
            root = mid if x0 < mid < x1 else x1
            try:
                residual = abs(charlier_direct(n, a, root))
            except DomainError:
                residual = math.inf
            results += [ZeroResult(root, x0, x1, residual, depth)] * (c1 - c0)
            continue
        c = min(max(_zeros_below(n, a, mid), c0), c1)
        cells += [(mid, x1, c, c1, depth + 1), (x0, mid, c0, c, depth + 1)]
    return results


def hermite_zeros_in_order(x: float, lo: float, hi: float,
                           grid: int = 128) -> list:
    """Zeros of nu -> H_nu(x) in [lo, hi], ascending."""
    x = _real(x, "x")
    return _scan(lambda nu: hermite_fn(nu, x), lo, hi, grid)


def count_positive_zeros(n: int, a: float) -> int:
    """The number of positive zeros of nu -> c_n^a(nu), which is n.

    One Sturm count, _zeros_below(n, a, top), with top above every zero
    (_count_args); J is positive definite, so no zero lies below 0, and
    the count at 0 is exactly 0.  DomainError, before any count, where
    n > _MAX_COUNT_N or a is outside [_MIN_COUNT_A, _MAX_COUNT_A].
    """
    n, a, top = _count_args(n, a)
    return _zeros_below(n, a, top)


ZeroConvergenceRow = namedtuple("ZeroConvergenceRow", "a n nu_n abs_err error", defaults=(None,))


def _target_window(x: float, target: float) -> tuple:
    """Half the gap to the adjacent Hermite zeros on each side; a missing
    side mirrors the other one.

    The adjacent zeros are those of a 400-node scan of [target - 4,
    target + 4] that lie more than 1e-6 from target.  Zeros ascend with
    their slots, so each is the first one met walking outward from the
    slot that holds target.
    """
    span, grid = 4.0, 400
    xs, zero = _slots(lambda nu: hermite_fn(nu, x), target - span, target + span, grid)
    zero = functools.cache(zero)  # slot k is on both walks
    k = min(max(bisect.bisect_right(xs, target) - 1, 0), grid - 1)

    def adjacent(slots, side):
        for z in filter(None, map(zero, slots)):
            if abs(z.root - target) > 1e-6 and (z.root > target) == (side > 0):
                return z.root
        return None

    below, above = adjacent(range(k, -1, -1), -1), adjacent(range(k, grid), 1)
    # no gap is 0, as the zeros lie more than 1e-6 from target
    gap_lo = None if below is None else target - below
    gap_hi = None if above is None else above - target
    gap_lo = gap_lo or gap_hi or 2.0
    return target - 0.5 * gap_lo, target + 0.5 * (gap_hi or gap_lo)


def zero_convergence_table(x: float, target_nu: float, a_values) -> list:
    """Charlier-zero error against one Hermite-zero target, per a.

    Where c_n^a is exactly 0 at the target, as at target 1 for x = 0 and
    integer a (c_a^a(1) = c_1^a(a) = 0), the target is the row's zero;
    elsewhere the zero is the one of the window's scan nearest the target.
    Rows keep going past per-a failures; a failed row carries its error
    message and NaN for the numeric fields.
    """
    x, target = _real(x, "x"), _real(target_nu, "target_nu")
    z = _nearest(lambda nu: hermite_fn(nu, x), target - 0.5, target + 0.5, 64, target)
    if z is None:
        raise DomainError(f"no Hermite zero of H_.(x={x}) found within 0.5 of nu={target}")
    target = z.root
    win_lo, win_hi = _target_window(x, target)
    rows = []
    for a in a_values:
        try:
            a = _real(a, "a", 0, strict=True)
            s = a - x * math.sqrt(2.0 * a)
            if not math.isfinite(s):  # 2a overflows
                raise DomainError(f"derived degree n = floor({s}) is not finite at a={a}")
            n = math.floor(s)
            if n < 1:
                raise DomainError(f"derived degree n={n} < 1 for a={a}, x={x}")
            if charlier_direct(n, a, target) == 0.0:  # the target is a Charlier zero itself
                root = target
            else:
                z = _nearest(lambda v: charlier_direct(n, a, v), win_lo, win_hi, _TABLE_GRID,
                             target)
                if z is None:
                    raise DomainError(f"no Charlier zero in window [{win_lo:.6g}, {win_hi:.6g}] "
                                      f"for a={a}")
                root = z.root
            rows.append(ZeroConvergenceRow(a, n, root, abs(root - target)))
        except DomainError as exc:  # a is the float, or the value _real refused
            rows.append(ZeroConvergenceRow(a, -1, math.nan, math.nan, str(exc)))
    return rows
