"""Zero location in the order/argument variable, and zero convergence.

Charlier zeros here are zeros of nu -> c_n^a(nu) (all real, positive and
simple), found by Sturm counts (_zeros_below, in dstqds form), relatively
accurate at every size of nu, in O(sqrt a) rows at large a.  The product
of the counts' pivots, c_n^a up to a positive factor, gives each zero's
residual and is what zero_convergence_table refines a zero on by Brent's
zeroin; only the table's exact-zero test at an integer target sums a
series, in rational mode.  Hermite zeros, of nu -> H_nu(x) for fixed x,
come from a sign-change scan refined by Brent's zeroin.  Every bracket
stops at the one relative tolerance _tol, 1e-12.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from collections.abc import Callable

from .errors import DomainError, _integer, _real
from .hermite import hermite_fn

_BRACKET_REL_TOL = 1e-12
# A Hermite zero scan has at most this many nodes.
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
# A run of the pivots takes at most this many rows, about 0.6 s: a zero
# table row of target 3 at x = 0 takes 1.2e6 of them at a = 1e10.
_MAX_ROWS = 1 << 22
_WINDOW_C = 8.0  # _window's first C: from C = 2, 477 of 1075 counts near zeros doubled it


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


def _pivots(n: int, a: float, nu: float, k0: int = 0, low: bool = False,
            product: bool = False) -> tuple:
    """(count, m, e) for the pivots d_k = a + s_k, k0 <= k < n, run from
    s_{k0} = -nu, or from sigma_{k0} where low and k0 > 0: how many are
    negative, and where product, prod d_k / a = m 2^e (1 otherwise), which
    is c_n^a(nu) / c_{k0}^a(nu) from the true s_{k0}.  sigma_k, the larger
    root of s^2 + (a - k + nu) s + nu a, is the attracting fixed point of
    s -> k s / (a + s) - nu: for nu > 0 and k <= (sqrt a - sqrt nu)^2 the
    true s_k is in [sigma_k, -nu], by induction, as the map is increasing
    and sigma_k falls with k.  DomainError, before any pivot, past _MAX_ROWS."""
    if n - k0 > _MAX_ROWS:
        raise DomainError(f"a Sturm count of c_{n}^a at a={a!r}, nu={nu!r} takes {n - k0} rows, "
                          f"more than {_MAX_ROWS}")
    b = a - k0 + nu
    s = -2.0 * nu * a / (b + math.sqrt(b * b - 4.0 * nu * a)) if low and k0 else -nu
    pivmin, count, m, e = sys.float_info.min * max(1.0, a * n), 0, 1.0, 0
    for k in range(k0 + 1, n + 1):
        d = a + s
        if d < pivmin:
            count += 1
            if d > -pivmin:
                d = -pivmin
        if product:  # only where asked: a run costs about 50% more with it
            m *= d / a
            if not k % 64:  # m back to [0.5, 1) every 64 rows
                m, x = math.frexp(m)
                e += x
        s = s / d * k - nu
    return count, m, e


def _window(n: int, a: float, nu: float, c: float) -> int:
    """k0 = floor((sqrt a - sqrt nu)^2 - c sqrt a), at most n - 1: where a
    run of the pivots starts.  0, the full run, where nu <= 0 or nu >= a,
    or k0 <= n / 2, as two runs from k0 would cost more than one full run."""
    root = math.sqrt(a)
    k0 = min(math.floor((root - math.sqrt(nu)) ** 2 - c * root), n - 1) if 0 < nu < a else 0
    return k0 if 2 * k0 > n else 0


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
    The pivots below k0 = _window(n, a, nu, c), from c = _WINDOW_C, are
    positive.  A start at k0 sets the corner of the trailing Schur
    complement, and a larger one lowers the count by at most one (Weyl),
    so the counts from -nu and sigma_{k0} (_pivots) bracket the true
    count: where they agree it is exact, and where not, c doubles.  Where
    nu <= 0, nu >= a or n >= 2a (k0 < a) the full run is taken at once.
    """
    if not (0 < nu < a and n < 2.0 * a):
        return _pivots(n, a, nu)[0]
    c = _WINDOW_C
    while True:
        k0 = _window(n, a, nu, c)
        count = _pivots(n, a, nu, k0)[0]
        if k0 == 0 or count == _pivots(n, a, nu, k0, low=True)[0]:
            return count
        c *= 2.0


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
    that narrowed it as iterations, and |c_n^a(root)|, the product of one
    full run of the pivots, as residual (inf past the double range).
    (n, a) are taken as count_positive_zeros takes them; DomainError also
    where k n > _MAX_ZEROS_WORK, after the two counts.
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
            try:  # the product of one full run is c_n^a(root) / c_0^a, and c_0^a = 1
                residual = abs(math.ldexp(*_pivots(n, a, root, product=True)[1:]))
            except OverflowError:
                residual = math.inf
            results += [ZeroResult(root, x0, x1, residual, depth)] * (c1 - c0)
            continue
        c = min(max(_zeros_below(n, a, mid), c0), c1)
        cells += [(mid, x1, c, c1, depth + 1), (x0, mid, c0, c, depth + 1)]
    return results


def hermite_zeros_in_order(x: float, lo: float, hi: float, grid: int = 128) -> list:
    """Zeros of nu -> H_nu(x) in [lo, hi], ascending, by a sign-change scan
    on `grid` nodes, np.linspace's node for node, built without numpy: the
    refined ZeroResult of each cell whose ends have opposite signs, and
    each node where H_nu(x) is exactly 0, either end included."""
    x, lo = _real(x, "x"), _real(lo, "lo")
    hi = _real(hi, "hi", lo, strict=True)
    grid = _integer(grid, "grid", 2, _MAX_GRID)
    step = (hi - lo) / (grid - 1)
    if not math.isfinite(step):  # hi - lo overflows
        raise DomainError(f"[{lo!r}, {hi!r}] is too wide to scan: hi - lo is not finite")

    def f(nu):
        return hermite_fn(nu, x)
    xs = [i * step + lo for i in range(grid - 1)] + [hi]
    fs = [f(v) for v in xs]
    d = (xs[1] - xs[0]) * 1e-6  # a node's bracket: the cells beside it show no sign change
    # each node with the next one, the last with no sign change after it
    return [_exact(f, v, v - d, v + d) if fv == 0.0 else _refine(f, v, w, fv, fw)
            for v, w, fv, fw in zip(xs, xs[1:] + [hi], fs, fs[1:] + [0.0])
            if fv == 0.0 or fv * fw < 0]


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


def _isolate(n: int, a: float, target: float) -> tuple:
    """(lo, hi, j): a cell (lo, hi] that holds zero j of c_n^a (j-th from
    below) alone, the zero nearest target, the lower of two as near.  The
    ball (target - r, target + r) holds N(top) - N(target - r) zeros, top
    the double below target + r; r doubles from 0.5 while it holds none,
    and is bisected while it holds two or more, until it holds one, or a
    radius that holds none and one that holds two tie within _tol."""
    k, r, none, two = _zeros_below(n, a, target), 0.5, 0.0, math.inf
    while two - none >= _tol(target):
        lower = _zeros_below(n, a, target - r) if target > r else 0  # none below 0
        top = math.nextafter(target + r, 0.0)  # the ball is open at both ends
        held = _zeros_below(n, a, top) - lower
        if held == 1:
            return (target, top, k + 1) if lower == k else (max(target - r, 0.0), target, k)
        none, two = (r, two) if held == 0 else (none, r)
        r = 2.0 * r if two == math.inf else 0.5 * (none + two)
    return max(target - two, 0.0), target, k


def _refined(n: int, a: float, lo: float, hi: float, j: int) -> float:
    """Zero j of c_n^a, the one zero in (lo, hi]: Brent's zeroin on the
    pivot product of one window, k0 = _window(n, a, hi, c) from c =
    _WINDOW_C, run from sigma_{k0}, its exponent relative to that at lo.
    The root is certified where the count from sigma_{k0} at root -
    _tol(root) is j - 1 and the count from -nu at root + _tol(root) is j,
    as the two bound the true count; where not, c doubles."""
    c = _WINDOW_C
    while True:
        k0 = _window(n, a, hi, c)
        _, f_lo, e_lo = _pivots(n, a, lo, k0, low=True, product=True)

        def f(v):
            _, m, e = _pivots(n, a, v, k0, low=True, product=True)
            return math.ldexp(m, e - e_lo)
        f_hi = f(hi)
        if f_lo * f_hi < 0 or k0 == 0:  # _refine refuses a bracket with no sign change
            root = _refine(f, lo, hi, f_lo, f_hi).root
            if k0 == 0 or (_pivots(n, a, root - _tol(root), k0, low=True)[0] == j - 1
                           and _pivots(n, a, root + _tol(root), k0)[0] == j):
                return root
        c *= 2.0


def zero_convergence_table(x: float, target_nu: float, a_values) -> list:
    """Charlier-zero error against one Hermite-zero target, per a, at
    degree n = floor(a - x sqrt(2a)).

    The target is the zero of a 64-node scan of H_nu(x) on target_nu +-
    0.5 nearest target_nu, the lower one on a tie.  The row's zero is the
    target where that is an integer at which c_n^a is exactly 0 (in
    rational mode), as at target 1 for x = 0 and integer a, and elsewhere
    the nearest Charlier zero (_isolate, _refined), however far: at small
    a it may be nearer another Hermite zero (x = 0, a = 3: 3.697 for
    target 5).  Rows go on past a failed one, which carries its error and NaN.
    """
    x, target = _real(x, "x"), _real(target_nu, "target_nu")
    near = hermite_zeros_in_order(x, target - 0.5, target + 0.5, 64)
    if not near:
        raise DomainError(f"no Hermite zero of H_.(x={x}) found within 0.5 of nu={target}")
    target = min(near, key=lambda z: abs(z.root - target)).root
    if target.is_integer():  # here, as only the exact-zero test sums a series
        from .charlier import charlier_direct
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
            _real(_real(a, "a", _MIN_COUNT_A), "a", hi=_MAX_COUNT_A)  # the counts' range
            if target.is_integer() and charlier_direct(n, a, target, "rational") == 0:
                root = target  # the target is a Charlier zero itself
            else:
                root = _refined(n, a, *_isolate(n, a, target))
            rows.append(ZeroConvergenceRow(a, n, root, abs(root - target)))
        except DomainError as exc:  # a is the float, or the value _real refused
            rows.append(ZeroConvergenceRow(a, -1, math.nan, math.nan, str(exc)))
    return rows
