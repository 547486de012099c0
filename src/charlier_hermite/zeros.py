"""Zero location in the order/argument variable, and zero convergence.

Charlier zeros here are zeros of nu -> c_n^a(nu) (all real, positive and
simple); Hermite zeros are zeros of nu -> H_nu(x) for fixed x.  Both are
found by sign-change scanning on a uniform grid followed by bisection.

zero_convergence_table tracks one Hermite zero target: for each a it
takes n = floor(a - x sqrt(2a)) and finds the Charlier zero nearest the
target inside a window reaching halfway to the adjacent Hermite zeros.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

from .charlier import charlier_direct
from .errors import DomainError
from .hermite import hermite_fn

_BRACKET_REL_TOL = 1e-12


@dataclass(frozen=True)
class ZeroResult:
    root: float
    bracket_lo: float
    bracket_hi: float
    residual: float
    iterations: int


def _bisect(f: Callable[[float], float], lo: float, hi: float,
            f_lo: float, f_hi: float) -> ZeroResult:
    if not (f_lo * f_hi < 0):
        raise DomainError(f"bisection bracket [{lo}, {hi}] has no sign change")
    iterations = 0
    root = None
    while (hi - lo) >= _BRACKET_REL_TOL * max(1.0, abs(0.5 * (lo + hi))):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break  # interval at float resolution
        f_mid = f(mid)
        iterations += 1
        if f_mid == 0.0:
            # exact hit: report it but keep the enclosing bracket, whose
            # ends still have opposite signs
            root = mid
            break
        if f_lo * f_mid < 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    if root is None:
        root = 0.5 * (lo + hi)
    # the recorded bracket is the refined one: it certifies the root to
    # the stated tolerance
    return ZeroResult(root, lo, hi, abs(f(root)), iterations)


def _scan(f: Callable[[float], float], lo: float, hi: float,
          grid: int) -> list:
    """Sign-change scan: returns refined ZeroResults in ascending order."""
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        raise DomainError(f"need a finite interval lo < hi, got [{lo!r}, {hi!r}]")
    if grid < 2:
        raise DomainError(f"grid must be >= 2, got {grid!r}")
    # np.linspace's grid, node for node, built without numpy
    step = (hi - lo) / (grid - 1)
    xs = [i * step + lo for i in range(grid - 1)] + [hi]
    fs = [f(x) for x in xs]
    found = []
    spacing = xs[1] - xs[0]
    for i, x in enumerate(xs):
        if fs[i] == 0.0:
            # grid node hit the zero exactly, either end included: bracket
            # it symmetrically; the intervals beside it show no sign change
            d = spacing * 1e-6
            flo, fhi = f(x - d), f(x + d)
            if flo * fhi < 0:
                found.append(_bisect(f, x - d, x + d, flo, fhi))
            else:
                found.append(ZeroResult(x, x - d, x + d, 0.0, 0))
        elif i + 1 < len(xs) and fs[i] * fs[i + 1] < 0:
            found.append(_bisect(f, x, xs[i + 1], fs[i], fs[i + 1]))
    return found


def charlier_zeros_in_order(n: int, a: float, lo: float, hi: float,
                            grid: int = 128) -> list:
    """Zeros of nu -> c_n^a(nu) in [lo, hi], ascending.

    Warns (never fails) when the scan covers the full positive range
    (0, a + 4 n sqrt(a)) but the count of positive zeros differs from n.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"need integer n >= 1, got {n!r}")
    n = int(n)
    results = _scan(lambda v: charlier_direct(n, a, v), lo, hi, grid)
    exhaustive_hi = a + 4.0 * n * math.sqrt(a)
    if lo <= 0.0 and hi >= exhaustive_hi:
        positive = sum(1 for z in results if z.root > 0)
        if positive != n:
            warnings.warn(
                f"found {positive} positive zeros of c_{n}^a, expected {n}; "
                f"grid={grid} may be too coarse",
                stacklevel=2,
            )
    return results


def hermite_zeros_in_order(x: float, lo: float, hi: float,
                           grid: int = 128) -> list:
    """Zeros of nu -> H_nu(x) in [lo, hi], ascending."""
    return _scan(lambda nu: hermite_fn(nu, x), lo, hi, grid)


def count_positive_zeros(n: int, a: float, max_grid: int = 1 << 16) -> int:
    """Exhaustive count of the positive zeros of nu -> c_n^a(nu).

    Scans (0, a + 4 n sqrt(a)] doubling the grid until the count is
    stable on two consecutive refinements and the spacing is at most a
    quarter of the smallest observed zero gap.
    """
    if n != int(n) or n < 1:
        raise DomainError(f"need integer n >= 1, got {n!r}")
    n = int(n)
    hi = a + 4.0 * n * math.sqrt(a)
    lo = 1e-12  # open at 0: zeros are strictly positive
    grid = max(16, 4 * n)
    prev = -1
    while grid <= max_grid:
        roots = [z.root for z in _scan(lambda v: charlier_direct(n, a, v),
                                       lo, hi, grid)]
        count = len(roots)
        spacing = (hi - lo) / (grid - 1)
        min_gap = min(s - r for r, s in zip(roots, roots[1:])) if count >= 2 else hi - lo
        if count == prev and spacing <= min_gap / 4.0:
            return count
        prev = count
        grid *= 2
    return prev


@dataclass(frozen=True)
class ZeroConvergenceRow:
    a: float
    n: int
    nu_n: float
    abs_err: float
    error: Optional[str] = None


def _nearest_hermite_zero(x: float, target_nu: float) -> float:
    hits = hermite_zeros_in_order(x, target_nu - 0.5, target_nu + 0.5, grid=64)
    if not hits:
        raise DomainError(
            f"no Hermite zero of H_.(x={x}) found within 0.5 of nu={target_nu}"
        )
    return min((z.root for z in hits), key=lambda r: abs(r - target_nu))


def _target_window(x: float, target: float) -> tuple:
    """Half the gap to the adjacent Hermite zeros on each side; a missing
    side mirrors the other one."""
    span = 4.0
    neighbors = [
        z.root
        for z in hermite_zeros_in_order(x, target - span, target + span, grid=400)
        if abs(z.root - target) > 1e-6
    ]
    below = [r for r in neighbors if r < target]
    above = [r for r in neighbors if r > target]
    gap_lo = target - max(below) if below else None
    gap_hi = min(above) - target if above else None
    if gap_lo is None and gap_hi is None:
        gap_lo = gap_hi = 2.0
    gap_lo = gap_lo if gap_lo is not None else gap_hi
    gap_hi = gap_hi if gap_hi is not None else gap_lo
    return target - 0.5 * gap_lo, target + 0.5 * gap_hi


def zero_convergence_table(x: float, target_nu: float, a_values,
                           grid: int = 64) -> list:
    """Charlier-zero error against one Hermite-zero target, per a.

    Rows keep going past per-a failures; a failed row carries its error
    message and NaN for the numeric fields.
    """
    target = _nearest_hermite_zero(x, target_nu)
    win_lo, win_hi = _target_window(x, target)
    rows = []
    for a in a_values:
        try:
            if not (math.isfinite(a) and a > 0):
                raise DomainError(f"a must be positive, got {a!r}")
            n = math.floor(a - x * math.sqrt(2.0 * a))
            if n < 1:
                raise DomainError(f"derived degree n={n} < 1 for a={a}, x={x}")
            hits = _scan(lambda v: charlier_direct(n, a, v), win_lo, win_hi, grid)
            if not hits:
                raise DomainError(
                    f"no Charlier zero in window [{win_lo:.6g}, {win_hi:.6g}] for a={a}"
                )
            root = min((z.root for z in hits), key=lambda r: abs(r - target))
            rows.append(ZeroConvergenceRow(float(a), n, root, abs(root - target)))
        except DomainError as exc:
            rows.append(ZeroConvergenceRow(float(a), -1, math.nan, math.nan, str(exc)))
    return rows
