"""Euler polygons for the Hermite equation, and the Charlier trace.

The Hermite ODE y'' = 2x y' - 2 nu y, written first order with state
u = (y, y'), has system matrix

    A(x) = [[0, 1], [-2 nu, 2 x]].

The explicit Euler polygon with step dx is u_{k+1} = u_k + dx A(x_k) u_k.

A scaled Charlier value traces the same construction on the natural grid
dx = 1/r, r = sqrt(2a): node x_k carries degree m = ceil(a - x_k r) and
state

    z_k = ( r^nu c_m,  r^{nu+1} (c_m - c_{m+1}) ),

whose second component is the difference quotient toward the previous
node, (y(x_k) - y(x_{k-1}))/dx; at k = 0 that equals 2 nu y_{nu-1}(0)
exactly.  The deviation between the two traces decays like 1/sqrt(a).
The trace's degrees are consecutive, and c_m solves the degree
recurrence

    m c_{m-1} - (m + a - nu) c_m + a c_{m+1} = 0,

so charlier_direct sums only a few anchor degrees and the values between
two anchors solve a two-point boundary problem, the stable way to use a
three-term recurrence (Gautschi, SIAM Rev. 9, 1967).
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from typing import TYPE_CHECKING

from .charlier import _block_size, _scaled, charlier_direct
from .errors import _MAX_NODES, DomainError, _finite, _integer, _real

if TYPE_CHECKING:
    import numpy as np

# At most this many nodes between two anchors of the state trace.  On 112
# traces (a in {100, 1000.5, 1e4, 1e5}, nu in [-2.7, 3.9], x_max in
# {1, 2.5}, both directions) the worst of about 40 nodes each came to
# 0.07 of the oracle tolerance 8 eps (scale * weight + |value|).
_SPAN = 32
# A state trace refuses to sum anchors whose first blocks hold more terms
# than this in all: `polygon compare --nu 1 --x-max 1` took 8.2 s at
# a = 1e9 (7e8 terms) and 78 s at a = 1e10 (7.1e9 terms).
_MAX_TRACE_TERMS = 10 ** 10


class PolygonTrace(namedtuple("PolygonTrace", "xs states step")):
    """Node coordinates x_k = direction * k * step, shape (K+1,), and (y, y')
    states, shape (K+1, 2), all finite."""

    __slots__ = ()

    def __new__(cls, xs: np.ndarray, states: np.ndarray, step: float):
        if len(xs) == 0 or states.shape != (len(xs), 2):
            raise DomainError("PolygonTrace needs matching non-empty xs and states")
        import numpy as np
        if not (np.isfinite(xs).all() and np.isfinite(states).all()):
            raise DomainError("PolygonTrace needs finite xs and states")
        _real(step, "step", 0, strict=True)
        return super().__new__(cls, xs, states, step)


def system_matrix_norm_bound(x: float, nu: float) -> float:
    """sqrt(1 + 4 nu^2 + 4 x^2), an upper bound for ||A(x)||_2; DomainError
    where it is outside double range."""
    x, nu = _real(x, "x"), _real(nu, "nu")
    return _finite(math.sqrt(1.0 + 4.0 * nu * nu + 4.0 * x * x),
                   "||A(x)|| at x={!r}, nu={!r}", x, nu)


def _node_count(x_max: float, dx: float) -> int:
    dx = _real(dx, "dx", 0, strict=True)
    span = _real(x_max, "x_max", 0) / dx + 1e-12
    if span >= _MAX_NODES:
        raise DomainError(f"x_max/dx = {span:.6g} asks for more than {_MAX_NODES} nodes")
    return int(math.floor(span))


def _grid(x_max: float, dx: float, direction: int) -> list:
    """Nodes 0, h, h + h, ..., h = direction * dx, added up as np.cumsum adds."""
    steps = _node_count(x_max, dx)
    return list(itertools.accumulate(itertools.repeat(direction * dx, steps), initial=0.0))


def _polygon_trace(xs: list, y: list, dy: list, step: float) -> PolygonTrace:
    import numpy as np
    return PolygonTrace(np.array(xs), np.column_stack((y, dy)), step)


def euler_polygon(nu: float, init, x_max: float, dx: float,
                  direction: int = 1) -> PolygonTrace:
    """Explicit Euler from state `init` at x = 0, step dx, up to x_max.

    direction=-1 runs toward negative x (the signed step is -dx).  DomainError
    where a state is not finite.
    """
    return _polygon_trace(*_euler_rows(nu, init, x_max, dx, direction), dx)


def _euler_rows(nu: float, init, x_max: float, dx: float, direction: int = 1) -> tuple:
    """euler_polygon's nodes, y and y' as lists of floats."""
    nu, u, up = _real(nu, "nu"), _real(init[0], "init[0]"), _real(init[1], "init[1]")
    direction = _integer(direction, "direction", -1, 1, 2)
    xs, h, y, yp = _grid(x_max, dx, direction), direction * dx, [u], [up]
    # with init (0, 2) and nu = 1 this keeps y == 2x exactly
    for x in xs[:-1]:
        u, up = u + h * up, up + h * (-2.0 * nu * u + 2.0 * x * up)
        y.append(u)
        yp.append(up)
    # a state that is not finite stays so, as each y adds h y' to the last
    _finite((u, up), "the Euler polygon at nu={!r}", nu)
    return xs, y, yp


def charlier_state_trace(nu: float, a: float, x_max: float,
                         direction: int = 1) -> PolygonTrace:
    """Charlier z-trace on the natural grid dx = 1/sqrt(2a).

    charlier_direct sums c_m at a few anchor nodes, node 0 and the last
    among them, and the degree recurrence gives the values between them
    and at the degree before node 0 (see _node_values).  Node 0 and the
    last node carry charlier_direct's values bit for bit.  For direction=1,
    a must be large enough that every node keeps degree m >= 1.
    DomainError, before any sum, where the anchors' first blocks would hold
    more than _MAX_TRACE_TERMS terms in all.
    """
    return _polygon_trace(*_trace_rows(nu, a, x_max, direction))


def _trace_rows(nu: float, a: float, x_max: float, direction: int = 1) -> tuple:
    """charlier_state_trace's nodes, y and y' as lists of floats, and dx."""
    nu, a = _real(nu, "nu"), _real(a, "a", 0, strict=True)
    direction = _integer(direction, "direction", -1, 1, 2)
    r = math.sqrt(2.0 * a)
    dx = 1.0 / r
    xs = _grid(x_max, dx, direction)
    steps, top = len(xs) - 1, math.ceil(a)
    if direction == 1 and top - steps < 1:
        raise DomainError(
            f"a={a} too small for x_max={x_max}: degree would fall below 1"
        )
    # c_m at the degree before node 0 and at nodes 0 .. steps; the step
    # outward needs node 1 even where steps == 0
    c = _node_values(nu, a, top, direction, max(steps, 1))[:steps + 2]
    y = _scaled(r, nu, c[1:])
    # difference quotient toward the previous node, whose degree is
    # m + direction
    dy = _scaled(r, nu, [m - prev for prev, m in zip(c, c[1:])], direction * r)
    _finite(y + dy, "the state trace at a={!r}, nu={!r}", a, nu)
    return xs, y, dy, dx


def _node_values(nu: float, a: float, top: int, direction: int, last: int) -> list:
    """c_m at the degrees m = top - direction k of the nodes k = -1 .. last,
    as a list of floats; node -1 is the degree before node 0.

    charlier_direct gives the anchors: nodes 0 and last, and every span-th
    node between them.  The values between two anchors solve the degree
    recurrence as a tridiagonal system (Thomas) in floats, eliminated
    upward in degree, with each pivot d_m = a + s_m carried as s_m (dstqds
    form; Dhillon & Parlett, Linear Algebra Appl. 387, 2004): formed as
    (m + a - nu) - m h, it would lose nu's digits.  Node -1 is one step of
    the recurrence outward from nodes 0 and 1.

    For 0 < nu < a the recurrence oscillates, turning by at most
    theta = asin(sqrt(nu/a)) radians a degree, and a segment's system is
    singular where it turns by pi.  Anchors are therefore at most 2/theta
    nodes apart, as well as _SPAN, and every node is one where nu >= a.
    On 494 traces with a in [5, 2000] and nu in [0, 8], 2 radians kept
    every node within 0.07 of the oracle tolerance; 3 radians missed it
    17-fold at a = 12, nu = 5.6.  A pivot of exactly 0 raises DomainError,
    and charlier_state_trace refuses values that are not finite.
    """
    theta = math.asin(math.sqrt(min(1.0, max(nu, 0.0) / a)))
    span = int(2.0 / max(theta, 2.0 / _SPAN))
    anchors, first = 1 + -(-last // span), _block_size(top, a)[0]
    if anchors * first > _MAX_TRACE_TERMS:
        raise DomainError(f"the state trace at a={a!r} would sum {anchors} anchors of "
                          f"{first} terms each, more than {_MAX_TRACE_TERMS} terms")
    c = [charlier_direct(top, a, nu)]
    for k0 in range(0, last, span):
        k1 = min(k0 + span, last)
        # degrees lo .. hi, eliminated upward in degree: c_m = g_m + h_m c_{m+1}
        lo, c_lo, c_hi = ((top - k1, charlier_direct(top - k1, a, nu), c[-1]) if direction == 1
                          else (top + k0, c[-1], charlier_direct(top + k1, a, nu)))
        g, h, q = [c_lo], [], 1.0  # q = s_{m-1} / d_{m-1}
        try:
            for m in range(lo + 1, lo + k1 - k0):
                s = m * q - nu
                d = a + s
                q = s / d
                g.append(m * g[-1] / d)
                h.append(a / d)
        except ZeroDivisionError:
            raise DomainError(f"a zero pivot in the state trace at a={a!r}, nu={nu!r}") from None
        segment = [c_hi]  # degrees hi down to lo + 1
        for g_m, h_m in zip(g[:0:-1], h[::-1]):
            segment.append(g_m + h_m * segment[-1])
        c += segment[1:] + [c_lo] if direction == 1 else segment[::-1]
    lo, up = (a, top) if direction == 1 else (top, a)
    return [((top + a - nu) * c[0] - up * c[1]) / lo] + c


def trace_deviation(t1: PolygonTrace, t2: PolygonTrace) -> float:
    """Max Euclidean norm of the state difference over shared nodes.

    The node grids must be identical.  DomainError where the norm is outside
    double range.
    """
    if t1.step != t2.step or t1.xs.tolist() != t2.xs.tolist():
        raise DomainError("trace_deviation requires identical node grids")
    import numpy as np
    with np.errstate(over="ignore"):  # a difference past double range is refused below
        d0, d1 = (t1.states - t2.states).T.tolist()
    return _finite(max(map(math.hypot, d0, d1)), "the trace deviation")


def apriori_deviation_bound(x: float, dx: float, u0_norm: float,
                            init_err: float, xi: float, psi: float) -> float:
    """A-priori Euler bound at |x| <= xi:

        |u(x) - y(x)| <= init_err e^{Lx} + dx (C/L + M)(e^{Lx} - 1),

    with L = system_matrix_norm_bound(xi, psi), the Lipschitz constant of
    u -> A(x) u for |nu| <= psi and |x| <= xi, M = L u0_norm e^{L xi} the
    growth bound for |u'|, and C = 2 u0_norm e^{L xi} bounding the second
    difference.  Tests assert it dominates the observed deviation; the
    constant convention is not unique, so no equality is claimed.  DomainError
    where the bound is outside double range.
    """
    x, dx, u0_norm, init_err, xi, psi = map(_real, (x, dx, u0_norm, init_err, xi, psi),
                                            ("x", "dx", "u0_norm", "init_err", "xi", "psi"))
    L = system_matrix_norm_bound(xi, psi)

    def bound():  # math.exp can overflow
        growth, e_x = math.exp(L * xi), math.exp(L * x)
        m_bound, c_bound = L * u0_norm * growth, 2.0 * u0_norm * growth
        return init_err * e_x + dx * (c_bound / L + m_bound) * (e_x - 1.0)

    return _finite(bound, "the a-priori bound at x={!r}, xi={!r}, psi={!r}", x, xi, psi)
