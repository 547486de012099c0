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
The c_m of all the trace's degrees are summed together, their terms
built in shared blocks, and each is the double charlier_direct gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .charlier import _charlier_values, _scaled
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

_MAX_NODES = 1_000_000  # the row limit of plot fnu, checked before allocating


@dataclass(frozen=True)
class PolygonTrace:
    """Node coordinates x_k = direction * k * step and (y, y') states."""

    xs: np.ndarray      # shape (K+1,)
    states: np.ndarray  # shape (K+1, 2)
    step: float

    def __post_init__(self):
        if len(self.xs) == 0 or self.states.shape != (len(self.xs), 2):
            raise DomainError("PolygonTrace needs matching non-empty xs and states")
        if not (math.isfinite(self.step) and self.step > 0):
            raise DomainError(f"step must be positive, got {self.step!r}")


def system_matrix_norm_bound(x: float, nu: float) -> float:
    """sqrt(1 + 4 nu^2 + 4 x^2), an upper bound for ||A(x)||_2."""
    return math.sqrt(1.0 + 4.0 * nu * nu + 4.0 * x * x)


def _node_count(x_max: float, dx: float) -> int:
    if not (math.isfinite(dx) and dx > 0):
        raise DomainError(f"dx must be positive, got {dx!r}")
    if not (math.isfinite(x_max) and x_max >= 0):
        raise DomainError(f"x_max must be >= 0, got {x_max!r}")
    span = x_max / dx + 1e-12
    if span >= _MAX_NODES:
        raise DomainError(f"x_max/dx = {span:.6g} asks for more than {_MAX_NODES} nodes")
    return int(math.floor(span))


def euler_polygon(nu: float, init, x_max: float, dx: float,
                  direction: int = 1) -> PolygonTrace:
    """Explicit Euler from state `init` at x = 0, step dx, up to x_max.

    direction=-1 runs toward negative x (the signed step is -dx).
    """
    if direction not in (1, -1):
        raise DomainError(f"direction must be +1 or -1, got {direction!r}")
    y, yp = float(init[0]), float(init[1])
    steps = _node_count(x_max, dx)
    import numpy as np
    h = direction * dx
    xs = np.empty(steps + 1)
    states = np.empty((steps + 1, 2))
    # x accumulates by +h so that node values and state updates see the
    # same grid; with init (0, 2) and nu = 1 this keeps y == 2x exactly
    x = 0.0
    for k in range(steps + 1):
        xs[k] = x
        states[k, 0] = y
        states[k, 1] = yp
        if k < steps:
            y, yp = y + h * yp, yp + h * (-2.0 * nu * y + 2.0 * x * yp)
            x += h
    return PolygonTrace(xs, states, dx)


def charlier_state_trace(nu: float, a: float, x_max: float,
                         direction: int = 1) -> PolygonTrace:
    """Charlier z-trace on the natural grid dx = 1/sqrt(2a).

    The steps + 2 consecutive degrees are summed together by the Charlier
    kernel, a chunk of degrees per block of terms, and each c_m is the
    value charlier_direct(m, a, nu) returns.  For direction=1, a must be
    large enough that every node keeps degree m >= 1.
    """
    if direction not in (1, -1):
        raise DomainError(f"direction must be +1 or -1, got {direction!r}")
    if not (math.isfinite(a) and a > 0):
        raise DomainError(f"a must be positive, got {a!r}")
    r = math.sqrt(2.0 * a)
    dx = 1.0 / r
    steps = _node_count(x_max, dx)
    top = math.ceil(a)
    if direction == 1 and top - steps < 1:
        raise DomainError(
            f"a={a} too small for x_max={x_max}: degree would fall below 1"
        )
    # c_m at every node's degree top - direction*k and at top + direction,
    # the degree of the node before x = 0; asked for in the order the
    # nodes use them, top first, so that an error names the same degree
    c = _charlier_values([top, top + direction]
                         + [top - direction * k for k in range(1, steps + 1)], a, nu)
    c[0], c[1] = c[1], c[0]
    import numpy as np
    c = np.array(c)
    # x accumulates by +h from 0, as in euler_polygon
    xs = np.full(steps + 1, direction * dx)
    xs[0] = 0.0
    np.cumsum(xs, out=xs)
    states = np.empty((steps + 1, 2))
    states[:, 0] = _scaled(r, nu, c[1:])
    # difference quotient toward the previous node, whose degree is
    # m + direction
    states[:, 1] = _scaled(r, nu, c[1:] - c[:-1], direction * r)
    if not np.isfinite(states).all():
        raise DomainError(f"the state trace at a={a!r}, nu={nu!r} is outside double range")
    return PolygonTrace(xs, states, dx)


def trace_deviation(t1: PolygonTrace, t2: PolygonTrace) -> float:
    """Max Euclidean norm of the state difference over shared nodes.

    The node grids must be identical.
    """
    import numpy as np
    if len(t1.xs) != len(t2.xs) or t1.step != t2.step or not np.array_equal(t1.xs, t2.xs):
        raise DomainError("trace_deviation requires identical node grids")
    return float(np.max(np.linalg.norm(t1.states - t2.states, axis=1)))


def apriori_deviation_bound(x: float, dx: float, u0_norm: float,
                            init_err: float, xi: float, psi: float) -> float:
    """A-priori Euler bound at |x| <= xi:

        |u(x) - y(x)| <= init_err e^{Lx} + dx (C/L + M)(e^{Lx} - 1),

    with L = system_matrix_norm_bound(xi, psi), the Lipschitz constant of
    u -> A(x) u for |nu| <= psi and |x| <= xi, M = L u0_norm e^{L xi} the
    growth bound for |u'|, and C = 2 u0_norm e^{L xi} bounding the second
    difference.  Tests assert it dominates the observed deviation; the
    constant convention is not unique, so no equality is claimed.
    """
    L = system_matrix_norm_bound(xi, psi)
    m_bound = L * u0_norm * math.exp(L * xi)
    c_bound = 2.0 * u0_norm * math.exp(L * xi)
    return init_err * math.exp(L * x) + dx * (c_bound / L + m_bound) * (
        math.exp(L * x) - 1.0
    )
