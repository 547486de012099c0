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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charlier import charlier_direct
from .errors import DomainError


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


def system_matrix(x: float, nu: float) -> np.ndarray:
    """A(x) = [[0, 1], [-2 nu, 2 x]]."""
    return np.array([[0.0, 1.0], [-2.0 * nu, 2.0 * x]])


def system_matrix_norm_bound(x: float, nu: float) -> float:
    """sqrt(1 + 4 nu^2 + 4 x^2), an upper bound for ||A(x)||_2."""
    return math.sqrt(1.0 + 4.0 * nu * nu + 4.0 * x * x)


def _node_count(x_max: float, dx: float) -> int:
    if not (math.isfinite(dx) and dx > 0):
        raise DomainError(f"dx must be positive, got {dx!r}")
    if not (math.isfinite(x_max) and x_max >= 0):
        raise DomainError(f"x_max must be >= 0, got {x_max!r}")
    return int(math.floor(x_max / dx + 1e-12))


def euler_polygon(nu: float, init, x_max: float, dx: float,
                  direction: int = 1) -> PolygonTrace:
    """Explicit Euler from state `init` at x = 0, step dx, up to x_max.

    direction=-1 runs toward negative x (the signed step is -dx).
    """
    if direction not in (1, -1):
        raise DomainError(f"direction must be +1 or -1, got {direction!r}")
    y, yp = float(init[0]), float(init[1])
    steps = _node_count(x_max, dx)
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

    Built from charlier_direct evaluations at consecutive degrees; a
    must be large enough that every node keeps degree m >= 1.
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
    cache = {}

    def c(m: int) -> float:
        if m not in cache:
            cache[m] = charlier_direct(m, a, nu)
        return cache[m]

    scale = r ** nu
    xs = np.empty(steps + 1)
    states = np.empty((steps + 1, 2))
    h = direction * dx
    x = 0.0
    for k in range(steps + 1):
        m = top - direction * k
        xs[k] = x
        x += h
        states[k, 0] = scale * c(m)
        # difference quotient toward the previous node; the previous
        # node's degree is m + direction
        states[k, 1] = direction * scale * r * (c(m) - c(m + direction))
    return PolygonTrace(xs, states, dx)


def trace_deviation(t1: PolygonTrace, t2: PolygonTrace) -> float:
    """Max Euclidean norm of the state difference over shared nodes.

    The node grids must be identical.
    """
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
