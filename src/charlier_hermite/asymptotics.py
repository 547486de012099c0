"""Term decomposition of the scaled Charlier value at x = 0.

With A = floor(a), the scaled value resums as

    y_nu(0) = (2^{nu/2} / Gamma(-nu)) * sum_{k=0}^{A} T_k,
    T_k = a^{nu/2} (Gamma(k-nu)/k!) (A! a^{-k} / (A-k)!),

and the sum splits at M = ceil(A^{3/4}) into a head that carries the
Hermite limit and a tail that decays superpolynomially.  The head terms
ride on two factors studied separately:

    p(k) = A! / ((A-k)! A^k)   ~ exp(-k^2 / 2A)
    q(k) = Gamma(k-nu) / k!    ~ k^{-nu-1} (1 + O(1/k))

and the Riemann sums they produce converge to incomplete-gamma integrals
of f_nu(t) = t^{-nu-1} exp(-t^2/2).
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from functools import partial

from .errors import _MAX_NODES, DomainError, _finite, _integer, _real, _text
from .hermite import hermite_fn
from .special import ln_gamma, upper_incomplete_gamma


def _ceil_4th_root(x: int) -> int:
    # smallest integer r >= 0 with r**4 >= x, exactly: isqrt(isqrt(x)) is
    # the floor of x^(1/4)
    r = math.isqrt(math.isqrt(x))
    return r + (r ** 4 < x)


class SplitConfig(namedtuple("SplitConfig", "a nu A M dt")):
    """Head/tail split parameters derived from (a, nu), built as SplitConfig(a, nu).

    A = floor(a), M = ceil(A^(3/4)) exactly (integer fourth root of
    A^3), dt = 1/sqrt(A).  Invariant: 1 <= M <= A.
    """

    __slots__ = ()

    def __new__(cls, a: float, nu: float):
        _real(a, "a", 1)  # only checked: A is the floor of a as given
        _real(nu, "nu")
        A = math.floor(a)
        M = _ceil_4th_root(A ** 3)
        assert 1 <= M <= A
        return super().__new__(cls, a, nu, A, M, 1.0 / math.sqrt(A))

    def __getnewargs__(self):  # copy and pickle rebuild from (a, nu)
        return self.a, self.nu


# Head/tail sums and the values they are checked against.  y0_direct_ceiling
# is set only when ceil(a) != floor(a): the module convention is A = floor(a),
# the sweep convention elsewhere is the ceiling, and both are reported when
# they disagree.
SplitReport = namedtuple("SplitReport", "r_head r_tail y0_reconstructed y0_direct h_nu_0 "
                         "y0_direct_ceiling", defaults=(None,))


def factor_p(k: int, A: int) -> float:
    """p(k) = A! / ((A-k)! A^k), in log space; DomainError where A or its
    log-gamma is outside double range."""
    A = _integer(A, "A", 1)
    k = _integer(k, "k", 0, A)
    # A + 1.0, or its log-gamma, can overflow
    return _finite(lambda: math.exp(math.lgamma(A + 1.0) - math.lgamma(A - k + 1.0)
                                    - k * math.log(A)),
                   "factor_p's log-gamma at A={}", _text(A))


def factor_q(k: int, nu: float) -> float:
    """q(k) = Gamma(k - nu) / k!, via log-gamma differences; DomainError
    where k or q(k) is outside double range."""
    k, nu = _integer(k, "k", 1), _real(nu, "nu")

    def q():  # k as a float, a log-gamma, or q(k) itself can overflow
        lg, sign = ln_gamma(k - nu)
        return sign * math.exp(lg - math.lgamma(k + 1.0))

    return _finite(q, "q(k) at k={}, nu={!r}", _text(k), nu)


def f_nu(t: float, nu: float) -> float:
    """f_nu(t) = t^{-nu-1} exp(-t^2/2) on t >= 0.

    At t = 0 the exponent -nu-1 decides: positive -> 0, zero -> 1,
    negative -> pole (domain error).  Where t^{-nu-1} alone leaves double
    range, the value is exp of its logarithm: 0.0 where that underflows,
    and DomainError where it overflows.
    """
    t, nu = _real(t, "t", 0), _real(nu, "nu")
    e = -nu - 1.0
    if t == 0.0:
        if e > 0:
            return 0.0
        if e == 0:
            return 1.0
        raise DomainError(f"f_nu has a pole at t = 0 for nu = {nu} (exponent {e} < 0)")
    try:
        return t ** e * math.exp(-0.5 * t * t)
    except OverflowError:  # t ** e alone is outside double range
        pass
    # ln f_nu = e ln t - t^2/2, written so that it is never inf - inf
    ln_t = math.log(t)
    return _finite(partial(math.exp, ln_t * (e - t * (0.5 * t / ln_t))),
                   "f_nu({!r}) at nu = {!r}", t, nu)


TrapezoidCheck = namedtuple("TrapezoidCheck", "riemann_sum closed_form abs_err")


def trapezoid_gamma_check(nu: float, M: int, N: int, dt: float) -> TrapezoidCheck:
    """Riemann sum of f_nu on the grid {M dt, ..., N dt} against the
    exact incomplete-gamma antiderivative:

        integral_{M dt}^{N dt} f_nu = 2^{-nu/2-1} [ Gamma(-nu/2, (M dt)^2/2)
                                                    - Gamma(-nu/2, (N dt)^2/2) ].

    DomainError where a sum, a bound or their difference is outside double
    range, and before any f_nu call where the grid has more than
    _MAX_NODES nodes.
    """
    nu = _real(nu, "nu", hi=-3)
    M = _integer(M, "M")
    N = _integer(N, "N", M)
    if N - M + 1 > _MAX_NODES:
        raise DomainError(f"the grid M..N has {N - M + 1} nodes, more than {_MAX_NODES}")
    dt = _real(dt, "dt", 0, strict=True)
    s = -0.5 * nu

    def values():  # fsum, 2^(-nu/2-1) and (N dt)^2 can overflow
        riemann = dt * math.fsum(f_nu(k * dt, nu) for k in range(M, N + 1))
        closed = 2.0 ** (-0.5 * nu - 1.0) * (
            upper_incomplete_gamma(s, 0.5 * (M * dt) ** 2)
            - upper_incomplete_gamma(s, 0.5 * (N * dt) ** 2)
        )
        return riemann, closed, abs(riemann - closed)

    return TrapezoidCheck(*_finite(values, "the trapezoid check at nu={!r}, dt={!r}", nu, dt))


def head_tail_split(cfg: SplitConfig) -> SplitReport:
    """Split sum_{k=0}^{A} T_k at M and reconstruct y_nu(0).

    Requires nu <= -4 (the head estimate needs it).  T_k = C t_k, with
    C = a^{nu/2} Gamma(-nu) and t_k the terms of c_A^a(nu), so the split
    sums the Charlier kernel's own terms and y_nu(0) = (2a)^{nu/2} sum t_k.
    For nu <= -4 the t_k are positive and unimodal from t_0 = 1; the rows
    are built block by block to t_K, K the first multiple of
    q = max(1024, int(4 sqrt(A))) (charlier._quarter_span) with t_K below
    the smallest normal double, or K = A, so the work is O(sqrt(a)) and
    not O(A).  The terms past the first one below it are subnormal: they
    carry fewer bits, fall ever more slowly as they round, and which of
    them the tail takes changes its last bits where the tail sum is itself
    near that range.
    K is where the rows ended while every block held q terms, and it does
    not depend on where the blocks break.  y0_direct sums the rows through
    the block with which charlier_direct's sum ends, and the rows go on at
    least that far, so it is charlier_direct(A) bit for bit without
    building them again.  All three sums are charlier._sum's, over the
    blocks as _blocks yields them, cut at M into head and tail slices.
    """
    if cfg.nu > -4:
        raise DomainError(f"head_tail_split requires nu <= -4, got {cfg.nu!r}")
    from .charlier import _blocks, _quarter_span, _scaled, _sum, charlier_direct
    A, M, a, nu = cfg.A, cfg.M, cfg.a, cfg.nu
    q = _quarter_span(A)
    blocks, c_A, K, start = [(1.0,)], None, A, 0
    for t, ends in _blocks(A, a, nu):
        blocks.append(t)
        if ends:
            c_A = _sum(blocks)
        if c_A is not None and K == A:
            for k in range(start - start % q + q, start + len(t) + 1, q):
                if t[k - start - 1] < sys.float_info.min:
                    K = k
                    break
            if not math.isfinite(t[-1]):
                K = min(K, start + len(t))
        start += len(t)
        if start >= K:
            break
    blocks[-1] = blocks[-1][:len(blocks[-1]) - (start - K)]
    head, tail, start = [], [], 0
    for t in blocks:  # terms[:M] and terms[M:], block by block
        cut = min(max(M - start, 0), len(t))
        head.append(t[:cut])
        tail.append(t[cut:])
        start += len(t)

    def sums():  # C = a^{nu/2} Gamma(-nu) can overflow
        c = math.exp(0.5 * nu * math.log(a) + math.lgamma(-nu))
        s_head, s_tail = _sum(head), _sum(tail)
        return c * s_head, c * s_tail, _scaled(2.0 * a, 0.5 * nu, [s_head + s_tail])[0]

    what = "head/tail split at a={!r}, nu={!r}"
    r_head, r_tail, y0_reconstructed = _finite(sums, what, a, nu)
    y0_direct = _finite(_scaled(2.0 * a, 0.5 * nu, [c_A])[0], what, a, nu)
    y0_ceiling = None
    if math.ceil(a) != A:
        y0_ceiling = _finite(_scaled(2.0 * a, 0.5 * nu, [charlier_direct(math.ceil(a), a, nu)])[0],
                             what, a, nu)
    return SplitReport(
        r_head=r_head,
        r_tail=r_tail,
        y0_reconstructed=y0_reconstructed,
        y0_direct=y0_direct,
        h_nu_0=hermite_fn(nu, 0.0),
        y0_direct_ceiling=y0_ceiling,
    )
