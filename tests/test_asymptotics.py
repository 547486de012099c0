import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from charlier_hermite import (
    DomainError,
    SplitConfig,
    charlier_direct,
    f_nu,
    factor_p,
    factor_q,
    head_tail_split,
    hermite_fn,
    trapezoid_gamma_check,
    upper_incomplete_gamma,
)
from charlier_hermite import asymptotics, charlier
from charlier_hermite.asymptotics import _ceil_4th_root
from charlier_hermite.charlier import _scaled


def test_ceil_4th_root_exact():
    for r in (1, 2, 3, 10, 31, 1000, 56234):
        assert _ceil_4th_root(r ** 4) == r
        assert _ceil_4th_root(r ** 4 + 1) == r + 1
        if r > 1:
            assert _ceil_4th_root(r ** 4 - 1) == r


def test_split_config_at_large_a():
    # M = ceil(A^(3/4)) exactly, also where A^3 is past double range
    for a in (1e30, 1e102, 1e103, 1e300):
        cfg = SplitConfig(a, -5.0)
        assert cfg.M ** 4 >= cfg.A ** 3 > (cfg.M - 1) ** 4, a


def test_split_config_derivations():
    cfg = SplitConfig(a=1e4, nu=-4.0)
    assert (cfg.A, cfg.M) == (10000, 1000)  # 10000^(3/4) is exact
    assert cfg.dt == 1.0 / math.sqrt(10000.0)
    cfg = SplitConfig(a=100.0, nu=-4.0)
    assert (cfg.A, cfg.M) == (100, 32)  # ceil(31.62...)
    cfg = SplitConfig(a=10.7, nu=-5.0)
    assert (cfg.A, cfg.M) == (10, 6)  # ceil(5.623...)
    with pytest.raises(DomainError):
        SplitConfig(a=0.9, nu=-4.0)


def test_factor_p_values():
    assert factor_p(0, 500) == 1.0
    # log-space evaluation cancels two ~A log A terms, so the error
    # floor is lgamma(A+1)*eps, not eps
    assert math.isclose(factor_p(1, 500), 1.0, rel_tol=1e-11)
    A = 40
    want = math.exp(math.lgamma(A + 1.0) - A * math.log(A))
    assert math.isclose(factor_p(A, A), want, rel_tol=1e-12)
    # decreasing in k
    vals = [factor_p(k, 200) for k in range(0, 201, 20)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_factor_p_exponential_sandwich():
    # e^{-k^2/2A}(1 - k^3/A^2) <= p(k) <= e^{-k^2/2A}(1 + k/A) for k < A/2
    for A in (100, 1000, 20000):
        for k in range(1, A // 2, max(1, A // 40)):
            base = math.exp(-0.5 * k * k / A)
            p = factor_p(k, A)
            assert p <= base * (1.0 + k / A), (A, k)
            assert p >= base * (1.0 - k ** 3 / (A * A)), (A, k)


def test_factor_q_values():
    nu = -3.7
    assert math.isclose(factor_q(1, nu), math.gamma(1.0 - nu), rel_tol=1e-12)
    for k in (2, 10, 400):
        assert math.isclose(factor_q(k, -2.0), k + 1.0, rel_tol=1e-12)


def test_factor_q_power_law_with_true_constant():
    # q(k) k^{nu+1} = 1 + (nu(nu+1)/2)/k + O(1/k^2); the leading 1/k
    # coefficient plus margin 1 bounds the scaled deviation for k >= 100
    for nu in (-3.0, -4.5, -6.0):
        c_true = abs(nu * (nu + 1.0)) / 2.0
        for k in (100, 316, 1000, 10000):
            dev = abs(factor_q(k, nu) * k ** (nu + 1.0) - 1.0) * k
            assert dev <= c_true + 1.0, (nu, k, dev)


def test_f_nu_rules():
    assert f_nu(0.0, -3.0) == 0.0
    assert f_nu(0.0, -1.0) == 1.0
    with pytest.raises(DomainError):
        f_nu(0.0, -0.5)  # negative exponent pole
    with pytest.raises(DomainError):
        f_nu(-1.0, -3.0)
    assert math.isclose(f_nu(1.0, -2.0), math.exp(-0.5), rel_tol=1e-15)
    # argmax of t^2 e^{-t^2/2} sits at sqrt(2)
    ts = np.linspace(0.0, 4.0, 4001)
    vals = [f_nu(float(t), -3.0) for t in ts]
    assert abs(ts[int(np.argmax(vals))] - math.sqrt(2.0)) < 2e-3


def test_f_nu_past_the_power_range():
    # where t^{-nu-1} alone overflows, f_nu is exp of its logarithm: within
    # 1e-12 of mpmath where that is a double, 0.0 where it underflows and
    # DomainError where it overflows; elsewhere the value is unchanged
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 40
    cases = [(35.5, -200.5), (38.0, -200.5), (44.0, -200.5), (4.15, -500.0), (50.0, -500.0),
             (60.0, -500.0), (70.0, -500.0), (2.035, -1000.0), (90.0, -1000.0), (0.49205, 1000.0)]
    for t, nu in cases:
        with pytest.raises(OverflowError):
            t ** (-nu - 1.0)
        want = mp.mpf(t) ** (-mp.mpf(nu) - 1) * mp.exp(-mp.mpf(t) ** 2 / 2)
        assert abs(f_nu(t, nu) / want - 1) <= 1e-12, (t, nu)
    for t, nu in ((80.0, -500.0), (1e300, -3.0), (1e300, -1e300)):
        assert f_nu(t, nu) == 0.0
    for t, nu in ((3.0, -1000.0), (1e-300, 1e300), (0.3, 1000.0), (1e155, -1.7e308)):
        with pytest.raises(DomainError, match="outside double range"):
            f_nu(t, nu)
    for t, nu in ((2.0, -1000.0), (40.0, -3.0), (0.5, 1000.0)):
        assert f_nu(t, nu) == t ** (-nu - 1.0) * math.exp(-0.5 * t * t)


def test_trapezoid_single_node():
    dt = 0.125
    chk = trapezoid_gamma_check(-3.0, 4, 4, dt)
    assert chk.riemann_sum == f_nu(4 * dt, -3.0) * dt


def test_trapezoid_closed_form_is_the_antiderivative():
    # -d/dt [2^{-nu/2-1} Gamma(-nu/2, t^2/2)] = f_nu(t), checked at t=1
    nu = -4.0
    s = -0.5 * nu
    h = 1e-5
    fd = -(2.0 ** (s - 1.0)) * (
        upper_incomplete_gamma(s, 0.5 * (1.0 + h) ** 2)
        - upper_incomplete_gamma(s, 0.5 * (1.0 - h) ** 2)
    ) / (2.0 * h)
    assert math.isclose(fd, f_nu(1.0, nu), rel_tol=1e-8)


def test_trapezoid_error_bound_and_halving():
    A = 10 ** 4
    dt = 1.0 / math.sqrt(A)
    chk = trapezoid_gamma_check(-3.0, 1, A, dt)
    assert chk.abs_err <= 5.0 * dt
    half = trapezoid_gamma_check(-3.0, 1, A, dt / 2.0)
    assert half.abs_err <= 0.5 * chk.abs_err


def test_trapezoid_validation():
    for nu, dt in ((-1000.0, 0.1), (-1e300, 5e-324)):
        with pytest.raises(DomainError, match="outside double range"):
            trapezoid_gamma_check(nu, 1, 100, dt)
    with pytest.raises(DomainError):
        trapezoid_gamma_check(-2.0, 1, 10, 0.1)
    with pytest.raises(DomainError):
        trapezoid_gamma_check(-3.0, 5, 4, 0.1)
    with pytest.raises(DomainError):
        trapezoid_gamma_check(-3.0, 1, 10, 0.0)


def test_trapezoid_node_cap_precedes_any_f_nu_call(monkeypatch):
    # grids of 10^6 + 1 and about 10^12 nodes are refused before f_nu is
    # called; one of 10^6 nodes runs
    calls = []

    def counting(t, nu):
        calls.append(t)
        return 0.0

    monkeypatch.setattr(asymptotics, "f_nu", counting)
    for M, N in ((0, 10 ** 6), (7, 10 ** 12)):
        with pytest.raises(DomainError, match="more than 1000000"):
            trapezoid_gamma_check(-3.0, M, N, 1.0)
    assert calls == []
    trapezoid_gamma_check(-3.0, 5, 10 ** 6 + 4, 1e-3)
    assert len(calls) == 10 ** 6


def test_head_tail_split_reconstruction():
    for a, nu in ((1000.0, -4.0), (250.5, -5.5)):
        rep = head_tail_split(SplitConfig(a=a, nu=nu))
        assert math.isclose(rep.y0_reconstructed, rep.y0_direct, rel_tol=1e-9), (a, nu)
        assert math.isclose(rep.h_nu_0, hermite_fn(nu, 0.0), rel_tol=1e-13)
        # floor/ceiling disagree only off the integers
        if a == int(a):
            assert rep.y0_direct_ceiling is None
        else:
            assert rep.y0_direct_ceiling is not None


def test_head_tail_split_guard():
    with pytest.raises(DomainError):
        head_tail_split(SplitConfig(a=100.0, nu=-3.9))


def test_head_converges_to_hermite_and_tail_vanishes():
    nu = -4.0
    errs = []
    tails = []
    for a in (1e2, 1e3, 1e4):
        rep = head_tail_split(SplitConfig(a=a, nu=nu))
        errs.append(abs(rep.y0_reconstructed - rep.h_nu_0))
        tails.append(abs(rep.r_tail) * 2.0 ** (0.5 * nu) / math.gamma(-nu))
    assert errs[-1] < errs[0]
    # the tail is asymptotically negligible next to the total error
    assert all(t < e for t, e in zip(tails, errs))
    assert tails[-1] < 1e-10


def _exact_split_sums(a, nu, bits=1200):
    """Head and tail sums of the terms t_k of c_A^a(nu), split at M, as
    integers in units of 2^-bits.  Each step t_{k+1} = t_k (A-k)(k-nu)/((k+1)a)
    is done in integers from the exact binary values of a and nu and
    floored, so each term is off by at most k units: far below 1e-13 of
    either sum at the inputs tested.  The loop ends once a term floors
    to 0, since every later one does too."""
    cfg = SplitConfig(a, nu)
    fa, fnu = Fraction(a), Fraction(nu)
    t, sums = 1 << bits, [0, 0]
    for k in range(cfg.A + 1):
        if t == 0:
            break
        sums[k >= cfg.M] += t
        t = (t * (cfg.A - k) * (k * fnu.denominator - fnu.numerator) * fa.denominator
             // ((k + 1) * fnu.denominator * fa.numerator))
    return [Fraction(s, 1 << bits) for s in sums]


@pytest.mark.parametrize("a, nu", [(100.0, -4.0), (1000.5, -4.5), (1e4, -4.0),
                                   (2e4, -5.3), (1e5, -5.5), (1e6, -4.0)])
def test_head_tail_split_matches_exact_sums(a, nu):
    # T_k = a^{nu/2} Gamma(-nu) t_k and y_nu(0) = (2a)^{nu/2} sum t_k
    s_head, s_tail = _exact_split_sums(a, nu)
    c = math.gamma(-nu) * a ** (0.5 * nu)
    rep = head_tail_split(SplitConfig(a, nu))
    assert math.isclose(rep.r_head, c * float(s_head), rel_tol=1e-13)
    assert math.isclose(rep.r_tail, c * float(s_tail), rel_tol=1e-13)
    want = (2.0 * a) ** (0.5 * nu) * float(s_head + s_tail)
    assert math.isclose(rep.y0_reconstructed, want, rel_tol=1e-13)


def test_head_tail_split_at_large_negative_order():
    # Gamma(-nu) overflows at nu = -200 and 2^{nu/2}/Gamma(-nu) underflows
    # at nu = -171, but C = a^{nu/2} Gamma(-nu) and y_nu(0) are in range
    for nu, y0 in ((-200.0, 2.185e-178), (-171.0, 3.665e-149)):
        rep = head_tail_split(SplitConfig(100.0, nu))
        assert math.isclose(rep.y0_direct, y0, rel_tol=1e-3)
        assert math.isclose(rep.y0_reconstructed, rep.y0_direct, rel_tol=1e-12)
    with pytest.raises(DomainError, match="outside double range"):
        head_tail_split(SplitConfig(1e4, -1000.0))


def test_head_tail_split_work_is_bounded(arange_cap):
    # the terms stop about 38 sqrt(a) in, once below the smallest normal
    # double, and not at A = 1e9
    rep = head_tail_split(SplitConfig(1e9, -5.0))
    assert math.isclose(rep.y0_reconstructed, rep.y0_direct, rel_tol=1e-12)
    with pytest.raises(DomainError, match="more than 10000000 terms"):
        head_tail_split(SplitConfig(1e15, -5.0))


def test_head_tail_split_takes_y0_direct_from_its_rows(monkeypatch):
    # y0_direct is (2a)^{nu/2} charlier_direct(A, a, nu), bit for bit, summed
    # from the rows' own terms: charlier_direct runs only at the ceiling
    # degree of a non-integer a
    rng = np.random.default_rng(12)
    cases = [(1e8, -4.5), (1e9, -4.5), (1e9 + 0.5, -6.25), (1e4, -4.0), (48.5, -5.0),
             (49.0, -5.0), (2.0, -4.0), (100.0, -200.0), (1e4, -150.0)]
    cases += [(float(10.0 ** rng.uniform(0.0, 9.0)), float(rng.uniform(-40.0, -4.0)))
              for _ in range(12)]
    degrees = []

    def recorded(n, a, nu):
        degrees.append(n)
        return charlier_direct(n, a, nu)

    monkeypatch.setattr(charlier, "charlier_direct", recorded)
    for a, nu in cases:
        degrees.clear()
        rep = head_tail_split(SplitConfig(a, nu))
        assert degrees == ([] if a == math.floor(a) else [math.ceil(a)])
        want = _scaled(2.0 * a, 0.5 * nu, [charlier_direct(math.floor(a), a, nu)])[0]
        assert rep.y0_direct.hex() == want.hex(), (a, nu)


def _split_rows(A, a, nu):
    """t_0, ..., t_K of c_A^a(nu) from one cumprod, built in chunks: K is
    the first multiple of q = max(1024, int(4 sqrt(A))) with t_K below the
    smallest normal double, or A."""
    q = max(1024, int(4.0 * math.sqrt(A)))
    chunks, prev, start = [np.ones(1)], 1.0, 0
    while start < A:
        k = np.arange(start, min(start + (1 << 16), A), dtype=float)
        ratios = ((A - k) / (k + 1.0)) * ((k - nu) / a)
        ratios[0] *= prev
        chunks.append(np.cumprod(ratios))
        prev, start = chunks[-1][-1], start + len(k)
        terms = np.concatenate(chunks)
        below = np.flatnonzero(terms[q::q] < sys.float_info.min)
        if len(below):
            return terms[:(below[0] + 1) * q + 1].tolist()
    return terms.tolist()


def test_head_tail_split_sums_are_fsum_of_its_terms(monkeypatch):
    # r_head, r_tail and y0_reconstructed, bit for bit, from math.fsum over
    # one list of the split's terms cut at M, for head and tail sums on
    # both sides of charlier._EXTRACT_TERMS, under the block plan and under
    # one whose blocks end away from the rows' end; the last four have
    # tails near the subnormal range, whose last bits change with the terms
    # past the first subnormal one that the tail takes
    rng = np.random.default_rng(13)
    cases = [(1e6, -4.5), (1e9 + 0.5, -6.25), (1e4, -4.0), (600.0, -5.0), (2.0, -4.0),
             (100.0, -200.0), (1e4, -150.0)]
    cases += [(float(10.0 ** rng.uniform(0.0, 9.0)), float(rng.uniform(-40.0, -4.0)))
              for _ in range(12)]
    cases += [(2616320.3915432454, -26.950793479051363), (1525529.407156183, -8.671899691033104),
              (2101959.854017238, -4.582088240333221), (1990222.9370852066, -5.698747787477728)]
    summed, sum_ = [], charlier._sum

    def counting(blocks):
        summed.append(sum(map(len, blocks)))
        return sum_(blocks)

    monkeypatch.setattr(charlier, "_sum", counting)
    block_size = charlier._block_size
    for plan in (block_size, lambda n, a: (1000, 997)):
        monkeypatch.setattr(charlier, "_block_size", plan)
        for a, nu in cases:
            cfg = SplitConfig(a, nu)
            terms = _split_rows(cfg.A, a, nu)
            s_head, s_tail = math.fsum(terms[:cfg.M]), math.fsum(terms[cfg.M:])
            c = math.exp(0.5 * nu * math.log(a) + math.lgamma(-nu))
            want = (c * s_head, c * s_tail, _scaled(2.0 * a, 0.5 * nu, [s_head + s_tail])[0])
            del summed[:]
            rep = head_tail_split(cfg)
            got = (rep.r_head, rep.r_tail, rep.y0_reconstructed)
            assert [v.hex() for v in got] == [v.hex() for v in want], (a, nu)
            assert summed[1] + summed[2] == len(terms), (a, nu)  # c_A, then head and tail
