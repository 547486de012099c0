import contextlib
import functools
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from charlier_hermite import (
    DomainError,
    ScaledPoint,
    SharpnessResult,
    admissible_sharpness_pairs,
    charlier_backward_step,
    charlier_direct,
    charlier_order_shift,
    scaled_y,
    sharpness_check,
)
from charlier_hermite import charlier

# mpmath (50 digits) oracle for the float path, frozen to 17 digits
CHARLIER_ORACLE = [
    # (n, a, nu, c_n^a(nu))
    (137, 250.0, 0.37, 0.74633363024552423),
    (50, 60.0, -2.5, 35.047893449341387),
    (1000, 1000.0, 1.5, -0.0033942591092128357),
    (12, 3.5, 4.25, 8.3088483926147738),
]


def test_closed_forms():
    assert charlier_direct(0, 5.0, 3.3) == 1.0
    for n in (1, 2, 7, 40):
        assert charlier_direct(n, 2.5, 0.0) == 1.0
    # n=1 is the linear seed 1 - nu/a
    assert math.isclose(charlier_direct(1, 4.0, 1.3), 1.0 - 1.3 / 4.0, rel_tol=1e-15)
    assert charlier_direct(2, 2.0, 2.0) == -0.5
    # c_n^a(1) = 1 - n/a cancels to exactly 0 at n = a, past the n <= 48 loop
    assert charlier_direct(1000, 1000.0, 1.0) == 0.0


def test_float_path_against_oracle():
    for n, a, nu, want in CHARLIER_ORACLE:
        got = charlier_direct(n, a, nu)
        assert math.isclose(got, want, rel_tol=5e-13), (n, a, nu, got)


def test_rational_mode_is_exact():
    assert charlier_direct(2, 2, 2, mode="rational") == Fraction(-1, 2)
    # c_2^a(x) = 1 - (1+2a)x/a^2 + x^2/a^2
    a = Fraction(7, 2)
    x = Fraction(5, 3)
    want = 1 - (1 + 2 * a) * x / a ** 2 + x ** 2 / a ** 2
    assert charlier_direct(2, a, x, mode="rational") == want


def test_rational_mode_input_handling():
    # binary floats enter at their exact value; 2.5 and 0.5 are exact
    assert charlier_direct(1, 2.5, 0.5, mode="rational") == 1 - Fraction(1, 5)
    # decimal and p/q strings go through Fraction unchanged
    assert charlier_direct(1, "5/2", "0.5", mode="rational") == Fraction(4, 5)
    with pytest.raises(DomainError, match="^a='not-a-number' is not an exact rational$"):
        charlier_direct(2, "not-a-number", 1, mode="rational")
    with pytest.raises(DomainError):
        charlier_direct(2, Fraction(-1, 2), 1, mode="rational")


def test_unknown_mode_is_refused():
    # a mode is "float" or "rational", and no other name falls through to either path
    with pytest.raises(DomainError, match="^unknown mode 'exact'$"):
        charlier_direct(5, 2.0, 1.5, mode="exact")
    with pytest.raises(DomainError, match="^unknown mode 'exact'$"):
        scaled_y(ScaledPoint(0.5, 100.0), 1.5, mode="exact")


def test_float_vs_rational_cross_validation():
    # compensated summation promises |float - exact| = O(eps) * sum|t_k|
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(1, 31))
        a = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 8)))
        nu = Fraction(int(rng.integers(-30, 30)), int(rng.integers(1, 8)))
        exact = charlier_direct(n, a, nu, mode="rational")
        approx = charlier_direct(n, float(a), float(nu))
        term = Fraction(1)
        magnitude = Fraction(1)
        for k in range(n):
            term *= Fraction(n - k, k + 1) * (k - nu) / a
            magnitude += abs(term)
        assert abs(approx - float(exact)) <= 1e-13 * float(magnitude), (n, a, nu)


def test_degree_validation():
    with pytest.raises(DomainError):
        charlier_direct(-1, 2.0, 1.0)
    with pytest.raises(DomainError):
        charlier_direct(2, 0.0, 1.0)
    with pytest.raises(DomainError):
        charlier_direct(2, -3.0, 1.0)


def test_degree_recurrence_residual():
    # a c_{n+1} - (n + a) c_n + n c_{n-1} + nu c_n = 0
    rng = np.random.default_rng(23)
    for _ in range(500):
        n = int(rng.integers(1, 25))
        a = float(rng.uniform(0.5, 20.0))
        nu = float(rng.uniform(-8.0, 8.0))
        cm, c0, cp = (charlier_direct(m, a, nu) for m in (n - 1, n, n + 1))
        residual = a * cp - (n + a) * c0 + n * cm + nu * c0
        scale = max(1.0, abs(a * cp), abs((n + a) * c0), abs(n * cm))
        assert abs(residual) <= 1e-12 * scale, (n, a, nu)


def test_order_shift_matches_direct():
    # exact seed case: inputs at nu = 1 produce c(2)
    got = charlier_order_shift(2, 2.0, 1.0,
                               charlier_direct(2, 2.0, 1.0),
                               charlier_direct(2, 2.0, 0.0))
    assert math.isclose(got, -0.5, rel_tol=1e-13)
    # nu = 0: the nu/a coefficient vanishes
    assert charlier_order_shift(3, 5.0, 0.0, 1.0, charlier_direct(3, 5.0, -1.0)) == 1.0 - 3.0 / 5.0
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(0, 20))
        a = float(rng.uniform(0.5, 15.0))
        nu = float(rng.uniform(-6.0, 6.0))
        got = charlier_order_shift(n, a, nu,
                                   charlier_direct(n, a, nu),
                                   charlier_direct(n, a, nu - 1.0))
        want = charlier_direct(n, a, nu + 1.0)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-11), (n, a, nu)


def test_backward_step_matches_direct():
    # x = a, n = 1: c_0(x) - c_1(x) = x/a = 1, so the step returns c_0(x-1) = 1
    assert charlier_backward_step(1, 3.0, 3.0, 1.0, charlier_direct(1, 3.0, 3.0)) == 1.0
    got = charlier_backward_step(2, 2.0, 3.0,
                                 charlier_direct(1, 2.0, 3.0),
                                 charlier_direct(2, 2.0, 3.0))
    assert abs(got - charlier_direct(1, 2.0, 2.0)) < 1e-13
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(1, 18))
        a = float(rng.uniform(0.5, 12.0))
        x = float(rng.uniform(0.3, 10.0))
        got = charlier_backward_step(n, a, x,
                                     charlier_direct(n - 1, a, x),
                                     charlier_direct(n, a, x))
        want = charlier_direct(n - 1, a, x - 1.0)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-11), (n, a, x)


def test_backward_step_degenerate_x():
    # only x = 0 divides by zero; a tiny x is a step like any other, refused only where
    # its result leaves double range
    for x in (0.0, -0.0):
        with pytest.raises(DomainError, match=rf"^backward step degenerate at x={x!r}; "
                                              "evaluate directly instead$"):
            charlier_backward_step(2, 2.0, x, 1.0, 1.0)
    with pytest.raises(DomainError, match="is outside double range"):
        charlier_backward_step(2, 2.0, 1e-320, 1.0, 1.0)
    got = charlier_backward_step(2, 2.0, 1e-301, 1.0, 1.0 - 2.0 ** -30)
    assert got == (2.0 / 1e-301) * 2.0 ** -30


def test_scaled_point_ceiling_and_theta():
    p = ScaledPoint(x=0.5, a=2.0)
    assert (p.n, p.theta) == (1, 0.0)
    p = ScaledPoint(x=1.0, a=8.0)
    assert (p.n, p.theta) == (4, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(300):
        # keep a - x sqrt(2a) >= 0 so the derived degree is valid
        a = float(rng.uniform(6.0, 500.0))
        x = float(rng.uniform(-2.0, 2.0))
        p = ScaledPoint(x=x, a=a)
        s = a - x * math.sqrt(2.0 * a)
        assert p.n == math.ceil(s)
        assert 0.0 <= p.theta < 1.0
    with pytest.raises(DomainError):
        ScaledPoint(x=0.5, a=0.0)
    with pytest.raises(DomainError):
        ScaledPoint(x=10.0, a=1.0)  # degree would be negative


def test_scaled_y_float():
    assert scaled_y(ScaledPoint(x=0.3, a=7.0), 0.0) == 1.0
    # x=0.5, a=2 -> n=1, y = (2a)^1 c_1^2(2) = 4 (1 - 2/2) = 0
    assert scaled_y(ScaledPoint(x=0.5, a=2.0), 2.0) == 0.0
    # x=1, a=8 -> n=4, theta=0, y = 4 (1 - 4/8) = 2 = H_1(1)
    assert math.isclose(scaled_y(ScaledPoint(x=1.0, a=8.0), 1.0), 2.0, rel_tol=1e-13)


def test_float_results_outside_double_range_raise():
    # an inf - inf among the terms, terms that are all infinite, and a scale
    # (2a)^(nu/2) = 2000^200 past the float range
    with pytest.raises(DomainError, match="outside double range"):
        charlier_direct(200, 10.0, 500.5)
    with pytest.raises(DomainError, match="outside double range"):
        charlier_direct(400, 1.0, -300.5)
    with pytest.raises(DomainError, match="outside double range"):
        scaled_y(ScaledPoint(x=0.0, a=1000.0), 400.0)


def test_zero_value_under_an_overflowing_scale_is_zero():
    # (2a)^(nu/2) = 600^150 overflows, but c_1^300(300) = 1 - nu/a is exactly 0,
    # as rational mode agrees; a nonzero value under it is still refused
    a = 300.0
    point = ScaledPoint((a - 1.0) / math.sqrt(2.0 * a), a)
    assert point.n == 1 and charlier_direct(1, a, 300.0) == 0.0
    assert scaled_y(point, 300.0).hex() == (0.0).hex()
    assert scaled_y(point, 300, mode="rational") == 0
    with pytest.raises(DomainError, match="outside double range"):
        scaled_y(point, 299.0)
    # the zero keeps its sign and the factor's, as under a finite scale
    assert [v.hex() for v in charlier._scaled(600.0, 150.0, [0.0, -0.0], -2.0)] == [
        (-0.0).hex(), (0.0).hex()]
    assert charlier._scaled(600.0, 150.0, [1e-300], -2.0) == [-math.inf]


def _full_sum(n, a, nu):
    """c_n^a(nu) from all n + 1 terms of one cumprod, as the float path
    summed before it stopped at a certified tail.  The exact zeros left by
    underflow are dropped; they cannot change fsum's exactly rounded sum."""
    k = np.arange(n, dtype=float)
    ratios = ((n - k) / (k + 1.0)) * ((k - nu) / a)
    terms = np.empty(n + 1)
    terms[0] = 1.0
    np.cumprod(ratios, out=terms[1:])
    return math.fsum(terms[terms != 0].tolist())


def test_truncated_sum_matches_full_sum():
    # n <= 64 covers the Python loop and the numpy path on both sides of
    # their threshold.  n > 1024 makes the sum run in blocks and stop at
    # the certified tail: every fifth nu there is an integer, and every
    # tenth a lies in [2e4, 2e5], where nu > 0 cancels most and a dropped
    # tail would first flip a last bit.
    rng = np.random.default_rng(160)
    cases = [(int(rng.integers(1, 65)), float(rng.uniform(0.5, 80.0)),
              float(rng.uniform(-9.0, 9.0))) for _ in range(400)]
    for i in range(2000):
        x = float(rng.uniform(-3.0, 3.0))
        nu = float(rng.integers(-9, 10)) if i % 5 == 0 else float(rng.uniform(-9.0, 9.0))
        a = float(10.0 ** (rng.uniform(4.3, 5.3) if i % 10 == 0 else rng.uniform(3.2, 4.3)))
        n = ScaledPoint(x, a).n
        assert n > 1024, (n, a, x)
        cases.append((n, a, nu))
    diffs = [(n, a, nu) for n, a, nu in cases if charlier_direct(n, a, nu) != _full_sum(n, a, nu)]
    assert not diffs, diffs[:5]


def _series_sum(n, a, nu, chunk=1 << 16):
    """_full_sum built in chunks of one cumprod each, stopped once a term is
    exactly 0 (every later one is too): inf where a term or the sum is
    outside double range, and None where more than _MAX_TERMS terms are
    left nonzero."""
    terms, prev, start = [1.0], 1.0, 0
    while start < n and prev != 0:
        if start >= charlier._MAX_TERMS:
            return None
        k = np.arange(start, min(start + chunk, n), dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            ratios = ((n - k) / (k + 1.0)) * ((k - nu) / a)
            ratios[0] *= prev
            t = np.cumprod(ratios)
        if not np.isfinite(t).all():
            return math.inf
        terms += t[t != 0].tolist()
        prev, start = float(t[-1]), start + len(t)
    try:
        return math.fsum(terms)
    except OverflowError:
        return math.inf


def _assert_is_series_sum(n, a, nu):
    """charlier_direct(n, a, nu) is _series_sum's double, bit for bit, or
    the DomainError that stands for its inf or None."""
    want = _series_sum(n, a, nu)
    if want is None:
        with pytest.raises(DomainError, match="needs more than"):
            charlier_direct(n, a, nu)
    elif not math.isfinite(want):
        with pytest.raises(DomainError, match="outside double range"):
            charlier_direct(n, a, nu)
    else:
        assert charlier_direct(n, a, nu).hex() == want.hex(), (n, a, nu)


@pytest.mark.parametrize("ns, a, nu", [
    # degree 0, the n <= 48 loop's degrees and numpy's
    ([0, 1, 5, 48, 49, 50, 200], 0.7, 2.3),
    # one block against two: 1024 terms fit in the first block, 1025 do not;
    # 511 terms are left to fsum, 512 and 513 are extracted
    ([0, 3, 48, 510, 511, 512] + list(range(1015, 1035)), 1000.5, -3.7),
    (list(range(1035, 1010, -1)), 1000.5, 0.37),
    (list(range(990, 1060, 3)), 1024.0, 4.5),
    ([5000 + (37 * i) % 101 - 50 for i in range(0, 101, 5)], 5000.25, -1.2),
    # block sizes 1024 up to 1058 at a > 65536
    (list(range(65400, 65700, 37)) + list(range(69990, 70011, 4)) + [70500], 70000.5, 1.5),
    # degrees whose terms overflow, and one refused at the term cap
    ([0, 10, 40, 60, 100, 150, 300], 0.5, 300.5),
    ([0, 5, 49, 10 ** 7, 10 ** 15, 3], 1e15, -5.0),
])
def test_one_degree_sums_are_the_series_sum(ns, a, nu):
    for n in ns:
        _assert_is_series_sum(n, a, nu)


def test_one_degree_sums_are_the_series_sum_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.floats(0.5, 3000.0), st.floats(-9.0, 9.0), st.integers(0, 3200))
    def check(a, nu, n):
        _assert_is_series_sum(n, a, nu)

    check()


def test_every_block_size_gives_the_series_sum(recorded):
    # at a = 70000.5 the first block grows with the degree, from 4143 to
    # 4297 terms over n in [65000, 70000], and past n = 65536 each later
    # block from 1024 to 1058: the two degrees at each change of the later
    # size, for nu above and below 0, whose sums end in the first block,
    # and the first degree of each plan at nu = -60.5, where some go on
    # into a later block
    plans = {}
    for n in range(65000, 70001):
        plans.setdefault(charlier._block_size(n, 70000.5), []).append(n)
    assert {first for first, _ in plans} == set(range(4143, 4298))
    assert {later for _, later in plans} == set(range(1024, 1059))
    laters = {}
    for (_, later), degrees in plans.items():
        laters.setdefault(later, []).extend(degrees)
    ns = [n for later, degrees in laters.items() if later > 1024 for n in (min(degrees) - 1, min(degrees))]
    blocks = recorded(charlier, "_term_block")
    for nu, degrees in ((1.5, ns), (-0.4, ns), (-60.5, [d[0] for d in plans.values()])):
        del blocks[:]
        for n in degrees:
            _assert_is_series_sum(n, 70000.5, nu)
        assert len(blocks) - len(degrees) > (30 if nu < -1.0 else -1), nu
    # a later block ends at the next multiple of its size, as when all
    # blocks were that size
    assert [len(t) for t, _ in charlier._blocks(70000, 70000.5, -60.5)][:4] == [4297, 993, 1058, 1058]


def test_block_plan_does_not_change_values(monkeypatch):
    # charlier_direct and every SplitReport field, by hex or as the same
    # error, under the block plan, blocks of 1024 and odd plans: the sum
    # ends at a block end and the split's rows at a multiple of their own
    # quarter span, wherever the blocks break.  The last four splits have
    # tails near the subnormal range, where the rows' end shows.
    from charlier_hermite import SplitConfig, head_tail_split
    rng = np.random.default_rng(1501)
    sums = []
    for i in range(60):
        a = float(10.0 ** rng.uniform(2.0, 6.0))
        nu = float(rng.integers(-12, 13)) if i % 5 == 0 else float(rng.uniform(-12.0, 12.0))
        sums.append((ScaledPoint(float(rng.uniform(-3.0, 3.0)), a).n, a, nu))
    sums += [(200, 10.0, 500.5), (21588801, 2.4240694582953287e+299, 3e15)]
    splits = [(float(10.0 ** rng.uniform(0.0, 6.5)), float(rng.uniform(-60.0, -4.0)))
              for _ in range(16)]
    splits += [(1000.5, -4.5), (2616320.3915432454, -26.950793479051363),
               (1525529.407156183, -8.671899691033104), (2101959.854017238, -4.582088240333221),
               (1990222.9370852066, -5.698747787477728)]

    def outcomes():
        got = []
        for f, args in [(charlier_direct, s) for s in sums] + [(head_tail_split, (SplitConfig(*c),))
                                                              for c in splits]:
            try:
                value = f(*args)
                got.append([float(v).hex() if v is not None else None
                            for v in (value if f is head_tail_split else [value])])
            except DomainError as exc:
                got.append(str(exc))
        return got

    want = outcomes()
    block_size = charlier._block_size
    for plan in ((1024, 1024), (37, 1001), (5000, 63), (65537, 4097)):
        monkeypatch.setattr(charlier, "_block_size", lambda n, a, p=plan: p)
        assert outcomes() == want, plan
    assert block_size(10 ** 6, 1e6) == (16064, 4000)


def test_sum_ends_at_the_first_block_end_past_the_certified_term(monkeypatch):
    # at a = 1e6 the sum takes whole blocks, up to the end of the first
    # block at or past the first term at which the tail test, checked term
    # by term, holds: 10,800 to 16,500 terms, in the first block of 16,064
    # or (at x = -0.8) the second
    summed, sum_ = [], charlier._sum

    def counting(blocks):
        summed.append(sum(map(len, blocks)) - 1)  # the last k of the t_k summed
        return sum_(blocks)

    monkeypatch.setattr(charlier, "_sum", counting)
    for x, nu in ((0.3, 1.7), (-0.8, -2.3), (1.0, 3.5), (0.0, -0.5)):
        n, a = ScaledPoint(x, 1e6).n, 1e6
        k = np.arange(40000, dtype=float)  # t_1 .. t_40000
        t = np.cumprod(((n - k) / (k + 1.0)) * ((k - nu) / a))
        k += 1.0
        rho = np.where(k > nu, ((n - k) / a) * np.maximum(1.0, (k - nu) / (k + 1.0)),
                       ((n - k) / (k + 1.0)) * (np.maximum(nu - k, abs(n - nu)) / a))
        largest = np.maximum.accumulate(np.maximum(np.abs(t), 1.0))
        holds = (rho < 1.0) & (np.abs(t) * rho <= charlier._TAIL_FRACTION * largest * (1.0 - rho))
        certified = int(np.argmax(holds)) + 1
        first, later = charlier._block_size(n, a)
        ends = [first, first - first % later + later]  # of the first two blocks
        del summed[:]
        charlier_direct(n, a, nu)
        assert 10000 < certified <= summed[0], (x, nu, certified)
        assert summed[0] == min(e for e in ends if e >= certified), (x, nu, certified)
        assert (summed[0] == ends[1]) == (x == -0.8), (x, nu, certified)


def test_zero_terms_end_the_sum_after_one_block(recorded):
    # every term past t_1 underflows to 0 and nu > the last degree of the
    # block, where the k > nu bound does not hold; the later-ratio bound
    # ends the sum after its first block, not at the term cap
    blocks = recorded(charlier, "_term_block")
    assert charlier_direct(21588801, 2.4240694582953287e+299, 3820163676922730.0) == 1.0
    assert len(blocks) == 1


def test_float_work_is_bounded_before_allocation(arange_cap):
    # The full sums would need 8e12, 8e10 and 8e9 bytes per array; the
    # capped np.arange fails past 10^6 elements in one call.
    with pytest.raises(DomainError, match="outside double range"):
        charlier_direct(10 ** 12, 1.0, 0.5)
    with pytest.raises(DomainError, match="outside double range"):
        charlier_direct(10 ** 10, 1e9, 1.5)
    assert math.isfinite(charlier_direct(10 ** 9, 1e9, 1.5))


def test_term_cap_precedes_allocation(arange_cap):
    # the first block at a = 1e15 would hold 1.26e8 terms
    with pytest.raises(DomainError, match="more than 10000000 terms"):
        charlier_direct(10 ** 15, 1e15, -5.0)
    assert arange_cap == [0]


def _hexes(row):
    return [float(v).hex() for v in row]


def test_python_rows_match_term_block_rows():
    # _term_row against _term_block's row, bit for bit, on a seeded grid:
    # continued from prev at start > 0, every fourth nu an integer (exact
    # zero terms), rows that underflow to 0, overflow to inf and then meet
    # a zero ratio at k = nu, inf * 0 = nan, and blocks that _term_block
    # builds in more than one piece
    rng = np.random.default_rng(49)
    cases = [(5000, 1e6, -0.5, 0, 1024, 1.0), (400, 0.5, 300.0, 0, 400, 1.0),
             (400, 0.5, -300.5, 100, 400, -1e300), (10 ** 15, 1e15, -5.0, 9990, 10000, 0.3),
             (3 * 10 ** 6, 3e6, 1.7, 0, 3 * charlier._PIECE + 5, 1.0),
             (3 * 10 ** 6, 3e6, -2.2, 77, 77 + 2 * charlier._PIECE, 0.3)]
    for i in range(300):
        n = int(rng.integers(1, 10 ** 6))
        a = float(10.0 ** rng.uniform(-1.0, 6.0))
        nu = float(rng.integers(-9, 400)) if i % 4 == 0 else float(rng.uniform(-300.0, 300.0))
        start = int(rng.integers(0, n))
        stop = min(n, start + int(rng.integers(1, 3000)))
        prev = float(rng.choice([1.0, -1.0]) * 10.0 ** rng.uniform(-300, 300)) if start else 1.0
        cases.append((n, a, nu, start, stop, prev))
    seen = set()
    for n, a, nu, start, stop, prev in cases:
        want = charlier._term_block(n, a, nu, start, stop, prev)
        assert _hexes(charlier._term_row(n, a, nu, start, stop, prev)) == _hexes(want), \
            (n, a, nu, start, stop, prev)
        seen |= {"zero" for v in want if v == 0} | {"inf" for v in want if math.isinf(v)}
        seen |= {"nan" for v in want if math.isnan(v)}
    assert seen == {"zero", "inf", "nan"}


def test_python_rows_then_numpy_rows_give_the_numpy_sum(monkeypatch, recorded):
    # one-degree sums and head/tail splits built in Python up to a crossing
    # point set through _python_terms and in numpy past it, as once a
    # process passes _PYTHON_TERMS: the budget is `crossing` terms, and none
    # once a block has gone to numpy.  Every block boundary is a crossing
    # point, for sums under the block plan and under quarter-span blocks
    # only, and for splits partway through their rows; each sum is the
    # all-numpy double of the block plan or the same DomainError, and each
    # split gives every SplitReport field of the all-numpy split
    from charlier_hermite import SplitConfig, head_tail_split
    python_terms, block_size = charlier._python_terms, charlier._block_size
    rows, blocks = recorded(charlier, "_term_row"), recorded(charlier, "_term_block")
    rng = np.random.default_rng(1211)
    cases = [(400, 1.0, -300.5), (1200, 0.5, 300.0), (10 ** 15, 1e15, -5.0)]
    for i in range(40):
        a = float(10.0 ** rng.uniform(3.0, 6.5))
        nu = float(rng.integers(-9, 10)) if i % 5 == 0 else float(rng.uniform(-9.0, 9.0))
        cases.append((ScaledPoint(float(rng.uniform(-3.0, 3.0)), a).n, a, nu))
    splits = [SplitConfig(2000.0, -4.0), SplitConfig(12345.5, -4.5), SplitConfig(3e5, -60.0)]
    splits += [SplitConfig(float(10.0 ** rng.uniform(3.0, 6.0)), float(rng.uniform(-60.0, -4.0)))
               for _ in range(3)]

    def outcome(run, crossing):
        del rows[:], blocks[:]
        monkeypatch.setattr(charlier, "_python_terms",
                            lambda: 0 if blocks else crossing - sum(map(len, rows)))
        try:
            return run()
        except DomainError as exc:
            return str(exc)

    def crossed_at(crossing):
        # Python built what fit, up to the first block that did not
        left = crossing - sum(map(len, rows))
        assert left >= 0 and not (blocks and len(blocks[0]) <= left), crossing
        return bool(rows and blocks)

    def direct(n, a, nu):
        return lambda: repr(charlier_direct(n, a, nu))  # repr is exact

    def split(cfg):
        return lambda: [None if v is None else v.hex() for v in head_tail_split(cfg)]

    assert outcome(direct(10 ** 15, 1e15, -5.0), 0).endswith("needs more than 10000000 terms")
    crossed = 0
    quarters = lambda n, a: (block_size(n, a)[1],) * 2
    for n, a, nu in cases:
        want = outcome(direct(n, a, nu), 0)
        for plan in (block_size, quarters):
            monkeypatch.setattr(charlier, "_block_size", plan)
            first, later = plan(n, a)
            for crossing in (first, first + later, first + 2 * later + 1, charlier._MAX_TERMS):
                assert outcome(direct(n, a, nu), crossing) == want, (n, a, nu, crossing)
                crossed += crossed_at(crossing)
    assert crossed > 50
    monkeypatch.setattr(charlier, "_block_size", block_size)
    crossed = 0
    for cfg in splits:
        want = outcome(split(cfg), 0)
        first, later = block_size(cfg.A, cfg.a)
        for crossing in [first + j * later for j in range(6)] + [charlier._MAX_TERMS]:
            assert outcome(split(cfg), crossing) == want, (cfg, crossing)
            crossed += crossed_at(crossing)
    assert crossed > 20
    # with numpy loaded, as here, a sum builds no term in Python
    assert python_terms() == 0


# Spends the process's Python-term budget in a fresh interpreter: a short
# sum (n <= 48) and a head/tail split, then sums at n = a = 10^6 with nu
# stepping by 1/2 until one loads numpy (at most 500 sums).  Prints the
# terms spent after each of the first two steps and, per sum of the run,
# nu, the budget left before it, the terms spent after it, whether numpy
# was loaded after it and the value's hex.
_BUDGET_PROBE = """
import json, sys
from charlier_hermite import asymptotics, charlier
charlier.charlier_direct(40, 100.0, 0.5)
first = [charlier._python_spent]
asymptotics.head_tail_split(asymptotics.SplitConfig(10000.0, -4.5))
first.append(charlier._python_spent)
steps, nu = [], 0.25
while "numpy" not in sys.modules and len(steps) < 500:
    left = charlier._PYTHON_TERMS - charlier._python_spent
    value = charlier.charlier_direct(10 ** 6, 1e6, nu)
    steps.append([nu, left, charlier._python_spent, "numpy" in sys.modules, value.hex()])
    nu += 0.5
print(json.dumps([first, steps]))
"""


def test_python_terms_are_a_budget_per_process(fresh_python):
    first, steps = fresh_python(_BUDGET_PROBE)
    # the short sum spends nothing; the split, its rows and c_A, does
    assert first[0] == 0 < first[1] <= charlier._PYTHON_TERMS
    # each sum takes the first block, or that and a second one ending at a
    # multiple of the later size
    size, later = charlier._block_size(10 ** 6, 1e6)
    second = size - size % later + later
    *python, last = steps
    assert len(python) > 10
    spent = first[1]
    for nu, left, after, numpy_loaded, value in python:
        assert after - spent in (size, second) and not numpy_loaded, nu
        assert after <= charlier._PYTHON_TERMS
        spent = after
    # the first block that does not fit in what is left goes to numpy and
    # loads it, after any block before it in the same sum was built in
    # Python; the value is the same double
    nu, left, after, numpy_loaded, value = last
    built = after - spent
    assert built in (0, size) and numpy_loaded and after <= charlier._PYTHON_TERMS
    assert left - built < (size if built == 0 else second - size)
    for nu, _, _, _, value in steps:
        assert charlier_direct(10 ** 6, 1e6, nu).hex() == value, nu


def test_blocks_refuse_the_term_cap_before_building(monkeypatch):
    # blocks of half the cap: the second ends at t_{_MAX_TERMS} and is
    # built, and the third, which would pass it, is refused before its
    # builder runs, whether that is _term_row or _term_block; a first
    # block ending at t_{_MAX_TERMS + 1} is refused with nothing built
    cap, built = charlier._MAX_TERMS, []

    def builder(name, kind):
        def build(n, a, nu, start, stop, prev):
            built.append((name, start, stop))
            return kind([0.5])
        return build

    monkeypatch.setattr(charlier, "_term_row", builder("row", list))
    monkeypatch.setattr(charlier, "_term_block", builder("block", np.array))
    for python_terms, name in ((0, "block"), (cap + 1, "row")):
        monkeypatch.setattr(charlier, "_python_terms", lambda p=python_terms: p)
        for block, want in ((cap // 2, [(name, 0, cap // 2), (name, cap // 2, cap)]),
                            (cap + 1, [])):
            monkeypatch.setattr(charlier, "_block_size", lambda n, a, b=block: (b, b))
            del built[:]
            with pytest.raises(DomainError, match="more than 10000000 terms"):
                charlier_direct(10 ** 15, 1e15, -5.0)
            assert built == want, (name, block)


def test_scaled_y_rational():
    got = scaled_y(ScaledPoint(x=0.5, a=2.0), 2, mode="rational")
    assert got == 0 and isinstance(got, Fraction)
    # odd nu needs 2a to be a perfect square: 2a = 16 works
    assert scaled_y(ScaledPoint(x=1.0, a=8.0), 1, mode="rational") == 2
    # 2a = 4: negative odd order divides by the exact root
    got = scaled_y(ScaledPoint(x=0.0, a=2.0), -1, mode="rational")
    assert got == Fraction(charlier_direct(2, 2, -1, mode="rational"), 2)
    with pytest.raises(DomainError, match=r"^sqrt\(2a\) is irrational for a=3\.0; cannot scale "
                       "exactly$"):
        scaled_y(ScaledPoint(x=0.0, a=3.0), 1, mode="rational")  # sqrt(6) irrational
    with pytest.raises(DomainError, match=r"^\(2a\)\^\(nu/2\) is irrational for "
                       r"nu=Fraction\(1, 2\)$"):
        scaled_y(ScaledPoint(x=0.0, a=2.0), Fraction(1, 2), mode="rational")


def test_rational_work_is_capped_before_any_term(monkeypatch):
    # sums whose terms, and a scale (2a)^{nu/2} whose value, could need more
    # than 2^16 bits are refused before a term is built; an integer nu >= 0
    # ends the series after nu + 1 terms, so its degree may be large
    built, terms = [], charlier._rational_terms

    def recording(*args):
        for t in terms(*args):
            built.append(t)
            yield t

    monkeypatch.setattr(charlier, "_rational_terms", recording)
    for call in (lambda: scaled_y(ScaledPoint(0.0, 1e6), -2, mode="rational"),
                 lambda: charlier_direct(3000, 3000, -2, mode="rational"),
                 lambda: charlier_direct(40, Fraction(3, 10 ** 600), Fraction(1, 3), mode="rational"),
                 lambda: scaled_y(ScaledPoint(0.0, 2.0), 2 * 10 ** 5, mode="rational")):
        with pytest.raises(DomainError, match="could need [0-9]+ bits, more than rational mode's 65536"):
            call()
    assert not built  # no term was built
    n = 10 ** 6
    want = 1 - Fraction(3 * n, 5) + Fraction(6 * math.comb(n, 2), 25) - Fraction(6 * math.comb(n, 3), 125)
    assert charlier_direct(n, 5, 3, mode="rational") == want
    assert len(built) == 4  # t_0 .. t_3


def _fraction_series(n, a, nu):
    """c_n^a(nu) summed term by term in Fractions, as rational mode first
    did: the reference for its integer loop."""
    a, nu = Fraction(a), Fraction(nu)
    total = term = Fraction(1)
    for k in range(n):
        term *= Fraction(n - k, k + 1) * (k - nu) / a
        if term == 0:
            break
        total += term
    return total


def test_rational_sums_are_the_fraction_series():
    rng = random.Random(2022)
    cases = [(0, Fraction(3, 7), Fraction(-5, 2)), (0, 1, 0), (5, 2, 0), (60, 0.3, -7.25)]
    for i in range(400):
        n = rng.randint(0, 60)
        a = Fraction(rng.randint(1, 60), rng.randint(1, 30))
        # every fourth nu an integer in [0, n], where the series ends early
        nu = (Fraction(rng.randint(0, n)) if i % 4 == 0
              else Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 5, 7))))
        cases.append((n, a, nu))
    for n, a, nu in cases:
        got = charlier_direct(n, a, nu, mode="rational")
        assert type(got) is Fraction and got == _fraction_series(n, a, nu), (n, a, nu)
    # scaled_y: 2a = m^2, so every integer nu has an exact scale m^nu
    for _ in range(150):
        m = rng.randint(1, 10)
        point, nu = ScaledPoint(rng.uniform(-1.5, 0.5), m * m / 2), rng.randint(-10, 10)
        want = Fraction(m) ** nu * _fraction_series(point.n, point.a, nu)
        assert scaled_y(point, nu, mode="rational") == want, (point, nu)
    for x, a in admissible_sharpness_pairs((2, 4, 6, 8, 10)):
        r = math.isqrt(int(2 * a))  # 2a = r^2
        n = int(a - x * r)
        lhs = 2 * a * _fraction_series(n, a, 2) - (4 * x * x - 2)
        assert sharpness_check(x, a) == SharpnessResult(n, lhs, 4 * x / r, lhs == 4 * x / r)


@functools.lru_cache(maxsize=None)
def _mp_scaled_y(n, a, nu, digits=30):
    """(2a)^{nu/2} c_n^a(nu) from the series summed by mpmath; the terms
    are positive for nu < 0, so there is no cancellation."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(digits):
        term = total = mp.mpf(1)
        for k in range(n):
            term *= mp.mpf(n - k) / (k + 1) * (k - mp.mpf(nu)) / a
            total += term
        return total * (2 * mp.mpf(a)) ** (mp.mpf(nu) / 2)


@pytest.mark.parametrize("nu", [-140.0, -150.0, -160.0])
def test_subnormal_scale_keeps_digits(nu):
    # (2a)^{nu/2} is 8.5e-302, 2.5e-323 (subnormal) and 0 (underflow) at
    # a = 1e4, while y_nu^a(0) and the trace's states are normal doubles
    from charlier_hermite import SplitConfig, charlier_state_trace, head_tail_split
    a = 1e4
    want = float(_mp_scaled_y(10000, a, nu))
    assert math.isclose(scaled_y(ScaledPoint(0.0, a), nu), want, rel_tol=1e-13)
    rep = head_tail_split(SplitConfig(a, nu))
    assert math.isclose(rep.y0_direct, want, rel_tol=1e-13)
    assert math.isclose(rep.y0_reconstructed, want, rel_tol=1e-13)
    z = charlier_state_trace(nu, a, 0.01)
    r = math.sqrt(2.0 * a)
    dy = r * (_mp_scaled_y(10000, a, nu) - _mp_scaled_y(10001, a, nu))
    assert math.isclose(z.states[0, 0], want, rel_tol=1e-13)
    assert math.isclose(z.states[0, 1], float(dy), rel_tol=1e-11)
    # and through the command line, exit 0 with the same digits
    from charlier_hermite.cli import main
    for argv, columns in ((["eval", "scaled", "--x", "0"], ["value"]),
                          (["asymptotics", "head-tail"], ["y0_reconstructed", "y0_direct"])):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--a", "10000", "--nu", str(nu), "--out", "json"]) == 0
        row = json.loads(out.getvalue())[0]
        for column in columns:
            assert math.isclose(row[column], want, rel_tol=1e-13), (argv, column)


@pytest.mark.parametrize("nu", [-276.0, -300.0])
def test_subnormal_scale_without_a_normal_result_is_a_domain_error(nu):
    # at a = 1e4: for nu = -276 the value itself is below 2^-1022, and for
    # nu = -300 so is (2a)^{nu/4}
    with pytest.raises(DomainError, match="normal double range"):
        scaled_y(ScaledPoint(0.0, 1e4), nu)
