import contextlib
import math
import re
import sys
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from charlier_hermite import (
    DomainError,
    charlier,
    charlier_direct,
    charlier_zeros_in_order,
    count_positive_zeros,
    fit_rate,
    hermite_fn,
    hermite_zeros_in_order,
    zero_convergence_table,
    zeros,
)
from charlier_hermite.zeros import _isolate, _pivots, _refine, _tol, _window, _zeros_below

# smallest nu-zero of H_nu(1) in (0, 3); mpmath bisection at 50 digits
HERMITE_NU_ZERO_AT_X1 = 2.5371955308039388


def test_single_zero_of_linear_charlier():
    for a in (3.0, 7.0):
        roots = charlier_zeros_in_order(1, a, 0.0, 3.0 * a)
        assert len(roots) == 1
        assert math.isclose(roots[0].root, a, rel_tol=1e-11)
        assert roots[0].bracket_lo <= roots[0].root <= roots[0].bracket_hi


def test_quadratic_charlier_zeros():
    # c_2^2 vanishes at ((2a+1) +- sqrt(4a+1))/2 = {1, 4}
    roots = charlier_zeros_in_order(2, 2.0, 0.0, 10.0)
    assert len(roots) == 2
    assert math.isclose(roots[0].root, 1.0, abs_tol=1e-10)
    assert math.isclose(roots[1].root, 4.0, abs_tol=1e-10)
    assert all(r.root > 0 for r in roots)


def test_roots_are_positive_and_ordered():
    for n, a in ((3, 2.0), (5, 4.0), (4, 10.0)):
        hi = a + 4.0 * n * math.sqrt(a)
        roots = charlier_zeros_in_order(n, a, 0.0, hi)
        values = [r.root for r in roots]
        assert values == sorted(values)
        assert all(v > 0 for v in values)


def test_zeros_that_share_a_wide_cell_are_all_found():
    # c_2^2 has the same sign at 0, 7 and 14, the nodes of a 3-node scan,
    # and its zeros 1 and 4 between them; [0, 2] holds none of c_3^5's
    # zeros, and [1, 1.5] holds c_5^5's zero at 1, on its lower end
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        roots = [z.root for z in charlier_zeros_in_order(2, 2.0, 0.0, 14.0)]
        assert len(roots) == 2 and all(abs(r - v) <= _tol(v) for r, v in zip(roots, (1.0, 4.0)))
        assert charlier_zeros_in_order(3, 5.0, 0.0, 2.0) == []
        z, = charlier_zeros_in_order(5, 5.0, 1.0, 1.5)
        assert z.bracket_lo <= 1.0 <= z.bracket_hi and abs(z.root - 1.0) <= _tol(1.0)


@pytest.mark.parametrize("n, a", [(40, 40.0), (60, 30.0)])
def test_all_zeros_are_found_from_above_zero(n, a):
    # c_n^a is noise at large nu, so a scan of its values on 8n nodes found
    # 22 of 40 and 34 of 60 zeros; the counts need no value of c_n^a
    hi = a + 4.0 * n * math.sqrt(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(charlier_zeros_in_order(n, a, 1e-12, hi)) == n


# (2, 1e5) and (3, 1e4): two zeros shared a cell of the first grids of the
# old grid-doubling count, where counts of 0 and 1 were once confirmed.  It
# raised ConvergenceError at (30, 30), (40, 40), (60, 30) and (6, 1e6) after
# 1 to 8 s, found counts below n at (2, 1e12) and (8, 1e5), took 29 ms at
# (25, 12), and refused (16384, 1e4), where c_n^a is outside double range.
@pytest.mark.parametrize("n, a", [
    (1, 2.0), (2, 2.0), (4, 3.0), (6, 5.0), (2, 1e5), (3, 1e4), (25, 12.0), (30, 30.0),
    (40, 40.0), (60, 30.0), (2, 1e12), (8, 1e5), (6, 1e6), (16384, 1e4)])
def test_count_positive_zeros_equals_degree(n, a):
    assert count_positive_zeros(n, a) == n


def test_count_positive_zeros_is_n_in_under_10_ms():
    rng = np.random.default_rng(26)
    cases = [(16384, 1.0), (16384, 1.5), (16384, 1e4), (1, 1.0)]
    cases += [(int(2.0 ** rng.uniform(0.0, 14.0)), float(10.0 ** rng.uniform(0.0, 4.0)))
              for _ in range(60)]
    for n, a in cases:
        best = math.inf
        for _ in range(3):  # the least of three, so that a busy host does not fail it
            t0 = time.perf_counter()
            count = count_positive_zeros(n, a)
            best = min(best, time.perf_counter() - t0)
        assert count == n and best < 0.010, (n, a, count, best)


def test_count_positive_zeros_is_confirmed_or_refused(monkeypatch):
    # n over the cap, and a where the float pivots miscount, are refused
    # before any pivot
    with monkeypatch.context() as m:
        calls = []
        m.setattr(zeros, "_zeros_below", lambda *args: calls.append(args))
        with pytest.raises(DomainError, match="n must be an integer <= 16384, got 16385"):
            count_positive_zeros(16385, 2.0)
        with pytest.raises(DomainError, match=r"a must be a finite number >= "
                                              r"2.2250738585072014e-308, got 5e-324"):
            count_positive_zeros(2, 5e-324)
        with pytest.raises(DomainError, match=r"a must be a finite number <= 1e\+30, got 1e\+31"):
            count_positive_zeros(2, 1e31)
        assert calls == []
    for a in (2.0 ** -1022, 1e-300, 1e-10, 1e20, 1e30):
        assert [count_positive_zeros(n, a) for n in (1, 2, 40, 16384)] == [1, 2, 40, 16384], a


def _sign_changes(n, a, nu):
    """The sign changes of c_0(nu), ..., c_n(nu), exactly, by rational mode at
    the binary values of a and nu; None where one of them is 0."""
    c = [charlier_direct(k, Fraction(a), Fraction(nu), mode="rational") for k in range(n + 1)]
    return None if 0 in c else sum((u < 0) != (v < 0) for u, v in zip(c, c[1:]))


def test_zeros_below_is_the_exact_count_of_sign_changes():
    # c_k(nu) / c_{k-1}(nu) is a pivot over a, so the pivots that are negative
    # are the sign changes.  Points are seeded away from zeros: the exact
    # counts 2^-30 (n + a) below and above nu agree.  nu = 0 is exact at
    # every a, also at a < n, where (k + a) - a k / d_{k-1} had lost the sign.
    rng = np.random.default_rng(2026)
    checked = 0
    while checked < 300:
        n = int(rng.integers(1, 31))
        a = float(rng.integers(1, 61)) / float(rng.integers(1, 31))
        hi = n + a + 2.0 * math.sqrt(a * n)
        nu = float(rng.choice([0.0, float(rng.uniform(-1.0, 1.05 * hi)),
                               float(rng.integers(0, int(hi) + 1)) + 0.5]))
        d = (n + a) * 2.0 ** -30
        want = _sign_changes(n, a, nu)
        around = {want} if nu == 0.0 else {_sign_changes(n, a, nu + e) for e in (-d, d)}
        if want is None or around != {want}:
            continue
        assert _zeros_below(n, a, nu) == want, (n, a, nu)
        checked += 1


def test_hermite_zeros_at_origin_are_odd_integers():
    roots = hermite_zeros_in_order(0.0, 0.5, 6.0, grid=256)
    assert len(roots) == 3
    for got, want in zip(roots, (1.0, 3.0, 5.0)):
        assert math.isclose(got.root, want, abs_tol=1e-9)


def test_hermite_zero_free_interval_is_empty():
    assert hermite_zeros_in_order(0.0, 1.5, 2.5, grid=64) == []


@pytest.mark.parametrize("lo, hi", [(1.0, 2.0), (0.5, 1.0)])
def test_hermite_scan_finds_a_zero_on_an_end_node(lo, hi):
    # H_1(0) = 0 sits on the first grid node, then on the last one
    assert [z.root for z in hermite_zeros_in_order(0.0, lo, hi, grid=8)] == [1.0]


@pytest.mark.parametrize("lo, hi", [(1.0, 1.5), (0.5, 1.0)])
def test_charlier_zero_on_an_end_of_the_range(lo, hi):
    # c_5^5(1) = 1 + 5 (-1)/5 = 0: the only terms are k = 0 and k = 1
    z, = charlier_zeros_in_order(5, 5.0, lo, hi)
    assert z.bracket_lo <= 1.0 <= z.bracket_hi and abs(z.root - 1.0) <= _tol(1.0)


def test_zeros_on_both_end_nodes_are_counted_once():
    roots = hermite_zeros_in_order(0.0, 1.0, 3.0, grid=5)
    assert [z.root for z in roots] == [1.0, 3.0]


def test_zero_results_are_python_floats():
    # exact hits on interior nodes of a scan, a count's zero at an end of
    # its range, and zeros inside their ranges
    results = (hermite_zeros_in_order(0.0, 0.0, 4.0, grid=5)
               + charlier_zeros_in_order(5, 5.0, 0.5, 1.0)
               + charlier_zeros_in_order(2, 2.0, 0.0, 10.0))
    assert len(results) == 5
    z = results[2]
    assert z.bracket_lo <= 1.0 <= z.bracket_hi and abs(z.root - 1.0) <= _tol(1.0)
    for z in results:
        assert type(z.root) is float
        assert type(z.bracket_lo) is float and type(z.bracket_hi) is float


def test_hermite_zero_at_x1_against_oracle():
    roots = hermite_zeros_in_order(1.0, 0.5, 3.0, grid=256)
    assert len(roots) >= 1
    assert math.isclose(roots[0].root, HERMITE_NU_ZERO_AT_X1, abs_tol=1e-10)


def test_residual_and_iteration_reporting():
    roots = charlier_zeros_in_order(2, 2.0, 0.0, 10.0)
    for r in roots:
        assert abs(r.residual) < 1e-8
        assert r.iterations >= 0
        assert r.bracket_lo < r.root < r.bracket_hi
        assert r.bracket_hi - r.bracket_lo <= 1e-12 * max(1.0, abs(r.root)) + 1e-15


def test_zero_convergence_target_three():
    rows = zero_convergence_table(0.0, 3.0, (100.0, 400.0, 1600.0, 6400.0))
    assert all(r.error is None for r in rows)
    assert [r.n for r in rows] == [100, 400, 1600, 6400]
    fit = fit_rate([(r.a, r.abs_err) for r in rows])
    assert -0.65 <= fit.slope <= -0.35, fit


def test_zero_convergence_target_one_is_exact_by_duality():
    # c_a^a(1) = c_1^a(a) = 1 - a/a = 0: the Charlier zero coincides
    # with the Hermite zero for every integer a.  The identity survives
    # the float path exactly, so the table reports the target itself: a
    # scan of values put the zero at 1.0000000000000018 at a = 1600
    for a in (100, 400, 1600, 6400):
        assert charlier_direct(a, float(a), 1.0) == 0.0
    rows = zero_convergence_table(0.0, 1.0, (100.0, 400.0, 1600.0, 6400.0))
    assert all(r.error is None for r in rows)
    assert all(r.abs_err == 0 for r in rows)


def test_zero_convergence_row_is_the_zero_that_bisection_finds():
    # at a = 100 the table's zero near target 3 is the one zero of [2, 4],
    # halfway to the neighbouring Hermite zeros, found by bisection on counts
    rows = zero_convergence_table(0.0, 3.0, (100.0,))
    row = rows[0]
    assert row.error is None and math.isfinite(row.abs_err)
    found = charlier_zeros_in_order(row.n, row.a, 2.0, 4.0)
    assert len(found) == 1
    assert math.isclose(found[0].root, row.nu_n, rel_tol=1e-10)


def _charlier_sum(mpmath, n, a, nu):
    """c_n^a(nu) as the exact series in mpmath."""
    t = total = mpmath.mpf(1)
    for k in range(n):
        t *= mpmath.mpf(n - k) / (k + 1) * (k - nu) / a
        total += t
    return total


@pytest.mark.parametrize("x, target", [(0.0, 3.0), (0.5, 1.66), (-0.5, 2.25)])
def test_zero_table_against_50_digit_roots(x, target):
    # each row's zero within 1e-12 relative of mpmath.findroot on the exact
    # Charlier sum; the 64-node value scan had moved the README table's
    # zeros by up to 1.6e-11 relative (a = 6400).  Each row's error is
    # measured from the Hermite zero, mpmath.hermite's root in nu
    mpmath = pytest.importorskip("mpmath")
    rows = zero_convergence_table(x, target, (100.0, 400.0, 1600.0, 6400.0))
    with mpmath.workdps(50):
        hermite_zero = mpmath.findroot(lambda v: mpmath.hermite(v, x), mpmath.mpf(target))
        for r in rows:
            assert r.error is None, r
            want = mpmath.findroot(lambda v: _charlier_sum(mpmath, r.n, mpmath.mpf(r.a), v),
                                   mpmath.mpf(r.nu_n))
            assert abs(r.nu_n - want) <= 1e-12 * want, (r, want)
            assert abs(r.abs_err - abs(r.nu_n - hermite_zero)) <= 1e-12 * hermite_zero, r


@pytest.mark.parametrize("n, a", [(20, 10.0), (60, 30.0), (200, 100.0), (2, 2.0 ** -1022),
                                  (100, 0.01)])
def test_spectrum_residuals_against_160_digit_sums(n, a):
    # each residual within 5e-2 relative of the exact series at the root,
    # and inf where that is past the double range: at the upper zero of
    # (2, 2^-1022), where the mantissa overflows, and at 99 of the 100
    # zeros of (100, 0.01), where the exponent does.  Worst 1.2e-2, at
    # (200, 100) and root 6.0000000272; the float series the residuals were
    # once summed by cancels at nu > 0, off by up to 2.6e4, 4.7e20 and
    # 1.1e83 relative on the first three spectra
    mpmath = pytest.importorskip("mpmath")
    found = charlier_zeros_in_order(n, a, 0.0, 10.0 * (n + a))
    assert len(found) == n
    with mpmath.workdps(160):
        for z in found:
            exact = abs(_charlier_sum(mpmath, n, a, mpmath.mpf(z.root)))
            if exact > sys.float_info.max:
                assert z.residual == math.inf, (z, exact)
            else:
                assert abs(z.residual - exact) <= 5e-2 * exact, (z, exact)


def test_zero_table_past_the_exact_zero_shortcut():
    # charlier_direct(10**8, 1e8, 3.0) cancels to 0.0, where c_3^a(a) =
    # -2/a^2: the table took 3 as the zero at a = 1e8.  The exact test is in
    # rational mode.  sqrt(a) (nu_n - 3) from counts bisected to 1e-14
    assert charlier_direct(10 ** 8, 1e8, 3.0) == 0.0
    rows = zero_convergence_table(0.0, 3.0, (1e6, 1e7, 1e8))
    assert [r.n for r in rows] == [10 ** 6, 10 ** 7, 10 ** 8] and all(r.error is None for r in rows)
    for r, want in zip(rows, (0.7982924, 0.7980135, 0.7979253)):
        assert math.isclose(math.sqrt(r.a) * (r.nu_n - 3.0), want, rel_tol=1e-6), r
    assert -0.65 <= fit_rate([(r.a, r.abs_err) for r in rows]).slope <= -0.35


@pytest.mark.parametrize("c", [2.0, zeros._WINDOW_C])
def test_windowed_count_is_the_full_count(monkeypatch, c):
    # seeded (n, a, nu) with a up to 1e6: _zeros_below against the full run
    # from s_0 = -nu, from the first window's c and from c = 2, whose
    # windows often disagree near a zero.  At (400, 400, 3.0411) the two
    # starts of the window at c = 2 count 1 and 2 zeros, so it doubles.
    # So do they at (100, 100, 3.0842), from k0 = 47; but there two runs
    # from k0 would take more rows than the full run, which is taken instead
    monkeypatch.setattr(zeros, "_WINDOW_C", c)
    for (n, a, nu), k0 in [((400, 400.0, 3.0411), 293), ((100, 100.0, 3.0842), 47)]:
        assert (_pivots(n, a, nu, k0)[0], _pivots(n, a, nu, k0, low=True)[0]) == (1, 2)
        assert _window(n, a, nu, 2.0) == (k0 if 2 * k0 > n else 0)
        assert _zeros_below(n, a, nu) == _pivots(n, a, nu)[0] == 2
    rng = np.random.default_rng(20)
    for _ in range(60):
        a = float(10.0 ** rng.uniform(1.0, 6.0))
        n = math.floor(a - float(rng.uniform(-2.0, 2.0)) * math.sqrt(2.0 * a))
        nu = float(rng.uniform(0.0, 14.0))
        assert _zeros_below(n, a, nu) == _pivots(n, a, nu)[0], (n, a, nu)
    # and within 1e-2 to 1e-9 relative of the zero next to 3 at x = 0, each
    # count from a first window at c
    windows, doubled, kernel = [], 0, zeros._window
    monkeypatch.setattr(zeros, "_window", lambda *args: windows.append(args[3]) or kernel(*args))
    for _ in range(20):
        row, = zero_convergence_table(0.0, 3.0, [float(10.0 ** rng.uniform(2.0, 6.0))])
        nu = row.nu_n * (1.0 + float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -2.0)))
        windows.clear()
        assert _zeros_below(row.n, row.a, nu) == _pivots(row.n, row.a, nu)[0], (row, nu)
        assert windows[0] == c
        doubled += len(windows) > 1
    # at c = 2 the first window does not decide 11 of them; at c = 8 it does
    assert doubled == (11 if c == 2.0 else 0)


def test_nearest_zero_is_isolated_by_counts(monkeypatch):
    # counts of given zeros: the nearest zero's side of the ball, and the
    # lower zero where two are as near
    for zs, target, want in [([2.1, 3.5], 3.0, (3.0, 3.75, 2)),
                             ([2.5, 3.5], 3.0, (2.5, 3.0, 1)),
                             ([1.0, 2.0, 4.0, 5.0], 3.0, (2.0, 3.0, 2)),
                             ([0.1], 3.0, (0.0, 3.0, 1)),
                             ([5.0], 0.2, (0.2, 8.2, 1))]:
        monkeypatch.setattr(zeros, "_zeros_below", lambda n, a, nu: sum(z <= nu for z in zs))
        lo, hi, j = _isolate(1, 1.0, target)
        assert j == want[2] and lo < zs[j - 1] <= hi, (zs, target, lo, hi, j)
        assert math.isclose(lo, want[0], abs_tol=1e-9) and math.isclose(hi, want[1]), (zs, lo, hi)


@pytest.mark.parametrize("x, target, a_values", [
    (0.0, 5.0, (3.0, 5.5)), (0.0, 3.0, (1.0,)), (1.0, HERMITE_NU_ZERO_AT_X1, (5.0,)),
    (-1.0, 3.2801910142750858, (2.0, 3.0)),  # mpmath.hermite's root in nu at 50 digits
])
def test_zero_table_row_is_the_nearest_zero_however_far(x, target, a_values):
    # no window bounds the search: at small a the nearest Charlier zero may lie
    # nearer another Hermite zero (at x = 0, 3.697 for target 5 at a = 3, where
    # the Hermite zeros are the odd integers), and the row reports it.  When a
    # Hermite zero scan bounded the search by half the gap to the adjacent
    # Hermite zeros, these rows were refused.  The oracle is the nearest zero
    # of the whole spectrum, by bisection on counts
    for r in zero_convergence_table(x, target, a_values):
        assert r.error is None, r
        spectrum = [z.root for z in charlier_zeros_in_order(r.n, r.a, 0.0, 100.0)]
        want = min(spectrum, key=lambda v: (abs(v - target), v))
        assert math.isclose(r.nu_n, want, rel_tol=1e-11), (r, want)
        assert math.isclose(r.abs_err, abs(want - target), rel_tol=1e-11) and r.abs_err > 0.4, r


def test_zero_convergence_carries_per_row_failures():
    # a below 1 cannot even form the degree; the row reports, others go on
    rows = zero_convergence_table(0.0, 3.0, (0.5, 100.0))
    assert rows[0].error is not None and math.isnan(rows[0].abs_err)
    assert rows[1].error is None


def test_charlier_zero_range_validation():
    with pytest.raises(DomainError, match="hi must be a finite number > 5.0, got 1.0"):
        charlier_zeros_in_order(2, 2.0, 5.0, 1.0)
    with pytest.raises(DomainError, match="hi must be a finite number > 1.0, got 1.0"):
        charlier_zeros_in_order(2, 2.0, 1.0, 1.0)


def _assert_zeros_of_range(n, a, lo, hi):
    """charlier_zeros_in_order(n, a, lo, hi) against exact sign changes of
    c_0, ..., c_n; False, unchecked, where a zero lies within _tol(lo)
    below lo, where the range takes it, or within the lesser of _tol(hi)
    and _tol(n + a) of hi."""
    t = min(_tol(hi), _tol(n + a))
    ends = [_sign_changes(n, a, v) for v in (lo - _tol(lo), lo, hi - t, hi, hi + t)]
    if None in ends or ends[0] != ends[1] or len(set(ends[2:])) > 1:
        return False
    zs = charlier_zeros_in_order(n, a, lo, hi)
    assert len(zs) == ends[3] - ends[1], (n, a, lo, hi)
    assert all(u.bracket_hi <= v.bracket_lo for u, v in zip(zs, zs[1:])), (n, a, lo, hi)
    for z in zs:
        assert 0.0 < z.root and lo - _tol(lo) <= z.root <= hi, (n, a, lo, hi, z)
        assert z.bracket_lo < z.root < z.bracket_hi, (n, a, z)
        assert z.bracket_hi - z.bracket_lo < 1e-12 * z.root, (n, a, z)
        signs = [charlier_direct(n, Fraction(a), Fraction(v), mode="rational")
                 for v in (z.bracket_lo, z.bracket_hi)]
        assert signs[0] * signs[1] <= 0, (n, a, z)
    return True


def test_zeros_by_bisection_are_the_exact_sign_changes():
    # seeded (n, a = p/q) on (0, a + 4 n sqrt(a)], and on sub-ranges of the
    # span of the zeros, (0, n + a + 2 sqrt(a n)), which may hold none; and
    # (200, 100), where a scan of 8n nodes was refused and the least zero is
    # 4.7e-17, which counts that resolved nu only to 1e-12 (n + a) put in a
    # cell reaching below 0
    rng = np.random.default_rng(27)
    checked = 0
    while checked < 60:
        n = int(rng.integers(1, 61))
        a = float(rng.integers(1, 121)) / float(rng.integers(1, 31))
        top = n + a + 2.0 * math.sqrt(a * n)
        lo, hi = ((0.0, a + 4.0 * n * math.sqrt(a)) if checked % 3 == 0
                  else sorted(rng.uniform(-1.0, top, 2)))
        checked += _assert_zeros_of_range(n, a, float(lo), float(hi))
    assert _assert_zeros_of_range(200, 100.0, 0.0, 100.0 + 800.0 * 10.0)


@pytest.mark.parametrize("n, a", [(20, 10.0), (60, 30.0), (200, 100.0), (30, 2.0), (40, 0.5)])
def test_least_zeros_are_the_exact_sign_changes(n, a):
    # [0, 0.25] holds only the least zero: 1.7e-2, 1.4e-5, 4.7e-17,
    # 1.5e-23 and 2.7e-59, each bracketed to 1e-12 relative.  (At 1 and at
    # 0.5, some c_k^a is exactly 0, and the sign changes are not defined.)
    # Counts that formed a - nu and d - a resolved nu only to about
    # eps (n + a), and returned negative roots for the last three.
    assert _assert_zeros_of_range(n, a, 0.0, 0.25)


def test_least_zero_is_the_least_eigenvalue():
    # An independent reference for the least zero of c_40^0.5, 2.7e-59:
    # the least eigenvalue of J in 120 digits, by the implicit QL stage of
    # mpmath.eigsy (J is tridiagonal already)
    mpmath = pytest.importorskip("mpmath")
    from mpmath.matrices.eigen_symmetric import tridiag_eigen

    n, a = 40, 0.5
    z = charlier_zeros_in_order(n, a, 0.0, 1.0)[0]
    with mpmath.workdps(120):
        d = [k + mpmath.mpf(a) for k in range(n)]
        e = [mpmath.sqrt(mpmath.mpf(a) * (k + 1)) for k in range(n - 1)] + [0]
        tridiag_eigen(mpmath.mp, d, e)
        want = min(d)
        assert abs(z.root - want) <= 1e-12 * want, (z, want)


def test_charlier_zeros_are_refused_before_the_counts_that_cost(monkeypatch):
    # (n, a) outside the counts' rule, before any count; k n > 2^18, after
    # the two counts of the range's ends
    calls = []
    counted = zeros._zeros_below
    monkeypatch.setattr(zeros, "_zeros_below", lambda *args: calls.append(args) or counted(*args))
    for args, message in [((16385, 2.0), "n must be an integer <= 16384, got 16385"),
                          ((2, 5e-324), r"a must be a finite number >= 2.2250738585072014e-308, "
                                        r"got 5e-324"),
                          ((2, 1e31), r"a must be a finite number <= 1e\+30, got 1e\+31")]:
        with pytest.raises(DomainError, match=message):
            charlier_zeros_in_order(*args, 0.0, 10.0)
    assert calls == []
    # 1024 zeros at n = 1024, and 513 at n = 513, one more than 2^18 / n
    for n in (1024, 513):
        with pytest.raises(DomainError, match=f"holds {n} zeros of c_{n}\\^a; at n={n} at most "
                                              f"{(1 << 18) // n} are found"):
            charlier_zeros_in_order(n, 1.0, 0.0, 4.0 * n)
        assert len(calls) == 2
        calls.clear()


def test_bisection_starts_from_the_span_of_the_zeros(monkeypatch):
    # the range is cut to [0, n + a + 2 sqrt(a n)] before the first split:
    # from -1e308 the cells took about 1060 counts to come down to the one
    # zero.  That zero lies below the least positive double, so its cell
    # ends at [0, 5e-324], which no double splits, and the root is its
    # upper end
    calls = []
    counted = zeros._zeros_below
    monkeypatch.setattr(zeros, "_zeros_below", lambda *args: calls.append(args) or counted(*args))
    z, = charlier_zeros_in_order(16384, 1.0, -1e308, 0.05)
    assert (z.bracket_lo, z.root, z.bracket_hi) == (0.0, 5e-324, 5e-324)
    assert len(calls) <= 64


def test_zeros_of_a_huge_range_are_the_exact_sign_changes():
    zs = charlier_zeros_in_order(40, 40.0, -1e300, 1e300)
    assert len(zs) == 40
    assert all(u.bracket_hi <= v.bracket_lo for u, v in zip(zs, zs[1:]))
    for z in zs:
        assert z.bracket_lo < z.root < z.bracket_hi
        assert z.bracket_hi - z.bracket_lo < _tol(z.root), z
        signs = [charlier_direct(40, 40, Fraction(v), mode="rational")
                 for v in (z.bracket_lo, z.bracket_hi)]
        assert signs[0] * signs[1] <= 0, z


def test_a_range_too_wide_to_scan_is_refused_before_any_value(monkeypatch):
    # hi - lo overflowed to an inf step, whose node 0 * inf + lo was a nan
    # refused as if the caller had passed it
    with pytest.raises(DomainError, match=r"\[-1e\+308, 1e\+308\] is too wide to scan: "
                                          r"hi - lo is not finite"):
        hermite_zeros_in_order(0.0, -1e308, 1e308)
    assert _scan_grid(monkeypatch, -1e308, 1e308, 2) == []
    # the widest range whose step is finite scans as before
    assert _scan_grid(monkeypatch, -1e308, 7e307, 3) == np.linspace(-1e308, 7e307, 3).tolist()


@pytest.mark.parametrize("miscount", [1, -1])
def test_a_miscounted_midpoint_keeps_the_range_count(monkeypatch, miscount):
    # the midpoint's count is clamped between those of its cell's ends, so
    # the cells still hold exactly the range's count, if one of them at the
    # wrong place
    counted = zeros._zeros_below
    for wrong in (3, 4, 10, 40, 200):
        calls = []

        def count(n, a, nu):
            calls.append(nu)
            return counted(n, a, nu) + miscount * (len(calls) == wrong)

        monkeypatch.setattr(zeros, "_zeros_below", count)
        roots = [z.root for z in charlier_zeros_in_order(20, 10.0, 0.0, 10.0 + 80.0 * math.sqrt(10.0))]
        assert len(roots) == 20 and roots == sorted(roots) and len(calls) > wrong, wrong


def _scan_grid(monkeypatch, lo, hi, grid):
    # the scan evaluates H at every node, in order; an H with no sign
    # change makes no other call.  [] where the scan is refused
    nodes = []
    monkeypatch.setattr(zeros, "hermite_fn", lambda nu, x: nodes.append(nu) or 1.0)
    with contextlib.suppress(DomainError):
        hermite_zeros_in_order(0.0, lo, hi, grid)
    return nodes


def test_scan_grid_is_numpys_linspace(monkeypatch):
    rng = np.random.default_rng(64)
    cases = [(0.0, 1.0, 2), (1e-12, 5.0, 1 << 16), (-3.5, 7.25, 1 << 16), (2.5, 3.5, 64),
             (-1e-300, 1e-300, 400), (1e6, 1e6 + 1e-6, 3)]
    for _ in range(500):
        lo = float(rng.uniform(-1e3, 1e3) * 10.0 ** rng.uniform(-6, 6))
        hi = lo + float(10.0 ** rng.uniform(-8, 6))
        cases.append((lo, hi, int(rng.choice([2, 3, 64, 128, 400, rng.integers(2, 5000)]))))
    for lo, hi, grid in cases:
        if hi > lo:
            assert _scan_grid(monkeypatch, lo, hi, grid) == np.linspace(lo, hi, grid).tolist(), \
                (lo, hi, grid)


def _assert_bracketed(f, z):
    # the root lies strictly inside its bracket; where f is not exactly 0
    # there, the bracket's ends have opposite signs and it is narrower than
    # the tolerance
    assert z.bracket_lo < z.root < z.bracket_hi, z
    if f(z.root) != 0.0:
        assert f(z.bracket_lo) * f(z.bracket_hi) < 0, z
        assert z.bracket_hi - z.bracket_lo < _tol(0.5 * (z.bracket_lo + z.bracket_hi)), z


@pytest.mark.parametrize("f, lo, hi, root", [
    (math.sin, 3.0, 3.5, math.pi),
    (lambda v: v ** 3 - 2.0, 0.0, 4.0, 2.0 ** (1.0 / 3.0)),
    (lambda v: math.expm1(v - 0.3), -50.0, 1.0, 0.3),
    (lambda v: math.tanh(1e6 * (v - 0.1)), -1.0, 1.0, 0.1),
    (lambda v: (v - 1.5) ** 9, 0.0, 2.0, 1.5),  # interpolation is poor: steps fall back to halving
    (lambda v: math.copysign(1.0, v - 0.7), 0.0, 1.0, 0.7),  # a jump, no zero
])
def test_refinement_keeps_the_bisection_contract(f, lo, hi, root):
    z = _refine(f, lo, hi, f(lo), f(hi))
    _assert_bracketed(f, z)
    assert lo <= z.bracket_lo and z.bracket_hi <= hi
    assert abs(z.root - root) <= _tol(root)
    # bisection from this width takes about 42 halvings; zeroin never needs
    # many more, and far fewer where interpolation works
    assert z.iterations <= 3 * math.ceil(math.log2((hi - lo) / _tol(root)))


def test_refinement_step_onto_an_exact_zero():
    # the first secant step of v - 1 on [0, 3] lands on 1.0 exactly: the
    # root is that node and its bracket still meets the tolerance
    z = _refine(lambda v: v - 1.0, 0.0, 3.0, -1.0, 2.0)
    assert (z.root, z.residual, z.iterations) == (1.0, 0.0, 1)
    assert z.bracket_lo < 1.0 < z.bracket_hi
    assert z.bracket_hi - z.bracket_lo <= _tol(1.0)
    with pytest.raises(DomainError):
        _refine(lambda v: v - 1.0, 2.0, 3.0, 1.0, 2.0)


def test_zero_table_sums_no_float_series(monkeypatch):
    # the table takes its Charlier zeros from counts and pivot products: its
    # only Charlier sums are the exact tests at integer targets, and its only
    # Hermite values are those of the target's own 64-node scan.  A scan of
    # a window made 11 to 15 float sums per a, and 511 Hermite calls a table.
    # A spectrum's residuals and a count of zeros sum no series at all; the
    # residuals were float sums, one per zero
    modes, hermite_calls = [], []

    def recorded_charlier(n, a, nu, mode="float"):
        modes.append(mode)
        return charlier_direct(n, a, nu, mode)

    def recorded_hermite(nu, x):
        hermite_calls.append(nu)
        return hermite_fn(nu, x)

    monkeypatch.setattr(charlier, "charlier_direct", recorded_charlier)
    monkeypatch.setattr(zeros, "hermite_fn", recorded_hermite)
    hermite_zeros_in_order(0.0, 2.5, 3.5, 64)
    scan, hermite_calls[:] = hermite_calls[:], []
    a_values = (100.0, 400.0, 1600.0, 6400.0)
    assert all(r.error is None for r in zero_convergence_table(0.0, 3.0, a_values))
    assert modes == ["rational"] * 4 and hermite_calls == scan
    modes.clear()
    assert all(r.error is None for r in zero_convergence_table(0.5, 1.66, a_values))
    assert modes == []
    assert len(charlier_zeros_in_order(20, 10.0, 0.0, 300.0)) == 20
    assert count_positive_zeros(60, 30.0) == 60 and modes == []


def test_zero_table_rows_are_capped_before_any_count(monkeypatch):
    # 2a overflows at 9e307 and at the largest double; at 1e20 a count would
    # take 1.1e11 rows, and 1e31 is past the counts' range of a.  Each row
    # fails before any run of the pivots takes its rows: a run is recorded
    # once it returns, and _pivots refuses one at its first line
    runs, kernel = [], zeros._pivots

    def recorded(*args, **kw):
        runs.append(kernel(*args, **kw))
        return runs[-1]

    monkeypatch.setattr(zeros, "_pivots", recorded)
    rows = zero_convergence_table(0.0, 3.0, [9e307, sys.float_info.max, 1e20, 1e31])
    assert runs == [] and [r.n for r in rows] == [-1] * 4
    assert [r.error.split(" ")[:2] for r in rows[:2]] == [["derived", "degree"]] * 2
    assert re.search(r"nu=3.0 takes 1146\d{8} rows, more than 4194304$", rows[2].error), rows[2]
    assert rows[3].error == "a must be a finite number <= 1e+30, got 1e+31"
    assert zero_convergence_table(0.0, 3.0, [1e4])[0].error is None and runs


def test_zero_table_past_readme_scale_does_not_load_numpy(fresh_cli):
    # a full scan spent the process's Python term budget at these a and
    # loaded numpy partway through
    code, out, err, numpy_loaded = fresh_cli("zeros", "convergence", "--x", "0", "--target-nu", "3",
                                             "--a-list", "1e4,4e4,1.6e5,6.4e5")
    assert (code, numpy_loaded) == (0, False)
    assert len(out.splitlines()) == 5 and err.startswith("fitted slope -0.50")


def _polynomial(roots, sign):
    return lambda v: sign * math.prod(v - r for r in roots)


def test_scan_zeros_are_bracketed(monkeypatch):
    # hermite_zeros_in_order's scan on polynomials in place of H_nu(x).  On
    # a grid of integer multiples of a power of two the nodes are exact, so
    # roots on nodes, end nodes included, are exact zeros of f there, and
    # each is found.  Other roots fall anywhere, within a cell or two of a
    # point on either side, twice over (no sign change) or outside the
    # range, which may then hold no root.  Every zero found is bracketed
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(2, 80), st.integers(-6, 6), st.integers(-50, 50),
                      st.lists(st.integers(-5, 85), max_size=4),
                      st.lists(st.floats(-0.2, 1.2), max_size=3),
                      st.lists(st.floats(-2.5, 2.5), max_size=3),
                      st.sampled_from([(), (0.37,), (0.37, 0.37)]),
                      st.integers(-10, 170), st.sampled_from([1.0, -1.0]))
    @hypothesis.example(9, 0, 0, [2, 6], [], [], (), 8, 1.0)
    @hypothesis.example(9, 0, 0, [2, 6], [], [], (), 8, -1.0)
    @hypothesis.example(64, -3, 5, [], [], [], (), 60, 1.0)     # no root
    @hypothesis.example(64, -3, 5, [0, 63], [], [], (), 126, 1.0)  # both end nodes
    @hypothesis.example(20, 0, 0, [], [], [-0.9, 1.2], (), 21, 1.0)
    @hypothesis.example(20, 0, 0, [], [], [0.7, -1.2], (), 21, 1.0)
    def check(grid, power, offset, node_roots, fractions, near, double, half_point, sign):
        step = 2.0 ** power
        lo, hi = offset * step, (offset + grid - 1) * step
        point = lo + 0.5 * half_point * step
        roots = [lo + i * step for i in node_roots]
        roots += [lo + u * (hi - lo) for u in fractions]
        roots += [point + u * step for u in near]
        roots += [lo + u * (hi - lo) for u in double]
        f = _polynomial(roots, sign)
        monkeypatch.setattr(zeros, "hermite_fn", lambda nu, x: f(nu))
        found = hermite_zeros_in_order(0.0, lo, hi, grid)
        for z in found:
            _assert_bracketed(f, z)
        assert [z.root for z in found] == sorted(z.root for z in found)
        on_nodes = {lo + i * step for i in node_roots if 0 <= i < grid}
        assert on_nodes <= {z.root for z in found}, (on_nodes, found)

    check()


def test_scan_zeros_of_hermite_windows_are_bracketed():
    # seeded windows of H_nu(x) in nu, at grids of 64 and 128
    rng = np.random.default_rng(12)
    for _ in range(30):
        x = float(rng.uniform(-2.0, 2.0))
        lo = float(rng.uniform(-4.0, 6.0))
        hi = lo + float(rng.uniform(0.5, 4.0))
        found = hermite_zeros_in_order(x, lo, hi, int(rng.choice([64, 128])))
        for z in found:
            _assert_bracketed(lambda nu: hermite_fn(nu, x), z)
        assert [z.root for z in found] == sorted(z.root for z in found)
