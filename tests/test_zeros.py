import math
import warnings

import numpy as np
import pytest

from charlier_hermite import (
    DomainError,
    charlier_zeros_in_order,
    count_positive_zeros,
    fit_rate,
    hermite_zeros_in_order,
    zero_convergence_table,
)
from charlier_hermite.zeros import _scan

# smallest nu-zero of H_nu(1) in (0, 3); mpmath bisection at 50 digits
HERMITE_NU_ZERO_AT_X1 = 2.5371955308039388


def test_single_zero_of_linear_charlier():
    for a in (3.0, 7.0):
        roots = charlier_zeros_in_order(1, a, 0.0, 3.0 * a, grid=64)
        assert len(roots) == 1
        assert math.isclose(roots[0].root, a, rel_tol=1e-11)
        assert roots[0].bracket_lo <= roots[0].root <= roots[0].bracket_hi


def test_quadratic_charlier_zeros():
    # c_2^2 vanishes at ((2a+1) +- sqrt(4a+1))/2 = {1, 4}
    roots = charlier_zeros_in_order(2, 2.0, 0.0, 10.0, grid=128)
    assert len(roots) == 2
    assert math.isclose(roots[0].root, 1.0, abs_tol=1e-10)
    assert math.isclose(roots[1].root, 4.0, abs_tol=1e-10)
    assert all(r.root > 0 for r in roots)


def test_roots_are_positive_and_ordered():
    for n, a in ((3, 2.0), (5, 4.0), (4, 10.0)):
        hi = a + 4.0 * n * math.sqrt(a)
        roots = charlier_zeros_in_order(n, a, 0.0, hi, grid=512)
        values = [r.root for r in roots]
        assert values == sorted(values)
        assert all(v > 0 for v in values)


def test_zero_count_warning_on_coarse_exhaustive_scan():
    # both zeros of c_2^2 fall inside one 7-wide cell, so their sign
    # changes cancel and the exhaustive scan comes up short
    with pytest.warns(UserWarning):
        charlier_zeros_in_order(2, 2.0, 0.0, 14.0, grid=3)
    # a truncated range is allowed to miss zeros silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        charlier_zeros_in_order(3, 5.0, 0.0, 2.0, grid=64)


def test_count_positive_zeros_equals_degree():
    for n, a in ((1, 2.0), (2, 2.0), (4, 3.0), (6, 5.0)):
        assert count_positive_zeros(n, a) == n


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
def test_charlier_scan_finds_a_zero_on_an_end_node(lo, hi):
    # c_5^5(1) = 1 + 5 (-1)/5 = 0: the only terms are k = 0 and k = 1
    assert [z.root for z in charlier_zeros_in_order(5, 5.0, lo, hi, grid=8)] == [1.0]


def test_zeros_on_both_end_nodes_are_counted_once():
    roots = hermite_zeros_in_order(0.0, 1.0, 3.0, grid=5)
    assert [z.root for z in roots] == [1.0, 3.0]


def test_zero_results_are_python_floats():
    # exact hits on interior and end nodes, and bracketed sign changes
    results = (hermite_zeros_in_order(0.0, 0.0, 4.0, grid=5)
               + charlier_zeros_in_order(5, 5.0, 0.5, 1.0, grid=8)
               + charlier_zeros_in_order(2, 2.0, 0.0, 10.0, grid=128))
    assert len(results) == 5
    for z in results:
        assert type(z.root) is float
        assert type(z.bracket_lo) is float and type(z.bracket_hi) is float


def test_hermite_zero_at_x1_against_oracle():
    roots = hermite_zeros_in_order(1.0, 0.5, 3.0, grid=256)
    assert len(roots) >= 1
    assert math.isclose(roots[0].root, HERMITE_NU_ZERO_AT_X1, abs_tol=1e-10)


def test_residual_and_iteration_reporting():
    roots = charlier_zeros_in_order(2, 2.0, 0.0, 10.0, grid=128)
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
    # the float path exactly; the located roots match to solver width.
    from charlier_hermite import charlier_direct

    for a in (100, 400, 1600, 6400):
        assert charlier_direct(a, float(a), 1.0) == 0.0
    rows = zero_convergence_table(0.0, 1.0, (100.0, 400.0, 1600.0, 6400.0))
    assert all(r.error is None for r in rows)
    assert all(r.abs_err <= 1e-12 for r in rows)


def test_zero_convergence_window_isolates_one_zero():
    # at a = 100 the pairing window around target 3 brackets exactly one
    # Charlier zero (scan oracle on the same window)
    rows = zero_convergence_table(0.0, 3.0, (100.0,))
    row = rows[0]
    assert row.error is None and math.isfinite(row.abs_err)
    lo, hi = 2.0, 4.0  # half-distance to the neighboring odd-integer zeros
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the window holds 1 of n zeros
        found = charlier_zeros_in_order(row.n, row.a, lo, hi, grid=512)
    assert len(found) == 1
    assert math.isclose(found[0].root, row.nu_n, rel_tol=1e-10)


def test_zero_convergence_carries_per_row_failures():
    # a below 1 cannot even form the degree; the row reports, others go on
    rows = zero_convergence_table(0.0, 3.0, (0.5, 100.0))
    assert rows[0].error is not None and math.isnan(rows[0].abs_err)
    assert rows[1].error is None


def test_charlier_zero_scan_validation():
    with pytest.raises(DomainError):
        charlier_zeros_in_order(2, 2.0, 5.0, 1.0, grid=64)
    with pytest.raises(DomainError):
        charlier_zeros_in_order(2, 2.0, 0.0, 10.0, grid=1)


def _scan_grid(lo, hi, grid):
    # _scan evaluates f at every node, in order, before any bisection; an f
    # with no sign change leaves exactly those calls
    nodes = []
    _scan(lambda v: nodes.append(v) or 1.0, lo, hi, grid)
    return nodes


def test_scan_grid_is_numpys_linspace():
    rng = np.random.default_rng(64)
    cases = [(0.0, 1.0, 2), (1e-12, 5.0, 1 << 16), (-3.5, 7.25, 1 << 16), (2.5, 3.5, 64),
             (-1e-300, 1e-300, 400), (1e6, 1e6 + 1e-6, 3)]
    for _ in range(500):
        lo = float(rng.uniform(-1e3, 1e3) * 10.0 ** rng.uniform(-6, 6))
        hi = lo + float(10.0 ** rng.uniform(-8, 6))
        cases.append((lo, hi, int(rng.choice([2, 3, 64, 128, 400, rng.integers(2, 5000)]))))
    for lo, hi, grid in cases:
        if hi > lo:
            assert _scan_grid(lo, hi, grid) == np.linspace(lo, hi, grid).tolist(), (lo, hi, grid)
