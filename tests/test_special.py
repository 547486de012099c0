import math
from fractions import Fraction

import numpy as np
import pytest

from charlier_hermite import (
    ConvergenceError,
    DomainError,
    PoleError,
    kummer_m,
    ln_gamma,
    pochhammer_rising,
    reciprocal_gamma,
    upper_incomplete_gamma,
)

# Oracle values below were computed independently with mpmath at 50 digits
# and frozen; rounded here to 17 significant digits.

UPPER_GAMMA_ORACLE = [
    # (s, z, Gamma(s, z)); covers both the series branch (z < s+1) and
    # the continued-fraction branch (z >= s+1)
    (0.5, 0.2, 0.93424138310224966),
    (0.5, 3.0, 0.025356509323463443),
    (2.5, 1.0, 1.1288027918891023),
    (2.5, 10.0, 0.0016613173117794601),
    (7.0, 3.5, 672.99257013915335),
    (1.25, 2.25, 0.14049197406365270),
    (4.0, 4.9, 1.6760694710205793),
]

KUMMER_ORACLE = [
    # (alpha, beta, z, M(alpha; beta; z))
    (-0.25, 0.5, 0.25, 0.86670842414856823),
    (0.25, 1.5, 0.25, 1.0444168912823167),
    (-1.85, 0.5, 1.0, -1.6287958908064547),
    (1.3, 2.7, -4.2, 0.22561989080357216),
    (2.0, 0.5, 3.0, 277.51030242701317),
    (-0.5, 1.5, 6.25, -6.7821144980350139),
]

RECIPROCAL_GAMMA_ORACLE = [
    (-0.5, -0.28209479177387814),
    (0.37, 0.41605125403933811),
    (-3.6, 4.0509259242813002),
]


def test_ln_gamma_positive_values():
    assert ln_gamma(1.0).log == 0.0
    assert ln_gamma(1.0).sign == 1
    assert math.isclose(ln_gamma(5.0).log, math.log(24.0), rel_tol=1e-15)
    assert math.isclose(ln_gamma(0.5).log, math.log(math.sqrt(math.pi)), rel_tol=1e-15)


def test_ln_gamma_negative_sign_alternates():
    # Gamma is negative on (-1, 0), positive on (-2, -1), ...
    assert ln_gamma(-0.5).sign == -1
    assert ln_gamma(-1.5).sign == 1
    assert ln_gamma(-2.5).sign == -1
    # |Gamma(-0.5)| = 2 sqrt(pi)
    assert math.isclose(ln_gamma(-0.5).log, math.log(2.0 * math.sqrt(math.pi)), rel_tol=1e-14)


def test_ln_gamma_poles_raise():
    for x in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            ln_gamma(x)


def test_reciprocal_gamma_at_poles_is_exact_zero():
    for x in (0.0, -1.0, -3.0, -7.0):
        assert reciprocal_gamma(x) == 0.0


def test_reciprocal_gamma_values():
    assert reciprocal_gamma(1.0) == 1.0
    for x, want in RECIPROCAL_GAMMA_ORACLE:
        assert math.isclose(reciprocal_gamma(x), want, rel_tol=1e-14)


def test_reciprocal_gamma_outside_double_range_raises():
    # |Gamma(-199.5)| is about e^-859, so its reciprocal overflows
    with pytest.raises(DomainError, match="outside double range"):
        reciprocal_gamma(-199.5)


def test_pochhammer_rising():
    assert pochhammer_rising(3.7, 0) == 1
    assert pochhammer_rising(1, 4) == 24
    assert pochhammer_rising(-2, 3) == 0
    # stays exact for Fraction input
    assert pochhammer_rising(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer_rising(Fraction(-5, 2), 2) == Fraction(15, 4)


def test_upper_gamma_trivial_forms():
    assert math.isclose(upper_incomplete_gamma(3.0, 0.0), 2.0, rel_tol=1e-15)
    for z in (0.1, 1.0, 4.0):
        assert math.isclose(upper_incomplete_gamma(1.0, z), math.exp(-z), rel_tol=1e-13)
    # Gamma(2, 1) = 2/e by parts
    assert math.isclose(upper_incomplete_gamma(2.0, 1.0), 2.0 / math.e, rel_tol=1e-13)


def test_upper_gamma_against_oracle():
    for s, z, want in UPPER_GAMMA_ORACLE:
        assert math.isclose(upper_incomplete_gamma(s, z), want, rel_tol=1e-12), (s, z)


def test_upper_gamma_recurrence():
    # Gamma(s+1, z) = s Gamma(s, z) + z^s e^{-z}
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = float(rng.uniform(0.3, 6.0))
        z = float(rng.uniform(0.05, 12.0))
        lhs = upper_incomplete_gamma(s + 1.0, z)
        rhs = s * upper_incomplete_gamma(s, z) + z ** s * math.exp(-z)
        assert math.isclose(lhs, rhs, rel_tol=1e-11), (s, z)


def test_upper_gamma_branch_continuity():
    # the series/continued-fraction switch at z = s+1 must not jump
    s = 1.5
    below = upper_incomplete_gamma(s, s + 1.0 - 1e-9)
    above = upper_incomplete_gamma(s, s + 1.0 + 1e-9)
    assert abs(below - above) < 1e-9


def test_kummer_trivial_forms():
    assert kummer_m(0.3, 1.7, 0.0) == 1.0
    for z in (0.5, 2.0, -1.25):
        assert math.isclose(kummer_m(0.75, 0.75, z), math.exp(z), rel_tol=1e-13)


def test_kummer_polynomial_termination_is_exact():
    # alpha = -1 terminates after the linear term: 1 - 2z for beta = 1/2
    z = 3.7
    assert kummer_m(-1.0, 0.5, z) == 1.0 - 2.0 * z
    # alpha = -2, beta = 0.5: 1 - 4z + (4/3) z^2 via the explicit series
    z = 0.8
    want = 1.0 - 4.0 * z + (-2.0) * (-1.0) / (0.5 * 1.5) * z * z / 2.0
    assert math.isclose(kummer_m(-2.0, 0.5, z), want, rel_tol=1e-15)


def test_kummer_against_oracle():
    for a, b, z, want in KUMMER_ORACLE:
        assert math.isclose(kummer_m(a, b, z), want, rel_tol=1e-12), (a, b, z)


def test_kummer_pole_in_beta_raises():
    for b in (0.0, -1.0, -3.0):
        with pytest.raises(PoleError):
            kummer_m(0.5, b, 1.0)
    # negative-integer alpha hitting the same beta pole first still raises
    with pytest.raises(PoleError):
        kummer_m(2.5, -2.0, 0.3)


def test_kummer_iteration_cap_raises():
    # |z| far beyond the iteration cap cannot converge in 10^4 terms
    with pytest.raises(ConvergenceError):
        kummer_m(0.25, 0.5, 22500.0)
