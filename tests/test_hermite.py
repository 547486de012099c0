import math
import random

import numpy as np
import pytest

from charlier_hermite import (
    ConvergenceError,
    DomainError,
    hermite_derivative,
    hermite_fn,
)
from charlier_hermite.special import SQRT_PI, reciprocal_gamma

# mpmath (50 digits) oracle, frozen to 17 digits; mpmath's own real-order
# hermite agrees with these to ~1e-49
HERMITE_ORACLE = [
    # (nu, x, H_nu(x))
    (-1.5, 0.0, 0.69136733903629335),
    (-1.5, 0.5, 0.36125859096030485),
    (-1.5, 1.0, 0.21799859693440946),
    (0.5, 0.0, 0.69136733903629335),
    (0.5, 0.5, 1.1333107688132871),
    (0.5, 1.0, 1.4812843960614078),
    (1.5, 0.0, -1.0227656721131687),
    (1.5, 0.5, 0.36125859096030485),
    (1.5, 1.0, 2.3309258925593165),
    (3.7, 0.0, 7.8596320394681026),
    (3.7, 0.5, -3.4292577003599530),
    (3.7, 1.0, -14.750150876761914),
    (0.5, -0.8, -0.49290985542418275),
    (-2.5, 1.7, 0.028450622723492714),
    (2.2, -1.3, 5.8546926450386900),
]


def hermite_coefficients(n: int) -> list:
    # H_{k+1} = 2x H_k - 2k H_{k-1}, coefficient form, exact ints
    polys = [[1], [0, 2]]
    for k in range(1, n):
        prev, cur = polys[k - 1], polys[k]
        nxt = [0] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        polys.append(nxt)
    return polys[n]


def test_low_order_closed_forms():
    for x in (-1.5, 0.0, 0.3, 2.0):
        # the pole-safe prefactor product costs one rounding, so H_0 is
        # 1 to an ulp rather than literally 1.0
        assert math.isclose(hermite_fn(0.0, x), 1.0, rel_tol=1e-15)
        assert math.isclose(hermite_fn(1.0, x), 2.0 * x, rel_tol=1e-14, abs_tol=1e-15)
    assert math.isclose(hermite_fn(2.0, 0.5), -1.0, rel_tol=1e-13)
    for x in (-1.1, 0.25, 0.9):
        assert math.isclose(hermite_fn(3.0, x), 8.0 * x ** 3 - 12.0 * x, rel_tol=1e-12)


def test_integer_order_polynomial_match():
    xs = np.linspace(-2.0, 2.0, 9)
    for n in range(9):
        coeffs = hermite_coefficients(n)
        for x in xs:
            want = sum(c * float(x) ** i for i, c in enumerate(coeffs))
            got = hermite_fn(float(n), float(x))
            assert math.isclose(got, want, rel_tol=1e-11, abs_tol=1e-10), (n, x)


def test_integer_order_parity():
    for n in range(9):
        for x in (0.3, 1.1, 1.9):
            left = hermite_fn(float(n), -x)
            right = (-1.0) ** n * hermite_fn(float(n), x)
            assert math.isclose(left, right, rel_tol=1e-11, abs_tol=1e-12), (n, x)


def test_against_oracle():
    for nu, x, want in HERMITE_ORACLE:
        assert math.isclose(hermite_fn(nu, x), want, rel_tol=1e-12), (nu, x)


def test_at_zero():
    assert math.isclose(hermite_fn(0.0, 0.0), 1.0, rel_tol=1e-15)
    assert math.isclose(hermite_fn(2.0, 0.0), -2.0, rel_tol=1e-14)
    # odd positive orders sit on Gamma poles
    for nu in (1.0, 3.0, 5.0):
        assert hermite_fn(nu, 0.0) == 0.0
    # H_nu(0) = 2^nu sqrt(pi) / Gamma((1-nu)/2)
    for nu in (-1.5, 0.5, 1.5, 3.7, 2.2):
        want = 2.0 ** nu * math.sqrt(math.pi) / math.gamma((1.0 - nu) / 2.0)
        assert math.isclose(hermite_fn(nu, 0.0), want, rel_tol=1e-13), nu


def test_at_zero_is_the_closed_form_or_refused():
    # H_nu(0) = 2^nu sqrt(pi) / Gamma((1-nu)/2) over nu in [-400, 400) by 0.1:
    # bit for bit where that is a double, refused as hermite_fn refuses it where
    # it is not (nu from 268.7 to 343.1), and 0 exactly at odd nu, where the
    # odd half, +-0.0 at x = 0, has a 1/Gamma past double range (nu >= 343)
    for i in range(-4000, 4000):
        nu = i / 10.0
        try:
            want = 2.0 ** nu * SQRT_PI * reciprocal_gamma((1.0 - nu) / 2.0)
        except DomainError:
            want = math.inf
        if math.isfinite(want):
            assert hermite_fn(nu, 0.0).hex() == want.hex(), nu
        else:
            with pytest.raises(DomainError, match="outside double range"):
                hermite_fn(nu, 0.0)
    for nu in (272.0, 300.5):
        with pytest.raises(DomainError, match=r"^H_nu\(x\) at nu=.*, x=0.0 is outside double "):
            hermite_fn(nu, 0.0)
    assert hermite_fn(343.0, 0.0) == hermite_fn(343.0, -0.0) == 0.0


def test_at_zero_is_zero_at_odd_nu_past_the_overflow_of_2_to_nu():
    # 2^nu overflows from nu = 1024 on, but at odd nu below 2^53 H_nu(0) is the
    # even half's signed zero; from 2^53 on (1 - nu)/2 is rounded (onto a pole
    # from 2^53 + 2 on), every double is even and H_nu(0) is past double range
    for nu in (1025.0, 1027.0, 2.0 ** 52 + 1, 2.0 ** 53 - 1):
        pole = reciprocal_gamma((1.0 - nu) / 2.0)
        for x in (0.0, -0.0):
            assert hermite_fn(nu, x).hex() == pole.hex() == (0.0).hex(), (nu, x)
    for nu in (1025.5, 1026.0, 2.0 ** 53, 2.0 ** 53 + 2):
        with pytest.raises(DomainError, match="outside double range"):
            hermite_fn(nu, 0.0)


def test_derivative_closed_forms():
    for x in (-0.7, 0.0, 1.3):
        assert hermite_derivative(0.0, x) == 0.0
        assert math.isclose(hermite_derivative(1.0, x), 2.0, rel_tol=1e-14)
        assert math.isclose(hermite_derivative(2.0, x), 8.0 * x, rel_tol=1e-13, abs_tol=1e-14)


def test_derivative_vs_central_difference():
    # O(h^2): halving h must quarter the difference error
    for nu, x in ((0.5, 0.4), (-1.5, 1.2), (3.7, 0.9)):
        errs = []
        for h in (1e-3, 5e-4):
            fd = (hermite_fn(nu, x + h) - hermite_fn(nu, x - h)) / (2.0 * h)
            errs.append(abs(fd - hermite_derivative(nu, x)))
        ratio = errs[1] / errs[0]
        assert 0.15 <= ratio <= 0.35, (nu, x, ratio)


def test_recurrence_residual():
    # H_{nu+1} - 2x H_nu + 2nu H_{nu-1} = 0
    rng = np.random.default_rng(29)
    for _ in range(300):
        nu = float(rng.uniform(-4.0, 4.0))
        x = float(rng.uniform(-2.0, 2.0))
        hm, h0, hp = (hermite_fn(nu + d, x) for d in (-1.0, 0.0, 1.0))
        residual = hp - 2.0 * x * h0 + 2.0 * nu * hm
        scale = max(1.0, abs(hp), abs(2.0 * x * h0), abs(2.0 * nu * hm))
        assert abs(residual) <= 1e-10 * scale, (nu, x)


def test_ode_residual_via_derivative_rule():
    # y'' = 2x y' - 2nu y with y'' = 2nu * d/dx H_{nu-1} = 4nu(nu-1) H_{nu-2}
    rng = np.random.default_rng(31)
    for _ in range(300):
        nu = float(rng.uniform(-4.0, 4.0))
        x = float(rng.uniform(-2.0, 2.0))
        ypp = 2.0 * nu * hermite_derivative(nu - 1.0, x)
        yp = hermite_derivative(nu, x)
        y = hermite_fn(nu, x)
        residual = ypp - 2.0 * x * yp + 2.0 * nu * y
        scale = max(1.0, abs(ypp), abs(2.0 * x * yp), abs(2.0 * nu * y))
        assert abs(residual) <= 1e-10 * scale, (nu, x)


def test_large_argument_raises():
    # the Kummer series cannot converge within its iteration cap here; where
    # x^2 is past double range the argument is refused instead (exit 1, not 2)
    with pytest.raises(ConvergenceError):
        hermite_fn(0.5, 150.0)
    with pytest.raises(DomainError, match="outside double range"):
        hermite_fn(0.5, 1e200)


def test_order_past_double_range_raises():
    # 2^nu overflows; at nu = 1e17 and 1e300 both gamma reciprocals are 0
    for nu in (1e17, 1e300):
        with pytest.raises(DomainError, match="outside double range"):
            hermite_fn(nu, 0.0)


def test_hermite_fn_is_the_frozen_series_bit_for_bit(kummer_reference):
    # hermite_fn's formula over the frozen Kummer series: the denominator
    # tables must give the same double, error and message everywhere
    def reference(nu, x):
        x2 = x * x
        even = reciprocal_gamma((1.0 - nu) / 2.0) * kummer_reference(-nu / 2.0, 0.5, x2)[0]
        odd = 2.0 * x * reciprocal_gamma(-nu / 2.0) * kummer_reference((1.0 - nu) / 2.0, 1.5, x2)[0]
        return 2.0 ** nu * SQRT_PI * (even - odd)

    def outcome(f, nu, x):
        try:
            return f(nu, x).hex()
        except Exception as exc:  # noqa: BLE001, an error is an outcome too
            return f"{type(exc).__name__}: {exc}"

    rng = random.Random(2021)
    cases = [(float(rng.randint(-12, 12)) if i % 5 == 0 else rng.uniform(-12.0, 12.0),
              rng.uniform(-10.0, 10.0)) for i in range(1500)]  # every fifth nu an integer
    cases += [(rng.uniform(-12.0, 12.0), x) for x in (0.0, -0.0, 5e-324, -1e-310, 2.2e-308)
              for _ in range(4)]
    cases += [(0.5, 150.0)]
    want = [outcome(reference, *case) for case in cases]
    assert [outcome(hermite_fn, *case) for case in cases] == want
    assert want[-1] == ("ConvergenceError: kummer_m series did not converge for "
                        "alpha=-0.25, beta=0.5, z=22500.0")
