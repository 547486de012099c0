"""Over the whole float domain of the public float evaluators, with a up
to 1e300 and |nu| up to 1e300, each call returns finite doubles or raises
DomainError or ConvergenceError: no other exception, no inf or nan, and
no work that grows with a past the term cap."""

import dataclasses
import math

import pytest

from charlier_hermite import (
    ConvergenceError,
    DomainError,
    ScaledPoint,
    SplitConfig,
    charlier_direct,
    f_nu,
    factor_p,
    factor_q,
    head_tail_split,
    hermite_at_zero,
    hermite_fn,
    scaled_y,
    trapezoid_gamma_check,
    upper_incomplete_gamma,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# No shrinking: a failure is reported as found, at the first example that
# shows it, and cannot lead the search into slow inputs.
_SETTINGS = hypothesis.settings(
    max_examples=100, deadline=None, derandomize=True,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate])
_A = st.floats(0.0, 1e300, exclude_min=True)
_NU = st.floats(-1e300, 1e300)
_X = st.floats(-1e300, 1e300)


def _assert_finite_or_typed_error(f, *args):
    try:
        value = f(*args)
    except (DomainError, ConvergenceError):
        return
    values = dataclasses.astuple(value) if dataclasses.is_dataclass(value) else (value,)
    assert all(math.isfinite(v) for v in values if v is not None), (f.__name__, args, value)


@_SETTINGS
@hypothesis.given(st.integers(0, 10 ** 18), _A, _NU)
def test_charlier_direct_is_finite_or_refused(n, a, nu):
    _assert_finite_or_typed_error(charlier_direct, n, a, nu)


@_SETTINGS
@hypothesis.given(_X, _A, _NU)
def test_scaled_y_is_finite_or_refused(x, a, nu):
    _assert_finite_or_typed_error(lambda: scaled_y(ScaledPoint(x, a), nu))


@_SETTINGS
@hypothesis.given(_A, _NU)
def test_head_tail_split_is_finite_or_refused(a, nu):
    _assert_finite_or_typed_error(lambda: head_tail_split(SplitConfig(a, nu)))


@_SETTINGS
@hypothesis.given(_NU, _X)
def test_hermite_fn_is_finite_or_refused(nu, x):
    _assert_finite_or_typed_error(hermite_fn, nu, x)
    _assert_finite_or_typed_error(hermite_at_zero, nu)


@_SETTINGS
@hypothesis.given(st.floats(0.0, 1e300), _NU)
def test_f_nu_is_finite_or_refused(t, nu):
    _assert_finite_or_typed_error(f_nu, t, nu)


@_SETTINGS
@hypothesis.given(_A, st.floats(0.0, 1e300))
def test_upper_incomplete_gamma_is_finite_or_refused(s, z):
    _assert_finite_or_typed_error(upper_incomplete_gamma, s, z)


@_SETTINGS
@hypothesis.given(st.floats(-1e300, -3.0), st.integers(0, 10 ** 6), st.integers(0, 1000), _A)
def test_trapezoid_gamma_check_is_finite_or_refused(nu, M, rows, dt):
    _assert_finite_or_typed_error(trapezoid_gamma_check, nu, M, M + rows, dt)


@_SETTINGS
@hypothesis.given(st.integers(1, 10 ** 400), _NU)
@hypothesis.example(1, -200.0)
@hypothesis.example(1, -1e300)
@hypothesis.example(10 ** 400, 0.5)
@hypothesis.example(10 ** 306, 0.5)
def test_factor_q_is_finite_or_refused(k, nu):
    _assert_finite_or_typed_error(factor_q, k, nu)


@_SETTINGS
@hypothesis.given(st.integers(1, 10 ** 400).flatmap(
    lambda A: st.tuples(st.integers(0, A), st.just(A))))
@hypothesis.example((1, 10 ** 400))
@hypothesis.example((1, 10 ** 306))
def test_factor_p_is_finite_or_refused(k_and_A):
    _assert_finite_or_typed_error(factor_p, *k_and_A)
