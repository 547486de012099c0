"""Over the whole float domain of the public float evaluators, with a up
to 1e300 and |nu| up to 1e300, and for every integer argument of the
public functions, each call returns finite values or raises DomainError or
ConvergenceError: no other exception, no inf or nan, and no work that
grows with a past the term cap."""

import dataclasses
import inspect
import math
from fractions import Fraction

import pytest

import charlier_hermite
from charlier_hermite import (
    ConvergenceError,
    DomainError,
    ScaledPoint,
    SplitConfig,
    admissible_sharpness_pairs,
    charlier_backward_step,
    charlier_direct,
    charlier_order_shift,
    charlier_state_trace,
    charlier_zeros_in_order,
    count_positive_zeros,
    euler_polygon,
    f_nu,
    factor_p,
    factor_q,
    head_tail_split,
    hermite_at_zero,
    hermite_fn,
    hermite_zeros_in_order,
    ln_gamma,
    pochhammer_rising,
    reciprocal_gamma,
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


def _finite(value) -> bool:
    """Whether every number in value is finite: ints and Fractions are, and
    dataclasses, lists, tuples and numpy arrays are looked into."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, field.name) for field in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return all(map(_finite, value))
    if isinstance(value, float):
        return math.isfinite(value)
    if hasattr(value, "dtype"):
        return bool(value.size == 0 or abs(value).max() < math.inf)
    return value is None or isinstance(value, (int, Fraction))


def _assert_finite_or_typed_error(f, *args):
    try:
        value = f(*args)
    except (DomainError, ConvergenceError):
        return
    assert _finite(value), (f.__name__, args, value)


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
@hypothesis.example(19.762342385326264, 27.67237623592319)  # a Kummer sum ends as nan
@hypothesis.example(-1e308, 0.0)  # 1/Gamma at 5e307, past ln Gamma's range
def test_hermite_fn_is_finite_or_refused(nu, x):
    _assert_finite_or_typed_error(hermite_fn, nu, x)
    _assert_finite_or_typed_error(hermite_at_zero, nu)


@_SETTINGS
@hypothesis.given(_X)
@hypothesis.example(1e308)  # ln Gamma overflows; 1/Gamma is 0.0
def test_gamma_is_finite_or_refused(x):
    _assert_finite_or_typed_error(ln_gamma, x)
    _assert_finite_or_typed_error(reciprocal_gamma, x)


def test_gamma_past_double_range():
    with pytest.raises(DomainError, match="outside double range"):
        ln_gamma(1e308)
    assert reciprocal_gamma(1e308) == 0.0
    assert hermite_at_zero(-1e308) == 0.0


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


# Values that no integer check may let through as an int, or must refuse.
_NOT_INTEGERS = (math.nan, math.inf, -math.inf, True, False, 2.5, -1,
                 10 ** 5000, -10 ** 5000, 10 ** 400)


def _integers(lo, hi):
    """The hostile values, the integers from lo to hi, and the same as floats."""
    valid = st.integers(lo, hi)
    return st.one_of(st.sampled_from(_NOT_INTEGERS), valid, valid.map(float))


# Every public function with an integer parameter: the function, and a
# strategy for its argument tuples, which draws each integer argument from
# _integers and keeps the others valid.
_INTEGER_CALLS = {
    "charlier_direct": (charlier_direct, st.one_of(
        st.tuples(_integers(0, 10 ** 18), st.just(3.5), st.just(1.5)),
        st.tuples(_integers(0, 60), st.just(2), st.just(Fraction(1, 2)), st.just("rational")))),
    "charlier_order_shift": (charlier_order_shift, st.tuples(
        _integers(0, 10 ** 308), st.just(2.0), st.just(0.5), st.just(1.0), st.just(0.5))),
    "charlier_backward_step": (charlier_backward_step, st.tuples(
        _integers(0, 10 ** 308), st.just(2.0), st.just(0.5), st.just(1.0), st.just(0.5))),
    "charlier_zeros_in_order": (charlier_zeros_in_order, st.tuples(
        _integers(0, 8), st.just(3.0), st.just(0.0), st.just(8.0), _integers(0, 64))),
    "hermite_zeros_in_order": (hermite_zeros_in_order, st.tuples(
        st.just(0.0), st.just(0.5), st.just(2.0), _integers(0, 256))),
    "count_positive_zeros": (count_positive_zeros, st.tuples(_integers(0, 6), st.just(2.0))),
    "pochhammer_rising": (pochhammer_rising, st.tuples(st.just(0.5), _integers(0, 2000))),
    "factor_p": (factor_p, st.tuples(_integers(0, 50), _integers(0, 10 ** 6))),
    "factor_q": (factor_q, st.tuples(_integers(0, 10 ** 6), st.just(1.5))),
    "trapezoid_gamma_check": (trapezoid_gamma_check, st.tuples(
        st.just(-3.5), _integers(0, 1000), _integers(0, 2000), st.just(0.05))),
    "euler_polygon": (euler_polygon, st.tuples(
        st.just(1.0), st.just((0.0, 2.0)), st.just(1.0), st.just(0.1), _integers(-2, 2))),
    "charlier_state_trace": (charlier_state_trace, st.tuples(
        st.just(1.0), st.just(100.0), st.just(1.0), _integers(-2, 2))),
    "admissible_sharpness_pairs": (
        lambda r: admissible_sharpness_pairs((r,)), st.tuples(_integers(0, 300))),
}


def test_every_integer_parameter_is_in_the_table():
    # a public function with an int-annotated parameter must be drawn below
    for names in charlier_hermite._NAMES.values():
        for name in names:
            f = getattr(charlier_hermite, name)
            if inspect.isfunction(f) and any(
                    p.annotation in (int, "int") for p in inspect.signature(f).parameters.values()):
                assert name in _INTEGER_CALLS, name


@hypothesis.settings(_SETTINGS, max_examples=400)
@hypothesis.given(st.sampled_from(sorted(_INTEGER_CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), _INTEGER_CALLS[name][1])))
@hypothesis.example(("charlier_direct", (math.inf, 1.0, 1.0)))
@hypothesis.example(("charlier_direct", (10 ** 400, 1.0, 1.0)))
@hypothesis.example(("factor_p", (1, math.inf)))
@hypothesis.example(("factor_p", (0, math.nan)))
@hypothesis.example(("factor_q", (-10 ** 5000, 1.0)))
@hypothesis.example(("factor_q", (math.nan, 1.0)))
@hypothesis.example(("charlier_state_trace", (1.0, 100.0, 1.0, 1.0)))
@hypothesis.example(("charlier_order_shift", (1, math.nan, 1.0, 1.0, 1.0)))
@hypothesis.example(("charlier_backward_step", (1, math.inf, 1.0, 1.0, 0.5)))
@hypothesis.example(("count_positive_zeros", (True, 2.0)))
@hypothesis.example(("count_positive_zeros", (16385, 2.0)))  # the first grid is over the cap
@hypothesis.example(("count_positive_zeros", (6, 1e6)))  # not confirmed by the cap
@hypothesis.example(("pochhammer_rising", (2, True)))
@hypothesis.example(("pochhammer_rising", (1e300, 2)))
@hypothesis.example(("trapezoid_gamma_check", (-3.5, True, 10, 0.05)))
def test_integer_arguments_are_taken_or_refused(case):
    name, args = case
    _assert_finite_or_typed_error(_INTEGER_CALLS[name][0], *args)


def test_integer_caps_precede_any_work(monkeypatch):
    # a count or scan over the grid cap, and a rising factorial over the
    # factor cap, are refused before the first evaluation or product
    from charlier_hermite import zeros
    calls = []
    monkeypatch.setattr(zeros, "charlier_direct", lambda *args: calls.append(args))
    monkeypatch.setattr(zeros, "hermite_fn", lambda *args: calls.append(args))

    class Counted(float):
        def __add__(self, other):
            calls.append(other)
            return float(self) + other

    for f, args in [(count_positive_zeros, (16385, 2.0)),
                    (hermite_zeros_in_order, (0.0, 0.5, 2.0, 65537)),
                    (charlier_zeros_in_order, (2, 3.0, 0.0, 8.0, 65537)),
                    (pochhammer_rising, (Counted(0.5), 10 ** 6 + 1))]:
        with pytest.raises(DomainError, match="must be an integer <= "):
            f(*args)
    assert calls == []
    assert pochhammer_rising(Counted(0.5), 2) == 0.75 and calls == [0, 1]


def test_integer_rule():
    # an int, a numpy integer or an integral finite float is taken as that
    # int; a bool, a non-integral or non-finite value, another type and a
    # value out of bounds are refused, the message naming the bound missed
    import numpy as np
    from charlier_hermite.errors import _integer
    assert [_integer(v, "n") for v in (3, 3.0, np.int64(3), np.float64(3.0))] == [3] * 4
    assert type(_integer(3.0, "n")) is int and _integer(-1, "d", -1, 1, 2) == -1
    for value in (True, False, math.nan, math.inf, -math.inf, 2.5, Fraction(3), "3",
                  np.bool_(True), np.array(3.0)):
        with pytest.raises(DomainError, match=r"^n must be an integer >= 0, got "):
            _integer(value, "n")
    for args, message in [((-1, "n"), "n must be an integer >= 0, got -1"),
                          ((10 ** 400, "n"), "n must be an integer <= 1.7976931348623157e+308, "
                                             "got a 1329-bit integer"),
                          ((-10 ** 5000, "k", 1), "k must be an integer >= 1, "
                                                  "got a negative 16610-bit integer"),
                          ((5, "k", 0, 3), "k must be an integer <= 3, got 5"),
                          ((2.5, "k", 0, 3), "k must be an integer from 0 to 3, got 2.5"),
                          ((3, "r", 2, 256, 2), "r must be an even integer from 2 to 256, got 3"),
                          ((0, "direction", -1, 1, 2),
                           "direction must be an odd integer from -1 to 1, got 0")]:
        with pytest.raises(DomainError) as info:
            _integer(*args)
        assert str(info.value) == message
    # bools that public functions took as 1 before
    for f, args in [(count_positive_zeros, (True, 2.0)), (pochhammer_rising, (2, True)),
                    (trapezoid_gamma_check, (-3.5, True, 10, 0.05)),
                    (euler_polygon, (1.0, (0.0, 2.0), 1.0, 0.1, True))]:
        with pytest.raises(DomainError, match="must be an"):
            f(*args)
