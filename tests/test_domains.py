"""For every real argument of the public functions, drawn over the whole
float domain (a up to 1e300, |nu| up to 1e300) and from hostile values
(nan, +-inf, bools, strings, None), and for every integer argument, each
call returns finite values or raises DomainError or ConvergenceError: no
other exception, no inf or nan, and no work that grows with a past the
term cap."""

import ast
import inspect
import math
import pathlib
import sys
from fractions import Fraction

import pytest

import charlier_hermite
from charlier_hermite import (
    ConvergenceError,
    DomainError,
    PolygonTrace,
    ScaledPoint,
    SplitConfig,
    admissible_sharpness_pairs,
    apriori_deviation_bound,
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
    fit_rate,
    head_tail_split,
    hermite_derivative,
    hermite_fn,
    hermite_zeros_in_order,
    kummer_m,
    ln_gamma,
    pochhammer_rising,
    reciprocal_gamma,
    scaled_y,
    sharpness_check,
    system_matrix_norm_bound,
    trapezoid_gamma_check,
    upper_incomplete_gamma,
    zero_convergence_table,
)

np = pytest.importorskip("numpy")
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
    records, lists, tuples and numpy arrays are looked into."""
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


def test_gamma_past_double_range():
    with pytest.raises(DomainError, match="outside double range"):
        ln_gamma(1e308)
    assert reciprocal_gamma(1e308) == 0.0
    assert hermite_fn(-1e308, 0.0) == 0.0


# Values that no float check may take as another number, or must refuse.
_HOSTILE_REALS = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e300, -1e300,
                  True, "1.5", None)


class _R:
    """A real argument: drawn from `valid`, or from _HOSTILE_REALS in its turn."""

    def __init__(self, valid):
        self.valid = valid


def _calls(f, *args):
    """(f, a strategy for its argument tuples, the positions of the real arguments):
    each argument is drawn from its strategy in args, and at most one real argument,
    one given as _R(strategy), from _HOSTILE_REALS instead."""
    reals = [i for i, arg in enumerate(args) if isinstance(arg, _R)]
    valid = st.tuples(*(arg.valid if isinstance(arg, _R) else arg for arg in args))
    hostile = st.tuples(valid, st.sampled_from(reals), st.sampled_from(_HOSTILE_REALS)).map(
        lambda d: d[0][:d[1]] + (d[2],) + d[0][d[1] + 1:])
    return f, st.one_of(valid, hostile), reals


def _count(n, a):
    # c_n^a has n positive zeros: the count is n, or refused
    count = count_positive_zeros(n, a)
    assert count == n, (n, a, count)
    return count


def _row(x, target_nu, a):
    # a failed row carries its message and nan by design: it is a refusal
    row, = zero_convergence_table(x, target_nu, [a])
    if row.error is not None:
        raise DomainError(row.error)
    return row


# Every public name with a real parameter, and sharpness_check, whose exact rationals
# must refuse nan, +-inf, bools and None with a typed error too; real arguments are
# drawn wide where calls are cheap.
_FLOAT_CALLS = {
    "ScaledPoint": _calls(ScaledPoint, _R(_X), _R(_A)),
    "scaled_y": _calls(lambda x, a, nu: scaled_y(ScaledPoint(x, a), nu), _R(_X), _R(_A), _R(_NU)),
    "charlier_direct": _calls(charlier_direct, st.integers(0, 10 ** 18), _R(_A), _R(_NU)),
    "charlier_order_shift": _calls(charlier_order_shift, st.integers(0, 100), _R(_A), _R(_NU),
                                   _R(_X), _R(_X)),
    "charlier_backward_step": _calls(charlier_backward_step, st.integers(1, 100), _R(_A),
                                     _R(_X), _R(_X), _R(_X)),
    "SplitConfig": _calls(lambda a, nu: head_tail_split(SplitConfig(a, nu)), _R(_A), _R(_NU)),
    "f_nu": _calls(f_nu, _R(st.floats(0.0, 1e300)), _R(_NU)),
    "factor_q": _calls(factor_q, st.integers(1, 10 ** 400), _R(_NU)),
    "trapezoid_gamma_check": _calls(
        lambda nu, M, rows, dt: trapezoid_gamma_check(nu, M, M + rows, dt),
        _R(st.floats(-1e300, -3.0)), st.integers(0, 10 ** 6), st.integers(0, 1000), _R(_A)),
    "hermite_fn": _calls(hermite_fn, _R(_NU), _R(_X)),
    # H_nu(0): |nu| <= 1e3 reaches the band where it overflows (268.7 to 343.1)
    "hermite_fn at x=0": _calls(lambda nu: hermite_fn(nu, 0.0),
                                _R(st.one_of(st.floats(-1e3, 1e3), _NU))),
    "hermite_derivative": _calls(hermite_derivative, _R(_NU), _R(_X)),
    "kummer_m": _calls(kummer_m, _R(_X), _R(_X), _R(_X)),
    "ln_gamma": _calls(ln_gamma, _R(_X)),
    "reciprocal_gamma": _calls(reciprocal_gamma, _R(_X)),
    "pochhammer_rising": _calls(pochhammer_rising, _R(_X), st.integers(0, 20)),
    "upper_incomplete_gamma": _calls(upper_incomplete_gamma, _R(_A), _R(st.floats(0.0, 1e300))),
    "PolygonTrace": _calls(lambda step: PolygonTrace(np.zeros(1), np.zeros((1, 2)), step), _R(_A)),
    "system_matrix_norm_bound": _calls(system_matrix_norm_bound, _R(_X), _R(_NU)),
    "apriori_deviation_bound": _calls(apriori_deviation_bound, *[_R(_X)] * 6),
    "euler_polygon": _calls(lambda nu, y, dy, x_max, dx: euler_polygon(nu, (y, dy), x_max, dx),
                            _R(_NU), _R(_X), _R(_X), _R(st.floats(0.0, 10.0)),
                            _R(st.floats(1e-3, 1e300))),
    "charlier_state_trace": _calls(charlier_state_trace, _R(st.floats(-12.0, 12.0)),
                                   _R(st.floats(5.0, 1e4)), _R(st.floats(0.0, 2.0))),
    "fit_rate": _calls(lambda a, err: fit_rate([(10.0, 0.1), (a, err), (1e4, 0.01)]),
                       _R(_A), _R(_A)),
    "sharpness_check": _calls(sharpness_check, _R(st.just(Fraction(1, 2))), _R(st.just(2))),
    "charlier_zeros_in_order": _calls(charlier_zeros_in_order, st.integers(1, 4),
                                      _R(st.floats(0.5, 100.0)), _R(st.floats(-10.0, 0.0)),
                                      _R(st.floats(0.5, 20.0))),
    "hermite_zeros_in_order": _calls(hermite_zeros_in_order, _R(st.floats(-8.0, 8.0)),
                                     _R(st.floats(-8.0, 0.0)), _R(st.floats(0.5, 8.0))),
    "count_positive_zeros": _calls(_count, st.integers(1, 64), _R(_A)),
    "zero_convergence_table": _calls(_row, _R(st.floats(-1.0, 1.0)), _R(st.floats(0.0, 4.0)),
                                     _R(st.floats(50.0, 2000.0))),
}
# The records that functions return: they hold results, and check nothing.
_RESULTS = {"RateFit", "SplitReport", "TrapezoidCheck", "ZeroConvergenceRow", "ZeroResult"}
# The inputs named when the float rule came in, and earlier finds, by table entry.
_FLOAT_EXAMPLES = {
    # a bool; x^2 = inf; a Kummer sum ends as nan; 1/Gamma at 5e307; H past double range
    "hermite_fn": [(True, 0.0), (0.5, 1e200), (19.762342385326264, 27.67237623592319),
                   (-1e308, 0.0), (205.0, 20.0)],
    "hermite_derivative": [(198.0, 20.0)],  # H_197(20) = -1.4e307 is a double, 396 times it not
    # H_nu(0) past double range, where 1/Gamma((1-nu)/2) is not; 0 at odd nu, where
    # 1/Gamma(-nu/2) overflows
    "hermite_fn at x=0": [(-1e308,), (272.0,), (300.5,), (343.0,)],
    "ln_gamma": [(1e308,)],  # ln Gamma overflows
    "reciprocal_gamma": [(1e308,)],  # 1/Gamma is 0.0
    "charlier_direct": [(5, "2", "1"), (5, math.inf, 1, "rational"), (5, Fraction(10 ** 400), 1.0)],
    "f_nu": [("1", 1.0)],
    "upper_incomplete_gamma": [(True, 1.0)],
    "factor_q": [(1, -200.0), (1, -1e300), (10 ** 400, 0.5), (10 ** 306, 0.5)],
    # a subnormal, below the count's range; inside it; past it; the largest double
    "count_positive_zeros": [(1, -1.0), (1, 5e-324), (4, 1e-300), (4, 1e300),
                             (4, sys.float_info.max)],
    # 2a overflows: the derived degree is floor(nan) at x = 0, floor(-inf) elsewhere
    "zero_convergence_table": [(0.5, 1.66, 1e308), (0.0, 3.0, 1e308),
                               (0.5, 1.66, sys.float_info.max)],
    "euler_polygon": [(1.0, math.nan, 1.0, 1.0, 0.1), (1e300, 1.0, 1.0, 1.0, 0.1)],
    "system_matrix_norm_bound": [(math.nan, 1.0), (1e300, 1.0)],
    "apriori_deviation_bound": [(1.0, 0.1, 1.0, 0.0, 1e3, 1e3)],
    "sharpness_check": [(0, math.inf)],
}


def _real_parameters(f) -> list:
    """The parameters of f annotated as real: float."""
    return [p.name for p in inspect.signature(f).parameters.values()
            if "float" in str(p.annotation)]


def test_every_real_parameter_is_in_the_table():
    # a public function or record class with a real parameter must be drawn below, each
    # of its real parameters (at least as many real arguments as it has)
    scanned = set()
    for names in charlier_hermite._NAMES.values():
        for name in names:
            f = getattr(charlier_hermite, name)
            if (inspect.isfunction(f) or hasattr(f, "_fields")) and name not in _RESULTS \
                    and _real_parameters(f):
                scanned.add(name)
                assert name in _FLOAT_CALLS, name
                assert len(_FLOAT_CALLS[name][2]) >= len(_real_parameters(f)), name
    # the records built from reals are seen through their constructors
    assert {"PolygonTrace", "ScaledPoint", "SplitConfig"} <= scanned


@pytest.mark.parametrize("name", sorted(_FLOAT_CALLS))
def test_real_arguments_are_taken_or_refused(name):
    # a bool, a str or None as a real argument is refused, if not by the rule then by
    # an earlier check; sharpness_check reads exact rationals, and "1.5" is one
    f, args, reals = _FLOAT_CALLS[name]
    refused = (bool, type(None)) if name == "sharpness_check" else (bool, str, type(None))

    @_SETTINGS
    @hypothesis.given(args)
    def check(drawn):
        if any(isinstance(drawn[i], refused) for i in reals):
            with pytest.raises(DomainError):
                f(*drawn)
        else:
            _assert_finite_or_typed_error(f, *drawn)

    for example in _FLOAT_EXAMPLES.get(name, ()):
        check = hypothesis.example(example)(check)
    check()


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
        _integers(0, 8), st.just(3.0), st.just(0.0), st.just(8.0))),
    "hermite_zeros_in_order": (hermite_zeros_in_order, st.tuples(
        st.just(0.0), st.just(0.5), st.just(2.0), _integers(0, 256))),
    "count_positive_zeros": (_count, st.tuples(_integers(0, 6), st.just(2.0))),
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
# the message of the bits cap printed a 5000-digit count: ValueError
@hypothesis.example(("charlier_direct", (10 ** 5000, 2, Fraction(1, 2), "rational")))
@hypothesis.example(("factor_p", (1, math.inf)))
@hypothesis.example(("factor_p", (0, math.nan)))
@hypothesis.example(("factor_q", (-10 ** 5000, 1.0)))
@hypothesis.example(("factor_q", (math.nan, 1.0)))
@hypothesis.example(("charlier_state_trace", (1.0, 100.0, 1.0, 1.0)))
@hypothesis.example(("charlier_order_shift", (1, math.nan, 1.0, 1.0, 1.0)))
@hypothesis.example(("charlier_backward_step", (1, math.inf, 1.0, 1.0, 0.5)))
@hypothesis.example(("count_positive_zeros", (True, 2.0)))
@hypothesis.example(("count_positive_zeros", (16385, 2.0)))  # over the cap
@hypothesis.example(("charlier_zeros_in_order", (16385, 3.0, 0.0, 8.0)))  # over the same cap
@hypothesis.example(("count_positive_zeros", (6, 1e6)))  # the grid scan raised ConvergenceError
@hypothesis.example(("pochhammer_rising", (2, True)))
@hypothesis.example(("pochhammer_rising", (1e300, 2)))
@hypothesis.example(("trapezoid_gamma_check", (-3.5, True, 10, 0.05)))
def test_integer_arguments_are_taken_or_refused(case):
    name, args = case
    _assert_finite_or_typed_error(_INTEGER_CALLS[name][0], *args)


def test_integer_caps_precede_any_work(monkeypatch):
    # a count or a bisection over the degree cap, a scan over the grid cap,
    # and a rising factorial over the factor cap, are refused before the
    # first pivot, evaluation or product
    from charlier_hermite import charlier, zeros
    calls = []
    for module, name in ((zeros, "_zeros_below"), (charlier, "charlier_direct"),
                         (zeros, "hermite_fn")):
        monkeypatch.setattr(module, name, lambda *args: calls.append(args))

    class Counted(float):
        def __add__(self, other):
            calls.append(other)
            return float(self) + other

    for f, args in [(count_positive_zeros, (16385, 2.0)),
                    (hermite_zeros_in_order, (0.0, 0.5, 2.0, 65537)),
                    (charlier_zeros_in_order, (16385, 3.0, 0.0, 8.0)),
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


def test_real_rule():
    # an int, a float, a Fraction or a numpy real is taken as its float; a bool, a str,
    # None, nan, +-inf, a value past double range and a value out of bounds are refused,
    # the message naming the bound missed
    from charlier_hermite.errors import _real
    values = (3, 3.0, Fraction(3), np.int64(3), np.float32(3.0), np.float64(3.0))
    assert [_real(v, "x") for v in values] == [3.0] * 6
    assert all(type(_real(v, "x")) is float for v in values)
    assert _real(0, "t", 0) == 0.0 and _real(5e-324, "a", 0, strict=True) == 5e-324
    for value in (True, False, "1.5", None, math.nan, math.inf, -math.inf, np.bool_(True),
                  1j, 10 ** 400, Fraction(10 ** 400)):
        with pytest.raises(DomainError, match=r"^x must be a finite number, got "):
            _real(value, "x")
    for args, message in [((0.0, "a", 0, sys.float_info.max, True),
                           "a must be a finite number > 0, got 0.0"),
                          ((-1.0, "t", 0), "t must be a finite number >= 0, got -1.0"),
                          ((-2.0, "nu", -sys.float_info.max, -3),
                           "nu must be a finite number <= -3, got -2.0"),
                          ((-10 ** 400, "x"), "x must be a finite number, got a negative "
                                              "1329-bit integer"),
                          ((Fraction(10 ** 5000), "x"), "x must be a finite number, got a "
                                                        "Fraction past 4300 digits")]:
        with pytest.raises(DomainError) as info:
            _real(*args)
        assert str(info.value) == message
    # inputs that public functions took before as numbers
    for f, args in [(hermite_fn, (True, 0.0)), (charlier_direct, (5, "2", "1")),
                    (upper_incomplete_gamma, ("2", 1.0)), (kummer_m, (1, True, 1.0)),
                    (ScaledPoint, (0.0, True)), (fit_rate, [[(10, 1), (True, 1), (100, 1)]])]:
        with pytest.raises(DomainError, match=" must be a finite number"):
            f(*args)


def test_rational_rule():
    # an int, a float, a Fraction, a numpy integer or a decimal string is taken as its
    # exact value; a bool, nan, +-inf, None and a string that is no number are refused
    # with "... is not an exact rational", and a value <= 0 where it must be positive
    # with "... must be positive", both DomainError
    from charlier_hermite.errors import _rational
    values = (3, 3.0, Fraction(3), np.int64(3), "3", "6/2")
    assert [_rational(v, "a", positive=True) for v in values] == [3] * 6
    assert _rational(0.1, "x") == Fraction(0.1) != _rational("0.1", "x") == Fraction(1, 10)
    for value in (True, False, np.bool_(True), math.nan, math.inf, None, "1/0", "x"):
        with pytest.raises(DomainError) as info:
            _rational(value, "nu")
        assert str(info.value) == f"nu={value!r} is not an exact rational"
    for value in (0, -1, "-1/2"):
        with pytest.raises(DomainError) as info:
            _rational(value, "a", positive=True)
        assert type(info.value) is DomainError
        assert str(info.value) == f"a must be positive, got {value!r}"
    # bools that rational mode took as the rational 1 before
    for f, args in [(charlier_direct, (5, True, 1, "rational")),
                    (charlier_direct, (5, 2, True, "rational")),
                    (sharpness_check, (True, 2)), (sharpness_check, (0, True)),
                    (lambda nu: scaled_y(ScaledPoint(0.0, 2.0), nu, "rational"), (True,))]:
        with pytest.raises(DomainError, match="=True is not an exact rational$"):
            f(*args)


def test_result_rule():
    # a finite float, or a tuple or list of them, is returned as it is; a value that is
    # not finite, and a callable's OverflowError, are refused with one message form,
    # formatted only then
    from charlier_hermite.errors import _finite

    class Unformatted:
        def __format__(self, spec):
            raise AssertionError("formatted")

    assert _finite(1.5, "{}", Unformatted()) == 1.5
    assert _finite((1.0, -0.0), "{}", Unformatted()) == (1.0, -0.0)
    assert _finite([5e-324], "{}", Unformatted()) == [5e-324]
    assert _finite(lambda: 2.0 ** 3, "{}", Unformatted()) == 8.0
    for value in (math.inf, -math.inf, math.nan, (1.0, math.nan), [math.inf],
                  lambda: 2.0 ** 1e4, lambda: math.exp(1e3), lambda: math.inf - math.inf):
        with pytest.raises(DomainError) as info:
            _finite(value, "f({!r}) at n={}", 0.5, 3)
        assert type(info.value) is DomainError
        assert str(info.value) == "f(0.5) at n=3 is outside double range"
    with pytest.raises(ZeroDivisionError):  # only an overflow counts as past double range
        _finite(lambda: 1.0 / 0.0, "x")


def test_only_errors_builds_the_result_message():
    # no other module builds an "outside double range" message, or turns an
    # OverflowError into a DomainError: each float result leaves through _finite
    source = pathlib.Path(charlier_hermite.__file__).parent
    for path in sorted(source.glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and id(node) not in docstrings:
                assert "outside double range" not in str(node.value), (path.name, node.lineno)
            if isinstance(node, ast.ExceptHandler) and "OverflowError" in ast.unparse(node.type):
                assert not any(isinstance(n, ast.Raise) for n in ast.walk(node)), \
                    (path.name, node.lineno)
