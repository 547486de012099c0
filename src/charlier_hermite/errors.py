"""Exception types shared across the package, its one check each for
integer, float and exact-rational arguments and for float results, and
its one node cap.

The CLI maps DomainError to exit code 1 and ConvergenceError to exit code 2.
"""

import math
import sys

# The most nodes of trapezoid_gamma_check, of a state trace and of plot fnu's
# rows, checked before any is built: 10^6 f_nu calls took 0.37 s
_MAX_NODES = 1_000_000


class DomainError(ValueError):
    """An input violates a documented precondition."""


class ConvergenceError(RuntimeError):
    """An iterative scheme hit its iteration cap before converging."""


def _integer(value, name: str, lo: int = 0, hi=sys.float_info.max, step: int = 1) -> int:
    """value as an int, where it is an int (numpy's too, not a bool) or an integral finite
    float in [lo, hi], for step 2 of lo's parity; else DomainError naming the bound missed."""
    if type(value) is int and lo <= value <= hi and step == 1:  # the fast path
        return value
    try:
        i = None if isinstance(value, bool) else value.__index__()
    except (AttributeError, TypeError):  # a float (not integral at nan, +-inf), or no number
        i = int(value) if isinstance(value, float) and value.is_integer() else None
    if i is not None and lo <= i <= hi and (i - lo) % step == 0:
        return i
    kind = "an integer" if step == 1 else ("an even", "an odd")[lo % 2] + " integer"
    bounds = (f"<= {_text(hi)}" if i is not None and i > hi else
              f">= {_text(lo)}" if hi >= sys.float_info.max or i is not None and i < lo else
              f"from {_text(lo)} to {_text(hi)}")
    raise DomainError(f"{name} must be {kind} {bounds}, got {_text(value)}")


def _real(value, name: str, lo=-sys.float_info.max, hi=sys.float_info.max,
          strict: bool = False) -> float:
    """float(value), where value is an int, float, Fraction or numpy real (not a bool) whose
    float is finite, at least lo (above it where strict) and at most hi; else DomainError
    naming the bound missed.  A site gives at most one of lo and hi."""
    f = value if type(value) is float else None  # the fast path
    if f is None and not isinstance(value, bool):
        import numbers  # here, as the command line loads this module and seldom needs it
        if isinstance(value, numbers.Real):
            try:
                f = float(value)
            except OverflowError:  # an int or a Fraction past the largest double
                pass
    # nan fails every comparison, and +-inf lie outside the default bounds
    if f is not None and (lo < f if strict else lo <= f) and f <= hi:
        return f
    bound = (f" {'>' if strict else '>='} {_text(lo)}" if lo > -sys.float_info.max else
             f" <= {_text(hi)}" if hi < sys.float_info.max else "")
    raise DomainError(f"{name} must be a finite number{bound}, got {_text(value)}")


def _rational(value, name: str, positive: bool = False):
    """Fraction(value), where value is an int, a float (at its binary value), a Fraction or a
    decimal string, not a bool, and above 0 where positive; else DomainError."""
    import fractions  # here, as the float path seldom needs it
    try:
        f = None if isinstance(value, bool) else fractions.Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):  # nan, +-inf, "x", ...
        f = None
    if f is None:
        raise DomainError(f"{name}={value!r} is not an exact rational")
    if positive and f <= 0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return f


def _finite(value, what: str, *args):
    """value, where it is a finite float or a tuple or list of them; else DomainError
    "<what.format(*args)> is outside double range", the message formatted only then.  A
    callable value is called first, and its OverflowError (math.exp, math.lgamma,
    math.gamma and ** raise one where the result would be +-inf) counts as a value outside
    double range."""
    if type(value) is float and value - value == 0.0:  # the fast path: inf - inf is nan
        return value
    if callable(value):
        try:
            value = value()
        except OverflowError:
            value = math.inf
    finite = (all(map(math.isfinite, value)) if isinstance(value, (tuple, list))
              else math.isfinite(value))
    if finite:
        return value
    raise DomainError(f"{what.format(*args)} is outside double range")


def _text(value) -> str:
    """repr(value), or the size of an int past 2^64 (str() refuses 4301 digits) or of a
    longer Fraction."""
    if type(value) is int and abs(value).bit_length() > 64:
        return f"a {'negative ' * (value < 0)}{abs(value).bit_length()}-bit integer"
    try:
        return repr(value)
    except ValueError:  # a Fraction with more digits than Python's limit
        return f"a {type(value).__name__} past {sys.get_int_max_str_digits()} digits"
