"""Charlier polynomials at real arguments, Hermite functions of real
order, and empirical verification that the scaled Charlier value
converges to the Hermite function at rate 1/sqrt(a).

The public names load their module on first use (PEP 562), so that
`import charlier_hermite` imports no submodule and a command line run
imports only the modules it calls.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "asymptotics": ("SplitConfig", "SplitReport", "TrapezoidCheck", "f_nu", "factor_p",
                    "factor_q", "head_tail_split", "trapezoid_gamma_check"),
    "charlier": ("ScaledPoint", "charlier_backward_step", "charlier_direct",
                 "charlier_order_shift", "scaled_y"),
    "errors": ("ConvergenceError", "DomainError"),
    "hermite": ("hermite_derivative", "hermite_fn"),
    "polygon": ("PolygonTrace", "apriori_deviation_bound", "charlier_state_trace",
                "euler_polygon", "system_matrix_norm_bound", "trace_deviation"),
    "ratefit": ("RateFit", "SharpnessResult", "admissible_sharpness_pairs", "fit_rate",
                "sharpness_check"),
    "special": ("kummer_m", "ln_gamma", "pochhammer_rising", "reciprocal_gamma",
                "upper_incomplete_gamma"),
    "zeros": ("ZeroConvergenceRow", "ZeroResult", "charlier_zeros_in_order",
              "count_positive_zeros", "hermite_zeros_in_order", "zero_convergence_table"),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
