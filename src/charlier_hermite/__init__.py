"""Charlier polynomials at real arguments, Hermite functions of real
order, and empirical verification that the scaled Charlier value
converges to the Hermite function at rate 1/sqrt(a)."""

from .asymptotics import (
    SplitConfig,
    SplitReport,
    TrapezoidCheck,
    f_nu,
    factor_p,
    factor_q,
    head_tail_split,
    term_T,
    trapezoid_gamma_check,
)
from .charlier import (
    ScaledPoint,
    charlier_backward_step,
    charlier_degree_sequence,
    charlier_direct,
    charlier_order_shift,
    scaled_y,
)
from .errors import (
    ConvergenceError,
    DegenerateArgumentError,
    DomainError,
    PoleError,
    RationalModeError,
)
from .hermite import hermite_at_zero, hermite_derivative, hermite_fn
from .polygon import (
    PolygonTrace,
    apriori_deviation_bound,
    charlier_state_trace,
    euler_polygon,
    system_matrix,
    system_matrix_norm_bound,
    trace_deviation,
)
from .ratefit import (
    RateFit,
    SharpnessResult,
    admissible_sharpness_pairs,
    fit_rate,
    sharpness_check,
)
from .special import (
    LnGamma,
    kummer_m,
    ln_gamma,
    pochhammer_rising,
    reciprocal_gamma,
    upper_incomplete_gamma,
)
from .zeros import (
    ZeroConvergenceRow,
    ZeroResult,
    charlier_zeros_in_order,
    count_positive_zeros,
    hermite_zeros_in_order,
    zero_convergence_table,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DegenerateArgumentError",
    "DomainError",
    "LnGamma",
    "PoleError",
    "PolygonTrace",
    "RateFit",
    "RationalModeError",
    "ScaledPoint",
    "SharpnessResult",
    "SplitConfig",
    "SplitReport",
    "TrapezoidCheck",
    "ZeroConvergenceRow",
    "ZeroResult",
    "admissible_sharpness_pairs",
    "apriori_deviation_bound",
    "charlier_backward_step",
    "charlier_degree_sequence",
    "charlier_direct",
    "charlier_order_shift",
    "charlier_state_trace",
    "charlier_zeros_in_order",
    "count_positive_zeros",
    "euler_polygon",
    "f_nu",
    "factor_p",
    "factor_q",
    "fit_rate",
    "head_tail_split",
    "hermite_at_zero",
    "hermite_derivative",
    "hermite_fn",
    "hermite_zeros_in_order",
    "kummer_m",
    "ln_gamma",
    "pochhammer_rising",
    "reciprocal_gamma",
    "scaled_y",
    "sharpness_check",
    "system_matrix",
    "system_matrix_norm_bound",
    "term_T",
    "trace_deviation",
    "trapezoid_gamma_check",
    "upper_incomplete_gamma",
    "zero_convergence_table",
]
