"""Saturation statistics of the rate-biased parking process.

Solvers for the mean, its derivative, and the second moment of the number of
unit cars parked at saturation; certified brackets for the asymptotic
packing density, intercept, and variance slope; and a reproducible Monte
Carlo simulator for cross-validation.
"""

from .constants import (
    TailBound,
    constants_report,
    crude_mean_tail,
    crude_second_moment_tail,
    crude_width_formula,
    crude_xmean_tail,
    density_bracket,
    envelope_mean_tail,
    envelope_second_moment_tail,
    intercept_bracket,
    truncated_laplace,
    variance_slope_bracket,
)
from .core import (
    Bracket,
    ConstantsReport,
    DomainError,
    Params,
    SegmentedGrid,
    lower_count_bound,
    mean_closed,
    mean_derivative_closed,
    upper_count_bound,
)
from .envelope import NESTING_TOL, check_nesting, window_extrema
from .montecarlo import (
    SimConfig,
    SimStats,
    run_mc,
    sample_truncated_exp,
    saturation_count,
    z_diagnostics,
)
from .solver import (
    integrate_weighted,
    solve_mean,
    solve_mean_derivative,
    solve_second_moment,
    solve_uniform_mean_derivative,
)
from .validation import CheckResult, run_checks

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "CheckResult",
    "ConstantsReport",
    "DomainError",
    "NESTING_TOL",
    "Params",
    "SegmentedGrid",
    "SimConfig",
    "SimStats",
    "TailBound",
    "check_nesting",
    "constants_report",
    "crude_mean_tail",
    "crude_second_moment_tail",
    "crude_width_formula",
    "crude_xmean_tail",
    "density_bracket",
    "envelope_mean_tail",
    "envelope_second_moment_tail",
    "integrate_weighted",
    "intercept_bracket",
    "lower_count_bound",
    "mean_closed",
    "mean_derivative_closed",
    "run_checks",
    "run_mc",
    "sample_truncated_exp",
    "saturation_count",
    "solve_mean",
    "solve_mean_derivative",
    "solve_second_moment",
    "solve_uniform_mean_derivative",
    "truncated_laplace",
    "upper_count_bound",
    "variance_slope_bracket",
    "window_extrema",
    "z_diagnostics",
]
