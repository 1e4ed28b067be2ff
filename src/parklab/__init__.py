"""Saturation statistics of the rate-biased parking process.

Solvers for the mean, its derivative, and the second moment of the number of
unit cars parked at saturation; certified brackets for the asymptotic
packing density, intercept, and variance slope; and a reproducible Monte
Carlo simulator for cross-validation.  Tail bounds, bracket maps and the
quadrature are importable from their modules.
"""

from .constants import constants_report
from .core import Bracket, ConstantsReport, DomainError, Params, SegmentedGrid
from .envelope import window_extrema
from .montecarlo import SimConfig, SimStats, run_mc
from .solver import (
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
    "Params",
    "SegmentedGrid",
    "SimConfig",
    "SimStats",
    "constants_report",
    "run_checks",
    "run_mc",
    "solve_mean",
    "solve_mean_derivative",
    "solve_second_moment",
    "solve_uniform_mean_derivative",
    "window_extrema",
]
