"""Certified brackets for the asymptotic constants of the parking process.

The packing density c, the mean's intercept b, and the variance slope d are
all functionals of Laplace integrals of the solved grids evaluated at the
placement rate.  Each integral is split into a truncated part (quadrature
over the solved horizon) plus a tail bounded two ways:

* crude tails integrate the hard counting bounds (floor(x) above,
  ceil((x-1)/2) below, and their squares for the second moment) as geometric
  series in closed form;
* envelope tails integrate the linear envelopes value_at_n + slope*(x - n),
  with the slopes certified by the derivative window extrema.

Brackets propagate through the closed-form identities by endpoint
enumeration; every identity here is monotone in each bracketed input except
for one concave quadratic, whose vertex is enumerated alongside the
endpoints.  Exponentially large and small factors are combined symbolically
first (the identities are evaluated in a form where every e^lam multiplies an
O(e^-lam) integral), so rates up to several hundred neither overflow nor lose
the leading digits to cancellation.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import envelope as _envelope
from . import montecarlo as _mc
from . import solver as _solver
from .core import (
    Bracket,
    ConstantsReport,
    DomainError,
    Params,
    SegmentedGrid,
    TAIL_METHODS,
    _check_int,
    _check_rate,
    _check_resolution,
)

__all__ = [
    "UNIFORM_RATE_CUTOFF",
    "TailBound",
    "truncated_laplace",
    "crude_mean_tail",
    "crude_xmean_tail",
    "crude_second_moment_tail",
    "crude_width_formula",
    "envelope_mean_tail",
    "envelope_second_moment_tail",
    "laplace_bracket",
    "density_bracket",
    "intercept_bracket",
    "variance_slope_bracket",
    "constants_report",
]


@dataclass(frozen=True)
class TailBound(Bracket):
    """Bracket [lo, hi] on a Laplace-integral tail from truncation point n."""

    n: int

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "n", _check_truncation(self.n))


def truncated_laplace(grid: SegmentedGrid, lam: float, power: int) -> float:
    """Integral of x^power * grid(x) * e^(-lam*x) over the solved horizon.

    power 0 feeds the density, power 1 the intercept.  lam = 0 degrades to a
    plain (weighted-by-x^power) integral, handy for cross-checks.
    """
    if power not in (0, 1):
        raise DomainError(f"power must be 0 or 1, got {power!r}")
    weight = lambda t: t**power * np.exp(-lam * t)
    return _solver.integrate_weighted(grid, weight, 0, grid.horizon_n)


# ---------------------------------------------------------------------------
# Crude tails: geometric series of the step bounds, summed from k = n.
# Each closed form below is the exact telescoped series (unit intervals for
# the floor side, odd-index increments for the ceiling side) and is pinned
# against a brute-force series oracle in the test suite.

def _first_odd_from(n: int) -> int:
    return n + 1 if n % 2 == 0 else n + 2


def _crude_bound(lower: float, upper: float, n: int) -> TailBound:
    """The crude tail [lower, upper] with each end moved outward by one ulp, keeping them in order.

    No certificate: rounding exp(-lam*n) alone moves a tail 3.6e-15 relative at lam=21.7, n=3.
    """
    return TailBound(math.nextafter(lower, -math.inf), math.nextafter(upper, math.inf), n)


def crude_mean_tail(lam: float, n: int) -> TailBound:
    """Bounds on the tail of integral(lam * mean * e^(-lam*x), x = n..inf)."""
    lam, n = _check_tail_args(lam, n)
    q = math.exp(-lam)
    one_q = -math.expm1(-lam)
    one_q2 = -math.expm1(-2.0 * lam)
    upper = math.exp(-lam * n) * (n - (n - 1) * q) / one_q
    j0 = _first_odd_from(n)
    lower = math.ceil(n / 2) * math.exp(-lam * n) + math.exp(-lam * j0) / one_q2
    return _crude_bound(lower, upper, n)


def crude_xmean_tail(lam: float, n: int) -> TailBound:
    """Bounds on the tail of integral(lam^2 * x * mean * e^(-lam*x), n..inf)."""
    lam, n = _check_tail_args(lam, n)
    q = math.exp(-lam)
    one_q = -math.expm1(-lam)
    big_q = q * q
    one_bq = -math.expm1(-2.0 * lam)
    upper = (n * (lam * n + 1.0) * math.exp(-lam * n)
             + lam * math.exp(-lam * (n + 1)) * ((n + 1) - n * q) / one_q**2
             + math.exp(-lam * (n + 1)) / one_q)
    j0 = _first_odd_from(n)
    lower = (math.ceil(n / 2) * (lam * n + 1.0) * math.exp(-lam * n)
             + math.exp(-lam * j0) * ((lam * j0 + 1.0) * one_bq + 2.0 * lam * big_q) / one_bq**2)
    return _crude_bound(lower, upper, n)


def crude_second_moment_tail(lam: float, n: int) -> TailBound:
    """Bounds on the tail of integral(lam * second_moment * e^(-lam*x), n..inf)."""
    lam, n = _check_tail_args(lam, n)
    q = math.exp(-lam)
    one_q = -math.expm1(-lam)
    big_q = q * q
    one_bq = -math.expm1(-2.0 * lam)
    upper = (n * n * math.exp(-lam * n)
             + 2.0 * math.exp(-lam * (n + 1)) * ((n + 1) - n * q) / one_q**2
             - math.exp(-lam * (n + 1)) / one_q)
    j0 = _first_odd_from(n)
    lower = (math.ceil(n / 2) ** 2 * math.exp(-lam * n)
             + math.exp(-lam * j0) * (j0 * one_bq + 2.0 * big_q) / one_bq**2)
    return _crude_bound(lower, upper, n)


def crude_width_formula(lam: float, n: int) -> float:
    """Closed-form width of the crude density bracket at truncation n.

    Exactly (lam/(lam+1)) times the gap between the step-bound tails; the
    bracket construction must reproduce it to machine precision.  The leading
    term is floor(n/2)*e^(-lam*n), so the width decays like n*e^(-lam*n).
    """
    lam, n = _check_tail_args(lam, n)
    one_bq = -math.expm1(-2.0 * lam)
    j_even = n + 2 if n % 2 == 0 else n + 1  # first even > n
    gap = math.floor(n / 2) * math.exp(-lam * n) + math.exp(-lam * j_even) / one_bq
    return lam / (lam + 1.0) * gap


def _check_truncation(n: int) -> int:
    return _check_int("truncation point", n, lambda n: n >= 0, "an integer >= 0")


def _check_tail_args(lam: float, n: int) -> tuple[float, int]:
    return _check_rate(lam, solvable=True), _check_truncation(n)


# ---------------------------------------------------------------------------
# Envelope tails: the mean beyond the horizon is trapped between the lines
# value_at_n + inf_slope*(x - n) and value_at_n + sup_slope*(x - n).

def envelope_mean_tail(
    lam: float,
    n: int,
    value_at_n: float,
    inf_slope: float,
    sup_slope: float,
    power: int = 0,
) -> TailBound:
    """Tail bounds from the linear envelopes of the mean.

    power 0 bounds integral(lam * mean * e^(-lam*x)), power 1 bounds
    integral(lam^2 * x * mean * e^(-lam*x)).  Closed forms are elementary
    exponential-polynomial integrals, oracle-checked in the tests.
    """
    lam, n = _check_tail_args(lam, n)
    if not (0.0 <= inf_slope <= sup_slope):
        raise DomainError(
            f"need 0 <= inf_slope <= sup_slope, got {inf_slope!r}, {sup_slope!r}")
    if power not in (0, 1):
        raise DomainError(f"power must be 0 or 1, got {power!r}")
    e_n = math.exp(-lam * n)
    if power == 0:
        lower = e_n * (value_at_n + inf_slope / lam)
        upper = e_n * (value_at_n + sup_slope / lam)
    else:
        lower = e_n * (value_at_n * (lam * n + 1.0) + inf_slope * (lam * n + 2.0) / lam)
        upper = e_n * (value_at_n * (lam * n + 1.0) + sup_slope * (lam * n + 2.0) / lam)
    return TailBound(lower, upper, n)


def envelope_second_moment_tail(
    lam: float,
    n: int,
    value_at_n: float,
    inf_slope: float,
    sup_slope: float,
) -> TailBound:
    """Tail bounds on integral(lam * second_moment * e^(-lam*x), n..inf).

    Below, the second moment dominates the squared mean, hence the squared
    lower envelope.  Above, the count never exceeds floor(x), so the second
    moment is at most floor(x) times the mean's upper envelope; that side
    reuses the floor-tail series.
    """
    lam, n = _check_tail_args(lam, n)
    if not (0.0 <= inf_slope <= sup_slope):
        raise DomainError(
            f"need 0 <= inf_slope <= sup_slope, got {inf_slope!r}, {sup_slope!r}")
    a = value_at_n
    e_n = math.exp(-lam * n)
    lower = e_n * (a * a + 2.0 * a * inf_slope / lam + 2.0 * inf_slope**2 / lam**2)
    floor_tail = crude_mean_tail(lam, n).hi
    xfloor_tail = crude_xmean_tail(lam, n).hi
    upper = a * floor_tail + sup_slope * (xfloor_tail / lam - n * floor_tail)
    return TailBound(lower, upper, n)


# ---------------------------------------------------------------------------
# Bracket assembly.  laplace_bracket encloses P, X and P2, the integrals over
# 0..inf of lam*mean*e^(-lam*x), lam^2*x*mean*e^(-lam*x) and
# lam*second_moment*e^(-lam*x); each report encloses each of them once.  Then:
#   density   c = lam*(1 + P)/(lam + 1)
#   intercept b = ((1+P)*(2-lam^2) + 2*e^lam*(1+lam)*P - 2*(lam+1)
#                  - 2*(lam+1)*X) / (2*(lam+1)^2)
#   slope     d = 2*b*c + 2*c - 2*e^lam*P*c/(lam+1) + (lam*P2 - lam)/(lam+1)
# density_bracket(lam, p), intercept_bracket(lam, p, x) and
# variance_slope_bracket(lam, p, b, p2) map those Brackets through these.
# b is linear increasing in P and decreasing in X; d is linear increasing in
# b and P2 and concave quadratic in P.


def _density_from_p(lam: float, p: float) -> float:
    return lam / (lam + 1.0) * (1.0 + p)


def _intercept_from(lam: float, p: float, x: float) -> float:
    elam = math.exp(lam)
    num = ((1.0 + p) * (2.0 - lam * lam) + 2.0 * elam * (1.0 + lam) * p
           - 2.0 * (lam + 1.0) - 2.0 * (lam + 1.0) * x)
    return num / (2.0 * (lam + 1.0) ** 2)


def _slope_from(lam: float, p: float, b: float, p2: float) -> float:
    c = _density_from_p(lam, p)
    return (2.0 * b * c + 2.0 * c - 2.0 * math.exp(lam) * p * c / (lam + 1.0)
            + (lam * p2 - lam) / (lam + 1.0))


def laplace_bracket(lam: float, grid: Optional[SegmentedGrid], tail: TailBound, power: int) -> Bracket:
    """Bracket on lam^(1+power) * integral(x^power * grid * e^(-lam*x), 0..inf)."""
    if tail.n == 0:
        trunc = 0.0
    else:
        if grid is None:
            raise DomainError("a solved grid is required for truncation points n > 0")
        if grid.horizon_n != tail.n:
            raise DomainError(
                f"grid horizon {grid.horizon_n} differs from truncation point {tail.n}")
        trunc = truncated_laplace(grid, lam, power) * lam ** (1 + power)
    return Bracket(trunc + tail.lo, trunc + tail.hi)


def density_bracket(lam: float, p: Bracket) -> Bracket:
    """Enclosure of the limiting packing density mean(x)/x, from P."""
    return Bracket(_density_from_p(lam, p.lo), _density_from_p(lam, p.hi))


def intercept_bracket(lam: float, p: Bracket, x: Bracket) -> Bracket:
    """Enclosure of the additive constant in mean(x) ~ c*x + b, from P and X.

    The identity is increasing in P and decreasing in X, so the lower
    endpoint pairs P's lower bound with X's upper bound and vice versa.
    """
    return Bracket(_intercept_from(lam, p.lo, x.hi), _intercept_from(lam, p.hi, x.lo))


def variance_slope_bracket(lam: float, p: Bracket, b: Bracket, p2: Bracket) -> Bracket:
    """Enclosure of the linear growth rate of the count's variance.

    Increasing in b and in P2; concave quadratic in P, so the maximizing
    candidate set carries the vertex alongside the interval endpoints.
    """
    lo = min(_slope_from(lam, q, b.lo, p2.lo) for q in (p.lo, p.hi))
    hi_candidates = [p.lo, p.hi]
    p_vertex = 0.5 * ((b.hi + 1.0) * (lam + 1.0) * math.exp(-lam) - 1.0)
    if p.lo < p_vertex < p.hi:
        hi_candidates.append(p_vertex)
    hi = max(_slope_from(lam, q, b.hi, p2.hi) for q in hi_candidates)
    return Bracket(lo, hi)


def _brackets(
    lam: float,
    m_grid: Optional[SegmentedGrid],
    m2_grid: Optional[SegmentedGrid],
    tail: TailBound,
    xtail: TailBound,
    tail2: TailBound,
) -> tuple[Bracket, Bracket, Bracket]:
    """Brackets (c, b, d), enclosing each of P, X and P2 once."""
    p = laplace_bracket(lam, m_grid, tail, 0)
    b = intercept_bracket(lam, p, laplace_bracket(lam, m_grid, xtail, 1))
    d = variance_slope_bracket(lam, p, b, laplace_bracket(lam, m2_grid, tail2, 0))
    return density_bracket(lam, p), b, d


def _step_bound_brackets(lam: float) -> tuple[Bracket, Bracket, Bracket]:
    """Brackets (c, b, d) from the pure step-bound tails, nothing solved."""
    return _brackets(lam, None, None, crude_mean_tail(lam, 0), crude_xmean_tail(lam, 0),
                     crude_second_moment_tail(lam, 0))


# ---------------------------------------------------------------------------
# Grids shared within one validation run.  Outside ``_shared_grids`` every
# call solves afresh and nothing is kept; inside it each grid is solved once
# and dropped when the block exits.  Sharing is safe because grids are
# read-only.

_SHARED: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar("_SHARED", default=None)


@contextlib.contextmanager
def _shared_grids() -> Iterator[None]:
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _memo(key: tuple, solve: Callable[[], object]):
    memo = _SHARED.get()
    if memo is None:
        return solve()
    if key not in memo:
        memo[key] = solve()
    return memo[key]


def _mean_grids(params: Params) -> tuple[SegmentedGrid, SegmentedGrid]:
    """The mean grid and the second-moment grid built on it."""
    def solve():
        m_grid = _solver.solve_mean(params)
        return m_grid, _solver.solve_second_moment(params, m_grid)
    return _memo(("M, M2", params), solve)


def _derivative_grid(params: Params) -> SegmentedGrid:
    return _memo(("M'", params), lambda: _solver.solve_mean_derivative(params))


# ---------------------------------------------------------------------------
# Report assembly.

# Below this rate a report is the uniform limit's (_uniform_fallback_report).
# The solvers step at every accepted rate, but the bracket identities above
# cancel there: b and d both subtract terms of order 1/lam to leave O(1)
# constants, so the brackets' widths grow by that factor.
UNIFORM_RATE_CUTOFF = 1e-6

# A halving pools from 2*_MIN_PANELS_PER_WORKER fine M2 panels.  Pooled/inline
# medians (lam=1, 11-15 alternating reps, 2-CPU Xeon): 1.4x at (n, m) = (7, 512),
# 17920 panels, which validate keeps inline; 0.85-1.33x at (10, 256), 20480;
# 0.74-0.89x at (12, 256), 30720; 0.62-0.66x at (16, 256).  A contended host
# broke even near 36000.  `report`'s 215040 panels per grid pool.
_MIN_PANELS_PER_WORKER = 15_000


def constants_report(
    lam: float,
    horizon_n: int = 7,
    resolution_m: int = 256,
    tail_method: str = "envelope",
    with_halving_delta: bool = False,
) -> ConstantsReport:
    """Solve the grids and assemble brackets for all three constants.

    horizon_n = 0 skips solving entirely and uses pure step-bound tails
    (only the crude method exists there).  Horizons 1 and 2 are rejected:
    the seeds already cover [0, 3], so nothing shorter is ever solved.

    with_halving_delta also reports at about m/2 and returns the m report
    with ``quadrature_halving_delta``, the largest endpoint change.  When
    ``_resolve_workers`` gives the m report's M2 product panels two workers
    (never in a pool worker), a one-worker pool builds rows 1..k-1 of that
    grid (``_split_row``) while this process solves the coarse report, then
    the m report's mean, rows k..n-2 and second moment.  The results are the
    same either way, and so are the errors: the coarse report raises first,
    and a DomainError raised in the worker comes back unchanged.
    """
    if tail_method not in TAIL_METHODS:
        raise DomainError(f"unknown tail method {tail_method!r}")
    horizon_n = _check_int("horizon_n", horizon_n, lambda n: n == 0 or n >= 3, "0 or an integer >= 3")
    if horizon_n == 0 and tail_method == "envelope":
        raise DomainError("envelope tails need a solved derivative grid; use horizon_n >= 3")
    resolution_m = _check_resolution(resolution_m)
    lam = _check_rate(lam, solvable=True)

    if with_halving_delta:
        half_m = max(2, resolution_m // 2 + (resolution_m // 2) % 2)
        solves_m2 = horizon_n > 0 and lam >= UNIFORM_RATE_CUTOFF
        panels = resolution_m * ((horizon_n - 1) ** 2 - 1) if solves_m2 else 0
        if _mc._resolve_workers(None, panels, _MIN_PANELS_PER_WORKER) == 1:
            coarse = constants_report(lam, horizon_n, half_m, tail_method)
            fine = constants_report(lam, horizon_n, resolution_m, tail_method)
        else:
            params, k = Params(lam, horizon_n, resolution_m), _split_row(horizon_n)
            with _mc._pool(1) as pool:
                pending = pool.apply_async(_fine_rows, (params, k))
                coarse = constants_report(lam, horizon_n, half_m, tail_method)
                m_grid = _solver.solve_mean(params)
                prod = _solver._product_grid(m_grid.values, lam, (k, horizon_n - 1))
                prod += pending.get()
            fine = _report(params, tail_method, m_grid,
                           _solver._march_second_moment(params, m_grid, prod))
        delta = max(abs(a - b) for a, b in zip(fine.endpoints, coarse.endpoints))
        return dataclasses.replace(fine, quadrature_halving_delta=delta)

    if lam < UNIFORM_RATE_CUTOFF and horizon_n >= 3:
        return _uniform_fallback_report(lam, horizon_n, resolution_m)

    if horizon_n == 0:
        return ConstantsReport(lam, 0, resolution_m, "crude", *_step_bound_brackets(lam))

    params = Params(lam, horizon_n, resolution_m)
    return _report(params, tail_method, *_mean_grids(params))


def _report(params: Params, tail_method: str, m_grid: SegmentedGrid,
            m2_grid: SegmentedGrid) -> ConstantsReport:
    """The rated report on solved mean and second-moment grids."""
    lam, n = params.lam, params.horizon_n
    if tail_method == "crude":
        tail = crude_mean_tail(lam, n)
        xtail = crude_xmean_tail(lam, n)
        tail2 = crude_second_moment_tail(lam, n)
        env_inf = env_sup = None
    else:
        d_grid = _derivative_grid(params)
        env_inf, env_sup = _envelope.window_extrema(d_grid, n)
        mean_at_n = float(m_grid.values[n - 1, -1])
        tail = envelope_mean_tail(lam, n, mean_at_n, env_inf, env_sup, power=0)
        xtail = envelope_mean_tail(lam, n, mean_at_n, env_inf, env_sup, power=1)
        tail2 = envelope_second_moment_tail(lam, n, mean_at_n, env_inf, env_sup)
    return ConstantsReport(lam, n, params.resolution_m, tail_method,
                           *_brackets(lam, m_grid, m2_grid, tail, xtail, tail2), env_inf, env_sup)


def _split_row(horizon_n: int) -> int:
    """First fine product-grid row that the parent builds in a pooled halving.

    The largest k with 4*(k^2-1) <= 3*((n-1)^2-1): rows k..n-2 are the fewest
    top rows with a quarter of the fine panels, so with the coarse report's
    half the parent does about as much as the worker's rows 1..k-1.
    """
    return math.isqrt(3 * ((horizon_n - 1) ** 2 - 1) // 4 + 1)


def _fine_rows(params: Params, k: int) -> np.ndarray:
    """The worker's task in a pooled halving: rows 1..k-1 of the fine product grid."""
    return _solver._product_grid(_solver.solve_mean(params).values, params.lam, (1, k))


def _uniform_fallback_report(lam: float, horizon_n: int, resolution_m: int) -> ConstantsReport:
    """Report for rates below the uniform cutoff.

    The density and intercept come from the uniform-limit derivative's
    window extrema (the intercept equals density - 1 in that limit); the
    variance slope falls back to the pure step-bound bracket at the actual
    rate, which is valid but very wide down here.
    """
    grid = _solver.solve_uniform_mean_derivative(horizon_n, resolution_m)
    env_inf, env_sup = _envelope.window_extrema(grid, horizon_n)
    c = Bracket(env_inf, env_sup)
    b = Bracket(env_inf - 1.0, env_sup - 1.0)
    d = _step_bound_brackets(lam)[2]
    return ConstantsReport(lam, horizon_n, resolution_m, "envelope", c, b, d,
                           env_inf, env_sup, None, uniform_fallback=True)
