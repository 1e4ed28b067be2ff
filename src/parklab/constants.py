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
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from . import envelope as _envelope
from . import montecarlo as _mc
from . import solver as _solver
from .core import (
    UNIFORM_RATE_CUTOFF,
    Bracket,
    ConstantsReport,
    DomainError,
    Params,
    SegmentedGrid,
    _check_rate,
)

__all__ = [
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
class TailBound:
    """Two-sided bound on a Laplace-integral tail from truncation point n."""

    method: str
    lower_tail: float
    upper_tail: float
    n: int

    def __post_init__(self) -> None:
        if self.method not in ("crude", "envelope"):
            raise DomainError(f"unknown tail method {self.method!r}")
        if not (isinstance(self.n, int) and self.n >= 0):
            raise DomainError(f"truncation point must be an integer >= 0, got {self.n!r}")
        if not (math.isfinite(self.lower_tail) and math.isfinite(self.upper_tail)):
            raise DomainError("tail bounds must be finite")
        if self.lower_tail > self.upper_tail:
            raise DomainError(
                f"tail bounds out of order: [{self.lower_tail}, {self.upper_tail}]")


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


def crude_mean_tail(lam: float, n: int) -> TailBound:
    """Bounds on the tail of integral(lam * mean * e^(-lam*x), x = n..inf)."""
    _check_tail_args(lam, n)
    q = math.exp(-lam)
    one_q = -math.expm1(-lam)
    one_q2 = -math.expm1(-2.0 * lam)
    upper = math.exp(-lam * n) * (n - (n - 1) * q) / one_q
    j0 = _first_odd_from(n)
    lower = math.ceil(n / 2) * math.exp(-lam * n) + math.exp(-lam * j0) / one_q2
    return TailBound("crude", lower, upper, n)


def crude_xmean_tail(lam: float, n: int) -> TailBound:
    """Bounds on the tail of integral(lam^2 * x * mean * e^(-lam*x), n..inf)."""
    _check_tail_args(lam, n)
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
    return TailBound("crude", lower, upper, n)


def crude_second_moment_tail(lam: float, n: int) -> TailBound:
    """Bounds on the tail of integral(lam * second_moment * e^(-lam*x), n..inf)."""
    _check_tail_args(lam, n)
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
    return TailBound("crude", lower, upper, n)


def crude_width_formula(lam: float, n: int) -> float:
    """Closed-form width of the crude density bracket at truncation n.

    Exactly (lam/(lam+1)) times the gap between the step-bound tails; the
    bracket construction must reproduce it to machine precision.  The leading
    term is floor(n/2)*e^(-lam*n), so the width decays like n*e^(-lam*n).
    """
    _check_tail_args(lam, n)
    one_bq = -math.expm1(-2.0 * lam)
    j_even = n + 2 if n % 2 == 0 else n + 1  # first even > n
    gap = math.floor(n / 2) * math.exp(-lam * n) + math.exp(-lam * j_even) / one_bq
    return lam / (lam + 1.0) * gap


def _check_tail_args(lam: float, n: int) -> None:
    _check_rate(lam)
    if not (isinstance(n, int) and n >= 0):
        raise DomainError(f"truncation point must be an integer >= 0, got {n!r}")


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
    _check_tail_args(lam, n)
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
    return TailBound("envelope", lower, upper, n)


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
    _check_tail_args(lam, n)
    if not (0.0 <= inf_slope <= sup_slope):
        raise DomainError(
            f"need 0 <= inf_slope <= sup_slope, got {inf_slope!r}, {sup_slope!r}")
    a = value_at_n
    e_n = math.exp(-lam * n)
    lower = e_n * (a * a + 2.0 * a * inf_slope / lam + 2.0 * inf_slope**2 / lam**2)
    floor_tail = crude_mean_tail(lam, n).upper_tail
    xfloor_tail = crude_xmean_tail(lam, n).upper_tail
    upper = a * floor_tail + sup_slope * (xfloor_tail / lam - n * floor_tail)
    return TailBound("envelope", lower, upper, n)


# ---------------------------------------------------------------------------
# Bracket assembly.  laplace_bracket encloses P, X and P2, the integrals over
# 0..inf of lam*mean*e^(-lam*x), lam^2*x*mean*e^(-lam*x) and
# lam*second_moment*e^(-lam*x); each report encloses each of them once.  Then:
#   density   c = lam*(1 + P)/(lam + 1)
#   intercept b = ((1+P)*(2-lam^2) + 2*e^lam*(1+lam)*P - 2*(lam+1)
#                  - 2*(lam+1)*X) / (2*(lam+1)^2)
#   slope     d = 2*b*c + 2*c - 2*e^lam*P*c/(lam+1) + (lam*P2 - lam)/(lam+1)
# density_bracket(lam, p), intercept_bracket(lam, p, x) and
# variance_slope_bracket(lam, p, b, p2) map the (lo, hi) enclosures through
# these.  b is linear increasing in P and decreasing in X; d is linear
# increasing in b and P2 and concave quadratic in P.

_Enclosure = tuple[float, float]


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


def laplace_bracket(lam: float, grid: Optional[SegmentedGrid], tail: TailBound, power: int) -> _Enclosure:
    """Enclosure (lo, hi) of lam^(1+power) * integral(x^power * grid * e^(-lam*x), 0..inf)."""
    if tail.n == 0:
        trunc = 0.0
    else:
        if grid is None:
            raise DomainError("a solved grid is required for truncation points n > 0")
        if grid.horizon_n < tail.n:
            raise DomainError(
                f"grid horizon {grid.horizon_n} shorter than truncation point {tail.n}")
        trunc = truncated_laplace(grid, lam, power) * lam ** (1 + power)
    return trunc + tail.lower_tail, trunc + tail.upper_tail


def density_bracket(lam: float, p: _Enclosure) -> Bracket:
    """Enclosure of the limiting packing density mean(x)/x, from P."""
    return Bracket(_density_from_p(lam, p[0]), _density_from_p(lam, p[1]))


def intercept_bracket(lam: float, p: _Enclosure, x: _Enclosure) -> Bracket:
    """Enclosure of the additive constant in mean(x) ~ c*x + b, from P and X.

    The identity is increasing in P and decreasing in X, so the lower
    endpoint pairs P's lower bound with X's upper bound and vice versa.
    """
    return Bracket(_intercept_from(lam, p[0], x[1]), _intercept_from(lam, p[1], x[0]))


def variance_slope_bracket(lam: float, p: _Enclosure, b: Bracket, p2: _Enclosure) -> Bracket:
    """Enclosure of the linear growth rate of the count's variance.

    Increasing in b and in P2; concave quadratic in P, so the maximizing
    candidate set carries the vertex alongside the interval endpoints.
    """
    p_lo, p_hi = p
    lo = min(_slope_from(lam, q, b.lo, p2[0]) for q in (p_lo, p_hi))
    hi_candidates = [p_lo, p_hi]
    p_vertex = 0.5 * ((b.hi + 1.0) * (lam + 1.0) * math.exp(-lam) - 1.0)
    if p_lo < p_vertex < p_hi:
        hi_candidates.append(p_vertex)
    hi = max(_slope_from(lam, q, b.hi, p2[1]) for q in hi_candidates)
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

# A halving's fine report runs in a worker only when its M2 solve has at
# least 2 * _MIN_PANELS_PER_WORKER product panels.  The parent's coarse report,
# half as many panels at 1.5-2 us each, then overlaps the worker for 20 ms or
# more (16-23 ms at n=10, m=128): twice the 9-12 ms a Pool(1) takes to start,
# run one task and stop (quartiles of 41 runs on a 2-CPU Xeon with Python 3.11).
_MIN_PANELS_PER_WORKER = 10_000


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
    ``_pooled_halving`` says so (a large enough M2 solve and PARKLAB_THREADS
    not 1), the m report is solved in a one-worker pool while this process
    solves the coarse one.  The results are the same either way, and so are
    the errors: the coarse report raises first, and a fine-only DomainError
    comes back from the worker unchanged.
    """
    if tail_method not in ("crude", "envelope"):
        raise DomainError(f"unknown tail method {tail_method!r}")
    if not (isinstance(horizon_n, int) and (horizon_n == 0 or horizon_n >= 3)):
        raise DomainError(f"horizon_n must be 0 or an integer >= 3, got {horizon_n!r}")
    if horizon_n == 0 and tail_method == "envelope":
        raise DomainError("envelope tails need a solved derivative grid; use horizon_n >= 3")
    _check_rate(lam)

    if with_halving_delta:
        half_m = max(2, resolution_m // 2 + (resolution_m // 2) % 2)
        if not _pooled_halving(lam, horizon_n, resolution_m):
            coarse = constants_report(lam, horizon_n, half_m, tail_method)
            fine = constants_report(lam, horizon_n, resolution_m, tail_method)
        else:
            with multiprocessing.Pool(1, initializer=_mc._default_sigterm) as pool:
                pending = pool.apply_async(constants_report,
                                           (lam, horizon_n, resolution_m, tail_method))
                coarse = constants_report(lam, horizon_n, half_m, tail_method)
                fine = pending.get()
        delta = max(abs(a - b) for a, b in zip(fine.endpoints, coarse.endpoints))
        return dataclasses.replace(fine, quadrature_halving_delta=delta)

    if lam < UNIFORM_RATE_CUTOFF and horizon_n >= 3:
        return _uniform_fallback_report(lam, horizon_n, resolution_m)

    if horizon_n == 0:
        return ConstantsReport(lam, 0, resolution_m, "crude", *_step_bound_brackets(lam))

    params = Params(lam, horizon_n, resolution_m)
    m_grid, m2_grid = _mean_grids(params)
    n = horizon_n
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
    return ConstantsReport(lam, n, resolution_m, tail_method,
                           *_brackets(lam, m_grid, m2_grid, tail, xtail, tail2), env_inf, env_sup)


def _pooled_halving(lam: float, horizon_n: int, resolution_m: int) -> bool:
    """Whether a halving solves its fine report in a worker process.

    The work is the fine report's M2 product panels, m*((n-1)^2-1), or none
    when it solves no M2; the worker starts when ``_resolve_workers`` gives
    that work two processes.  A daemonic process (a pool worker) may start
    no children, so it keeps the halving inline.
    """
    if horizon_n == 0 or lam < UNIFORM_RATE_CUTOFF or multiprocessing.current_process().daemon:
        return False
    panels = resolution_m * ((horizon_n - 1) ** 2 - 1)
    return _mc._resolve_workers(None, panels, _MIN_PANELS_PER_WORKER) >= 2


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
