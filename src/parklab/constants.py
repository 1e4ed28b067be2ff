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

Every integral is carried as e^lam times itself, which stays of order 1 at
large rates since the mean is 0 below one car length.  The identities are the
constants' large-rate limits plus terms that vanish with e^-lam: they overflow
at no rate and cancel no O(1) terms at large ones.  Brackets propagate through
them by endpoint enumeration; every identity here is monotone in each
bracketed input except for one concave quadratic, whose vertex is enumerated
alongside the endpoints.
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
    "crude_tails",
    "crude_width_formula",
    "envelope_tails",
    "laplace_bracket",
    "density_bracket",
    "intercept_bracket",
    "variance_slope_bracket",
    "constants_report",
]


@dataclass(frozen=True)
class TailBound(Bracket):
    """Bracket [lo, hi] on e^lam times a Laplace-integral tail from truncation point n."""

    n: int

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "n", _check_truncation(self.n))


def truncated_laplace(grid: SegmentedGrid, lam: float, power: int) -> float:
    """Integral of x^power * grid(x) * e^(-lam*x) over the solved horizon.

    power 0 feeds the density, power 1 the intercept.  lam = 0 degrades to a
    plain (weighted-by-x^power) integral, handy for cross-checks.
    """
    power = _check_power(power)
    weight = lambda t: t**power * np.exp(-lam * t)
    return _solver.integrate_weighted(grid, weight, 0, grid.horizon_n)


def _check_power(power: int) -> int:
    return _check_int("power", power, lambda p: p in (0, 1), "0 or 1")


# ---------------------------------------------------------------------------
# Tails of the triple (P, X, P2): e^lam times the integrals over n..inf of
# lam*mean*e^(-lam*x), lam^2*x*mean*e^(-lam*x) and lam*second_moment*e^(-lam*x),
# one TailBound each.  crude_tails sums the step bounds as geometric series from
# k = n.  Each closed form there is the exact telescoped series (unit intervals
# for the floor side, odd-index increments for the ceiling side), pinned against
# a brute-force series oracle in the tests; lam multiplies last, so as not to overflow.

def _crude_bound(lower: float, upper: float, n: int) -> TailBound:
    """The crude tail [lower, upper] with each end moved outward by one ulp, keeping them in order.

    No certificate: rounding exp(-lam*n) alone moves a tail 3.6e-15 relative at lam=21.7, n=3.
    """
    return TailBound(math.nextafter(lower, -math.inf), math.nextafter(upper, math.inf), n)


def crude_tails(lam: float, n: int) -> tuple[TailBound, TailBound, TailBound]:
    """Tails (P, X, P2) from truncation point n, times e^lam, between the counting bounds.

    The count lies between ceil((x-1)/2) and floor(x), and its square
    between their squares.  Both bounds are 0 below x = 1, so the tails
    from 0 are the tails from 1.
    """
    lam, n = _check_tail_args(lam, n)
    k = max(n, 1)
    q = math.exp(-lam)
    qq = q * q
    one_q = -math.expm1(-lam)
    one_qq = -math.expm1(-2.0 * lam)
    e_n = math.exp(-lam * (k - 1))
    e_n1 = math.exp(-lam * k)
    rise = (k + 1) - k * q
    half = math.ceil(k / 2)
    j0 = k + 1 if k % 2 == 0 else k + 2  # first odd index > k
    e_j0 = math.exp(-lam * (j0 - 1))
    return (
        _crude_bound(half * e_n + e_j0 / one_qq, e_n * (k - (k - 1) * q) / one_q, n),
        _crude_bound(half * (lam * (k * e_n) + e_n)
                     + ((lam * (j0 * e_j0) + e_j0) * one_qq + lam * (2.0 * qq * e_j0)) / one_qq**2,
                     k * (lam * (k * e_n) + e_n) + lam * (e_n1 * rise) / one_q**2 + e_n1 / one_q, n),
        _crude_bound(half**2 * e_n + e_j0 * (j0 * one_qq + 2.0 * qq) / one_qq**2,
                     k * k * e_n + 2.0 * e_n1 * rise / one_q**2 - e_n1 / one_q, n),
    )


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


def envelope_tails(
    lam: float,
    n: int,
    value_at_n: float,
    inf_slope: float,
    sup_slope: float,
) -> tuple[TailBound, TailBound, TailBound]:
    """Tails (P, X, P2) from the mean's linear envelopes value_at_n + slope*(x - n), times e^lam.

    The mean beyond the horizon lies between the envelopes with slopes
    inf_slope and sup_slope; P and X integrate them in closed form
    (elementary exponential-polynomial integrals, oracle-checked in the
    tests).  Below, the second moment dominates the squared mean, hence the
    squared lower envelope.  Above, the count never exceeds floor(x), so the
    second moment is at most floor(x) times the mean's upper envelope; that
    side reuses the crude upper tails of P and X.
    """
    lam, n = _check_tail_args(lam, n)
    if not (0.0 <= inf_slope <= sup_slope):
        raise DomainError(f"need 0 <= inf_slope <= sup_slope, got {inf_slope!r}, {sup_slope!r}")
    a = value_at_n
    try:
        e_n = math.exp(-lam * (n - 1))
    except OverflowError:  # only at n = 0, from lam ~ 709.78 on
        raise DomainError(f"envelope tails from n=0 scale by e^lam, which has no double at "
                          f"lam={lam!r}") from None
    p = lambda slope: e_n * (a + slope / lam)
    x = lambda slope: e_n * (a * (lam * n + 1.0) + slope * (lam * n + 2.0) / lam)
    floor_tail, xfloor_tail, _ = (t.hi for t in crude_tails(lam, n))
    lower = e_n * (a * a + 2.0 * a * inf_slope / lam + 2.0 * inf_slope**2 / lam**2)
    upper = a * floor_tail + sup_slope * (xfloor_tail / lam - n * floor_tail)
    return (TailBound(p(inf_slope), p(sup_slope), n), TailBound(x(inf_slope), x(sup_slope), n),
            TailBound(lower, upper, n))


# ---------------------------------------------------------------------------
# Bracket assembly.  laplace_bracket encloses Ps, Xs and P2s: e^lam times the
# integrals over 0..inf of lam*mean*e^(-lam*x), lam^2*x*mean*e^(-lam*x) and
# lam*second_moment*e^(-lam*x); each report encloses each of them once.  With
# q = e^-lam and the large-rate limits c_inf, b_inf and d_inf of
# _large_rate_limits, the constants are
#   density   c = c_inf*(1 + q*Ps)
#   intercept b = b_inf*(1 + q*Ps) + (Ps - 1 - q*Xs)/(lam + 1)
#   slope     d = d_inf + 2*(b - b_inf)*c + c_inf*q*Ps*(1 + (lam+1)^-2)
#                 - 2*(Ps - 1)*c/(lam + 1) + c_inf*q*P2s
# density_bracket(lam, p), intercept_bracket(lam, p, x) and
# variance_slope_bracket(lam, p, b, p2) map those Brackets through these.
# b is linear increasing in Ps and decreasing in Xs; d is linear increasing in
# b and P2s and concave quadratic in Ps.

def _large_rate_limits(lam: float) -> tuple[float, float, float]:
    """(c_inf, b_inf, d_inf) = (lam/(lam+1), (2 - lam^2)/(2(lam+1)^2), lam/(lam+1)^3), overflow-free."""
    c, r = lam / (lam + 1.0), (lam + 1.0) ** -2
    return c, r - 0.5 * c * c, c * r


def _density_from_p(lam: float, p: float) -> float:
    return _large_rate_limits(lam)[0] * (1.0 + math.exp(-lam) * p)


def _intercept_from(lam: float, p: float, x: float) -> float:
    q = math.exp(-lam)
    return _large_rate_limits(lam)[1] * (1.0 + q * p) + (p - 1.0 - q * x) / (lam + 1.0)


def _slope_from(lam: float, p: float, b: float, p2: float) -> float:
    c_inf, b_inf, d_inf = _large_rate_limits(lam)
    q, c = math.exp(-lam), _density_from_p(lam, p)
    return (d_inf + 2.0 * (b - b_inf) * c + c_inf * q * p * (1.0 + (lam + 1.0) ** -2)
            - 2.0 * (p - 1.0) * c / (lam + 1.0) + c_inf * q * p2)


def laplace_bracket(lam: float, grid: Optional[SegmentedGrid], tail: TailBound, power: int) -> Bracket:
    """Bracket on e^lam * lam^(1+power) * integral(x^power * grid * e^(-lam*x), 0..inf)."""
    lam = _check_rate(lam, solvable=True)
    power = _check_power(power)
    if tail.n == 0:
        trunc = 0.0
    else:
        if grid is None:
            raise DomainError("a solved grid is required for truncation points n > 0")
        if grid.horizon_n != tail.n:
            raise DomainError(
                f"grid horizon {grid.horizon_n} differs from truncation point {tail.n}")
        if grid.lam != lam:  # a solved grid's rate is below the solvers' ceiling, so e^lam is a double
            raise DomainError(f"grid rate {grid.lam!r} differs from rate lam={lam!r}")
        trunc = truncated_laplace(grid, lam, power) * lam ** (1 + power) * math.exp(lam)
    return Bracket(trunc + tail.lo, trunc + tail.hi)


def density_bracket(lam: float, p: Bracket) -> Bracket:
    """Enclosure of the limiting packing density mean(x)/x, from Ps, within [1/2, 1]."""
    lam = _check_rate(lam, solvable=True)
    return _density_within_counts(_density_from_p(lam, p.lo), _density_from_p(lam, p.hi))


def _density_within_counts(lo: float, hi: float) -> Bracket:
    """[lo, hi] intersected with [1/2, 1]: the count lies between ceil((x-1)/2) and floor(x)."""
    return Bracket(max(lo, 0.5), min(hi, 1.0))


def intercept_bracket(lam: float, p: Bracket, x: Bracket) -> Bracket:
    """Enclosure of the additive constant in mean(x) ~ c*x + b, from Ps and Xs.

    The identity is increasing in Ps and decreasing in Xs, so the lower
    endpoint pairs Ps's lower bound with Xs's upper bound and vice versa.
    """
    lam = _check_rate(lam, solvable=True)
    return Bracket(_intercept_from(lam, p.lo, x.hi), _intercept_from(lam, p.hi, x.lo))


def variance_slope_bracket(lam: float, p: Bracket, b: Bracket, p2: Bracket) -> Bracket:
    """Enclosure of the linear growth rate of the count's variance, from Ps, b and P2s.

    Increasing in b and in P2s; concave quadratic in Ps, so the maximizing
    candidate set carries the vertex alongside the interval endpoints when
    the slope in Ps changes sign between them.
    """
    lam = _check_rate(lam, solvable=True)
    lo = min(_slope_from(lam, ps, b.lo, p2.lo) for ps in (p.lo, p.hi))
    hi_candidates = [p.lo, p.hi]
    rising = lambda ps: math.exp(-lam) * ((b.hi + 1.0) * (lam + 1.0) - 2.0 * ps) > 1.0
    if rising(p.lo) and not rising(p.hi):  # then e^lam < (b.hi + 1)*(lam + 1) is a double
        hi_candidates.append(0.5 * ((b.hi + 1.0) * (lam + 1.0) - math.exp(lam)))
    hi = max(_slope_from(lam, ps, b.hi, p2.hi) for ps in hi_candidates)
    return Bracket(lo, hi)


def _brackets(
    lam: float,
    m_grid: Optional[SegmentedGrid],
    m2_grid: Optional[SegmentedGrid],
    tails: tuple[TailBound, TailBound, TailBound],
) -> tuple[Bracket, Bracket, Bracket]:
    """Brackets (c, b, d), enclosing each of P, X and P2 once from their tails."""
    tail, xtail, tail2 = tails
    p = laplace_bracket(lam, m_grid, tail, 0)
    b = intercept_bracket(lam, p, laplace_bracket(lam, m_grid, xtail, 1))
    d = variance_slope_bracket(lam, p, b, laplace_bracket(lam, m2_grid, tail2, 0))
    return density_bracket(lam, p), b, d


def _step_bound_brackets(lam: float) -> tuple[Bracket, Bracket, Bracket]:
    """Brackets (c, b, d) from the pure step-bound tails, nothing solved."""
    return _brackets(lam, None, None, crude_tails(lam, 0))


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


def _memo(solve: Callable, *args):
    """solve(*args), solved once per ``_shared_grids`` block."""
    memo = _SHARED.get()
    if memo is None:
        return solve(*args)
    if (solve, args) not in memo:
        memo[solve, args] = solve(*args)
    return memo[solve, args]


def _mean_grids(params: Params) -> tuple[SegmentedGrid, SegmentedGrid]:
    """The mean grid and the second-moment grid built on it."""
    m_grid = _solver.solve_mean(params)
    return m_grid, _solver.solve_second_moment(params, m_grid)


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
    horizon_n: int = Params.horizon_n,
    resolution_m: int = Params.resolution_m,
    tail_method: str = "envelope",
    with_halving_delta: bool = False,
) -> ConstantsReport:
    """Solve the grids and assemble brackets for all three constants.

    horizon_n = 0 skips solving entirely and uses pure step-bound tails (only
    the crude method exists there), at every rate the tails take.
    Horizons 1 and 2 are rejected: the seeds already cover [0, 3], so nothing
    shorter is ever solved.
    Below UNIFORM_RATE_CUTOFF it is the uniform fallback, labelled "envelope"
    whatever ``tail_method`` asks.  Solved reports build their ``Params`` first,
    so a rate above the solvers' ceiling raises before anything is solved or forked.

    with_halving_delta also reports at about m/2 and returns the m report
    with ``quadrature_halving_delta``, the largest endpoint change; with
    horizon_n > 0 it needs resolution_m >= 4, so that the two differ.  Both
    reports are solved by the same calls at every PARKLAB_THREADS setting;
    while they run, ``_worker_rows`` may build part of the m report's M2
    product grid in a worker, which its ``solve_second_moment`` collects.
    The results are the same either way, and so are the errors: the coarse
    report raises first, naming its own m and the requested one
    (``_coarse_report``), and a DomainError raised in the worker comes back
    unchanged.
    """
    if tail_method not in TAIL_METHODS:
        raise DomainError(f"unknown tail method {tail_method!r}")
    horizon_n = _check_int("horizon_n", horizon_n, lambda n: n == 0 or n >= 3, "0 or an integer >= 3")
    if horizon_n == 0 and tail_method == "envelope":
        raise DomainError("envelope tails need a solved derivative grid; use horizon_n >= 3")
    resolution_m = _check_resolution(resolution_m)
    lam = _check_rate(lam, solvable=True)
    params = (Params(lam, horizon_n, resolution_m)
              if horizon_n > 0 and lam >= UNIFORM_RATE_CUTOFF else None)

    if with_halving_delta:
        if horizon_n > 0 and resolution_m < 4:
            raise DomainError(f"the halving delta halves resolution_m, so it needs resolution_m >= 4 "
                              f"when horizon_n > 0, got {resolution_m}")
        with _worker_rows(params):
            coarse = _coarse_report(lam, horizon_n, resolution_m, tail_method)
            fine = constants_report(lam, horizon_n, resolution_m, tail_method)
        delta = max(abs(a - b) for a, b in zip(fine.endpoints, coarse.endpoints))
        return dataclasses.replace(fine, quadrature_halving_delta=delta)

    if params is not None:
        return _report(params, tail_method, *_memo(_mean_grids, params))
    if horizon_n == 0:
        return ConstantsReport(lam, 0, resolution_m, "crude", *_step_bound_brackets(lam))
    return _uniform_fallback_report(lam, horizon_n, resolution_m)


def _coarse_report(lam: float, horizon_n: int, resolution_m: int, tail_method: str) -> ConstantsReport:
    """The halving delta's report at about resolution_m / 2; its DomainError names both resolutions."""
    half_m = resolution_m // 2 + (resolution_m // 2) % 2
    try:
        return constants_report(lam, horizon_n, half_m, tail_method)
    except DomainError as exc:
        raise DomainError(f"the halving delta's coarse grid (m={half_m}) for the requested "
                          f"resolution_m={resolution_m} failed: {exc}") from exc


def _report(params: Params, tail_method: str, m_grid: SegmentedGrid,
            m2_grid: SegmentedGrid) -> ConstantsReport:
    """The rated report on solved mean and second-moment grids."""
    lam, n = params.lam, params.horizon_n
    if tail_method == "crude":
        tails = crude_tails(lam, n)
        env_inf = env_sup = None
    else:
        d_grid = _memo(_solver.solve_mean_derivative, params)
        env_inf, env_sup = _envelope.window_extrema(d_grid, n)
        tails = envelope_tails(lam, n, float(m_grid.values[n - 1, -1]), env_inf, env_sup)
    return ConstantsReport(lam, n, params.resolution_m, tail_method,
                           *_brackets(lam, m_grid, m2_grid, tails), env_inf, env_sup)


def _split_row(horizon_n: int) -> int:
    """First fine product-grid row that the parent builds in a pooled halving.

    The largest k with 4*(k^2-1) <= 3*((n-1)^2-1): rows k..n-2 are the fewest
    top rows with a quarter of the fine panels, so with the coarse report's
    half the parent does about as much as the worker's rows 1..k-1.

    Measured dead end: the worker building the coarse report while the parent
    builds the fine one would delete this split, but lengthens the critical path
    from about 1.5 to 2 coarse reports: in-process n=30, m=256 reports took
    0.182-0.189 s at best (was 0.144-0.151), 0.296-0.306 s in the median (was 0.253-0.262).
    """
    return math.isqrt(3 * ((horizon_n - 1) ** 2 - 1) // 4 + 1)


def _fine_rows(params: Params, k: int) -> np.ndarray:
    """The worker's task in a pooled halving: rows 1..k-1 of the fine product grid."""
    return _solver._product_grid(_solver.solve_mean(params).values, params.lam, (1, k))


@contextlib.contextmanager
def _worker_rows(params: Optional[Params]) -> Iterator[None]:
    """For the block, a one-worker pool builds rows 1..k-1 of params' M2 product grid, if
    ``_resolve_workers`` gives its panels two workers (never in a pool worker)."""
    panels = params.resolution_m * ((params.horizon_n - 1) ** 2 - 1) if params is not None else 0
    with contextlib.ExitStack() as stack:
        if _mc._resolve_workers(None, panels, _MIN_PANELS_PER_WORKER) > 1:
            k = _split_row(params.horizon_n)
            pending = stack.enter_context(_mc._pool(1)).apply_async(_fine_rows, (params, k))
            stack.callback(_solver._WORKER_ROWS.reset, _solver._WORKER_ROWS.set({params: (k, pending)}))
        yield


def _uniform_fallback_report(lam: float, horizon_n: int, resolution_m: int) -> ConstantsReport:
    """Report for rates below the uniform cutoff.

    The density comes from the uniform-limit derivative's window extrema,
    kept within [1/2, 1] as in :func:`density_bracket`, and the intercept is
    density - 1 as in that limit; the variance slope falls back to the pure
    step-bound bracket at the actual rate, which is valid but very wide
    down here.
    """
    grid = _solver.solve_uniform_mean_derivative(horizon_n, resolution_m)
    env_inf, env_sup = _envelope.window_extrema(grid, horizon_n)
    c = _density_within_counts(env_inf, env_sup)
    b = Bracket(c.lo - 1.0, c.hi - 1.0)
    d = _step_bound_brackets(lam)[2]
    return ConstantsReport(lam, horizon_n, resolution_m, "envelope", c, b, d,
                           env_inf, env_sup, None, uniform_fallback=True)
