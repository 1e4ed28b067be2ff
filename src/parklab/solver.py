"""Method-of-steps solvers for the saturation-mean recursions.

The value of each unknown at x+1 depends only on weighted integrals of
already-solved values on [0, x], so the grids advance one unit segment at a
time from analytic seeds on [0, 3].  All quadrature is composite Simpson (or
its cubic-stencil equivalents for odd leftover panels) on the grid's own
uniform nodes, with panels split at every integer breakpoint and, for the
convolution-type terms, at the mirror images of the integer breakpoints; each
panel rule is exact on cubics, giving fourth-order accuracy throughout.

Every recursion is stepped by one core, :func:`_march`, given its kernels
and the closure that turns their integrals into the next segment.  The
second moment's product convolution depends only on the already-solved
mean, so :func:`_product_grid` computes it once, before that march starts,
forming the panel samples of a few node rows per multiply and integrating
each panel with one :func:`_product_panel` call.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from itertools import islice
from operator import itemgetter
from typing import Callable

import numpy as np

from .core import (
    UNIFORM_RATE_CUTOFF,
    DomainError,
    Params,
    SegmentedGrid,
    _interp_segment,
    lower_count_bound,
    upper_count_bound,
)

__all__ = [
    "integrate_weighted",
    "solve_mean",
    "solve_mean_derivative",
    "solve_second_moment",
    "solve_uniform_mean_derivative",
]


# Integral of the cubic through four consecutive unit-spaced nodes, taken
# over the first subinterval.
_EDGE_W = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0


def _subinterval_increments(vals: np.ndarray, h: float) -> np.ndarray:
    """Integral over each subinterval of the local cubic (quadratic for m=2)."""
    m = vals.size - 1
    if m == 2:
        inc0 = (5.0 * vals[0] + 8.0 * vals[1] - vals[2]) / 12.0
        inc1 = (-vals[0] + 8.0 * vals[1] + 5.0 * vals[2]) / 12.0
        return h * np.array([inc0, inc1])
    inc = np.empty(m)
    inc[0] = _EDGE_W @ vals[:4]
    inc[-1] = _EDGE_W[::-1] @ vals[-4:]
    inc[1:-1] = (-vals[0:m - 2] + 13.0 * vals[1:m - 1] + 13.0 * vals[2:m] - vals[3:m + 1]) / 24.0
    return h * inc


def _cumulative(vals: np.ndarray, h: float) -> np.ndarray:
    """Running integral from the segment's left edge to every node."""
    out = np.empty(vals.size)
    out[0] = 0.0
    np.cumsum(_subinterval_increments(vals, h), out=out[1:])
    return out


@lru_cache(maxsize=None)
def _panel_weights(n_sub: int) -> np.ndarray:
    """Composite Simpson weights for n_sub >= 2 unit-spaced subintervals.

    Odd counts take a 3/8 block at the end; both pieces are exact on cubics.
    """
    w = np.zeros(n_sub + 1)
    even_part = n_sub if n_sub % 2 == 0 else n_sub - 3
    if even_part >= 2:
        w[0] += 1.0 / 3.0
        w[even_part] += 1.0 / 3.0
        w[1:even_part:2] += 4.0 / 3.0
        w[2:even_part:2] += 2.0 / 3.0
    if even_part != n_sub:
        w[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 / 8.0
    w.setflags(write=False)
    return w


def integrate_weighted(
    grid: SegmentedGrid,
    weight: Callable[[np.ndarray], np.ndarray],
    a: int,
    b: int,
) -> float:
    """Composite-Simpson value of the integral of weight(t)*grid(t) over [a, b].

    The ends are integers, so every panel is one whole segment and the
    piecewise-smooth grid is only ever integrated where it is smooth.
    ``weight`` must accept an ndarray of abscissae.
    """
    n, m = grid.horizon_n, grid.resolution_m
    if not (isinstance(a, int) and isinstance(b, int) and 0 <= a <= b <= n):
        raise DomainError(f"integration range [{a}, {b}] needs integer ends in [0, {n}]")
    w = _panel_weights(m)
    total = 0.0
    for k in range(a, b):
        total += (1.0 / m) * float(w @ (weight(grid.x_nodes(k)) * grid.values[k]))
    return total


# One integral term of a recursion: (source rows, weight(s, offs), rescaled).
_Kernel = tuple[np.ndarray, Callable[[int, np.ndarray], "np.ndarray | float"], bool]


def _node_offsets(m: int) -> np.ndarray:
    """Offsets of a segment's m+1 nodes from its left edge."""
    return np.arange(m + 1) * (1.0 / m)


def _march(
    vals: np.ndarray,
    lam: float,
    start: int,
    kernels: list[_Kernel],
    close: Callable[[int, np.ndarray, list[np.ndarray]], np.ndarray],
    continuous_from: int,
) -> None:
    """Fill rows ``start``.. of ``vals`` in place by the method of steps.

    On segment s = k - 1, kernel (rows, weight, rescaled) integrates
    rows[s] * weight(s, offs); ``close(s, x, integrals)`` turns the integrals
    over [0, x] at the segment's nodes x = s + offs into row k.  Each
    integral is a running prefix over the complete segments plus the
    segment's own cumulative integral.  The prefixes are accumulated once
    per segment, starting at segment 0 (rows below the seed add exact
    zeros), so the total cost is linear in the node count.

    A rescaled kernel is a convolution-type term whose weight on segment s
    is taken relative to the segment's left edge, like exp(lam*(t-s)); its
    integral is carried multiplied by exp(-lam*x), so the prefix is
    multiplied by e^-lam per segment and the node values by exp(-lam*offs).
    Every factor then stays within lam*e^lam and no sum cancels.

    Row k starts where row k-1 ends at every integer k >= continuous_from.
    """
    n, m = vals.shape[0], vals.shape[1] - 1
    h = 1.0 / m
    offs = _node_offsets(m)
    eq = math.exp(-lam)
    exp_off = np.exp(-lam * offs)
    prefs = [0.0] * len(kernels)
    for s in range(n - 1):
        cums = [_cumulative(rows[s] * weight(s, offs), h) for rows, weight, _ in kernels]
        if s + 1 >= start:
            ints = [exp_off * (p + c) if rescaled else p + c
                    for p, c, (_, _, rescaled) in zip(prefs, cums, kernels)]
            new = close(s, s + offs, ints)
            if s + 1 >= continuous_from:
                new[0] = vals[s, -1]
            vals[s + 1] = new
        prefs = [eq * (p + c[-1]) if rescaled else p + c[-1]
                 for p, c, (_, _, rescaled) in zip(prefs, cums, kernels)]


# The interior cubic stencil of _subinterval_increments forms 13*f + 13*g
# before it divides by 24.
_STENCIL_GAIN = 26.0


def _max_rate(horizon_n: int) -> float:
    """Largest rate whose weighted samples the solvers can represent.

    A kernel factor reaches lam*e^lam (see _march), the samples it weights
    are at most n^2 (the second moment of a count of at most n), and the cubic
    stencil multiplies their product by up to _STENCIL_GAIN, so the limit
    solves lam + log(lam) = log(max float) - log(_STENCIL_GAIN * n^2), here
    by Newton's method.
    """
    target = math.log(sys.float_info.max) - math.log(_STENCIL_GAIN * horizon_n**2)
    lam = target
    for _ in range(6):
        lam -= (lam + math.log(lam) - target) / (1.0 + 1.0 / lam)
    return lam


def _check_representable(params: Params) -> None:
    limit = _max_rate(params.horizon_n)
    if params.lam > limit:
        raise DomainError(
            f"rate lam={params.lam:.17g} is above {limit:.17g}, the largest the solvers can "
            f"step to n={params.horizon_n}: the kernel factor lam*e^lam would overflow")


def _exp_kernels(rows: np.ndarray, lam: float) -> list[_Kernel]:
    """The mean recursion's direct and convolution kernels over ``rows``.

    direct: lam*exp(-lam*t)*f(t); convolution, rescaled to the segment's
    left edge: lam*exp(lam*(t-s))*f(t).  Neither factor exceeds lam*e^lam.
    """
    return [
        (rows, lambda s, offs: lam * np.exp(-lam * (s + offs)), False),
        (rows, lambda s, offs: lam * np.exp(lam * offs), True),
    ]


def solve_mean(params: Params, *, seed_upto: int = 3) -> SegmentedGrid:
    """Mean saturation count on [0, horizon_n].

    Seeds [0, seed_upto] from the closed forms, then advances by
    value(x+1) = (direct + convolution)/(1 - exp(-lam*x)) + 1 where both
    integrals run over already-complete segments.  ``seed_upto=2`` exercises
    the stepper against the closed form on (2, 3].  Below
    UNIFORM_RATE_CUTOFF the uniform limit value(x+1) = 2*integral(M)/x + 1
    is solved instead, so the grid does not depend on the rate there.
    Rates above ``_max_rate(horizon_n)`` are rejected before stepping.
    """
    if seed_upto not in (2, 3):
        raise DomainError("seed_upto must be 2 or 3")
    _check_representable(params)
    lam, n, m = params.lam, params.horizon_n, params.resolution_m
    offs = _node_offsets(m)
    vals = np.zeros((n, m + 1))
    vals[1] = 1.0
    if lam < UNIFORM_RATE_CUTOFF:
        if seed_upto == 3:
            vals[2] = 1.0 + 2.0 * offs / (1.0 + offs)
        _march(vals, 0.0, seed_upto, [(vals, lambda s, offs: 1.0, False)],
               lambda s, x, ints: 2.0 * ints[0] / x + 1.0, 2)
        _check_count_bounds(vals, lam)
        return SegmentedGrid("M", vals, lam=lam)

    if seed_upto == 3:
        vals[2] = 1.0 + (1.0 + math.exp(-lam)) * -np.expm1(-lam * offs) / -np.expm1(-lam * (1.0 + offs))
    _march(vals, lam, seed_upto, _exp_kernels(vals, lam),
           lambda s, x, ints: (ints[0] + ints[1]) / -np.expm1(-lam * x) + 1.0, 2)
    _check_count_bounds(vals, lam)
    return SegmentedGrid("M", vals, lam=lam)


def _check_count_bounds(vals: np.ndarray, lam: float) -> None:
    """Reject a mean grid that leaves the hard counting bounds at any node.

    Every count lies in [lower_count_bound(x), upper_count_bound(x)], so a
    node outside is quadrature error, not a mean: at large lam/m the stepper
    integrates weights that grow by e^(lam/m) between nodes.  Both bounds
    step only at integers, so on row k (x in [k, k+1]) the lower one is
    lower(k) at x = k and lower(k+1) after it, the upper one upper(k) before
    x = k+1 and upper(k+1) there.
    """
    n, m = vals.shape[0], vals.shape[1] - 1
    lo, hi = np.empty_like(vals), np.empty_like(vals)
    for k in range(n):
        lo[k], lo[k, 0] = lower_count_bound(k + 1), lower_count_bound(k)
        hi[k], hi[k, m] = upper_count_bound(k), upper_count_bound(k + 1)
    bad = np.flatnonzero((vals < lo) | (vals > hi))
    if bad.size:
        k, j = divmod(int(bad[0]), m + 1)
        raise DomainError(
            f"mean count at lam={lam:g} with m={m} is {vals[k, j]:.6g} at x={k + j / m:g}, "
            f"outside the counting bounds [{lo[k, j]:g}, {hi[k, j]:g}]; the resolution is "
            f"too coarse for this rate, a larger --m is needed")


def solve_mean_derivative(params: Params, *, seed_upto: int = 3) -> SegmentedGrid:
    """Derivative of the mean count on (0, horizon_n].

    The stepping identity divides an accumulated sinh-kernel integral by
    cosh(lam*x) - 1; carried multiplied by exp(-lam*x), the denominator
    becomes expm1(-lam*x)^2 / 2 and every factor stays in [0, lam*e^lam].
    The jump at x = 2 is kept; later segments join continuously.  Rates
    above ``_max_rate(horizon_n)`` are rejected before stepping.
    """
    if seed_upto not in (2, 3):
        raise DomainError("seed_upto must be 2 or 3")
    _check_representable(params)
    if params.lam < UNIFORM_RATE_CUTOFF:
        base = solve_uniform_mean_derivative(params.horizon_n, params.resolution_m)
        return SegmentedGrid("Mprime", base.values, lam=params.lam)

    lam, n, m = params.lam, params.horizon_n, params.resolution_m
    offs = _node_offsets(m)
    vals = np.zeros((n, m + 1))
    if seed_upto == 3:
        vals[2] = lam * np.exp(-lam * offs) * -math.expm1(-2.0 * lam) \
            / np.expm1(-lam * (1.0 + offs)) ** 2

    def sinh_weight(s: int, offs: np.ndarray) -> np.ndarray:
        # e^{-lam s} * lam*sinh(lam t) on segment s
        return 0.5 * lam * (np.exp(lam * offs) - np.exp(-lam * (2.0 * s + offs)))

    def close(s: int, x: np.ndarray, ints: list[np.ndarray]) -> np.ndarray:
        seed_term = 0.5 * lam * (np.exp(-lam * (x - 1.0)) - np.exp(-lam * (x + 1.0)))
        denom = 0.5 * np.expm1(-lam * x) ** 2
        return (ints[0] + seed_term) / denom

    _march(vals, lam, seed_upto, [(vals, sinh_weight, True)], close, 3)
    return SegmentedGrid("Mprime", vals, lam=lam)


def solve_uniform_mean_derivative(horizon_n: int, resolution_m: int) -> SegmentedGrid:
    """Derivative of the mean count for the uniform (vanishing-rate) limit.

    value(x+1) = (integral of 2 t f(t) over [1, x] + 2) / x^2, with the jump
    at x = 2 kept as in the rated solver.
    """
    if not (isinstance(horizon_n, int) and horizon_n >= 3):
        raise DomainError(f"horizon_n must be an integer >= 3, got {horizon_n!r}")
    if not (isinstance(resolution_m, int) and resolution_m >= 2 and resolution_m % 2 == 0):
        raise DomainError(f"resolution_m must be an even integer >= 2, got {resolution_m!r}")
    vals = np.zeros((horizon_n, resolution_m + 1))
    _march(vals, 0.0, 2, [(vals, lambda s, offs: 2.0 * (s + offs), False)],
           lambda s, x, ints: (ints[0] + 2.0) / x**2, 3)
    return SegmentedGrid("uniformMprime", vals)


def solve_second_moment(params: Params, m_grid: SegmentedGrid) -> SegmentedGrid:
    """Second moment of the saturation count on [0, horizon_n].

    The stepping identity mirrors the mean's but carries five integral
    terms: two in the unknown, two in the solved mean, and the product
    convolution of the mean with itself.  The product term depends only on
    the mean, so :func:`_product_grid` computes it at every node once,
    before the march; the march then reads one row of it per segment.
    """
    if params.lam < UNIFORM_RATE_CUTOFF:
        raise DomainError("no uniform-limit second-moment recursion; rate below cutoff unsupported")
    if m_grid.kind != "M":
        raise DomainError(f"m_grid must have kind 'M', got {m_grid.kind!r}")
    if (m_grid.lam != params.lam or m_grid.horizon_n != params.horizon_n
            or m_grid.resolution_m != params.resolution_m):
        raise DomainError("m_grid was solved with different parameters")

    lam, n, m = params.lam, params.horizon_n, params.resolution_m
    mvals = m_grid.values
    vals = np.zeros((n, m + 1))
    vals[1] = 1.0  # the count is deterministically 1 on (1, 2]
    prod = _product_grid(mvals, lam)

    def close(s: int, x: np.ndarray, ints: list[np.ndarray]) -> np.ndarray:
        own = ints[0] + ints[1]
        mean_terms = ints[2] + ints[3]
        return 1.0 + (own + 2.0 * mean_terms + 2.0 * prod[s]) / -np.expm1(-lam * x)

    _march(vals, lam, 2, _exp_kernels(vals, lam) + _exp_kernels(mvals, lam), close, 2)
    return SegmentedGrid("M2", vals, lam=lam)


def _product_grid(mvals: np.ndarray, lam: float) -> np.ndarray:
    """Integral of lam*e^{-lam t} * f(t) * f(x-t) over [0, x] at every node.

    Row s holds the nodes x = s + j*h of segment s, for the segments
    s = 1..n-2 that the march closes; rows 0 and n-1 stay zero.  Between
    consecutive breakpoints (integers and their mirror images x - i) both
    factors stay inside single segments and their samples are reversed
    slices of each other, so every panel works on exact node values.  The
    leftover single-subinterval panels (j = 1 and j = m-1) take one
    interpolated midpoint, which always sits half a step into a segment's
    first or last subinterval.

    Node rows go in blocks of a few.  For each j, one flat multiply per row
    puts the samples of all its head panels [i, i + j*h] (segments i and
    s - i) at the starts of consecutive buffer rows, and one those of its
    tail panels [i + j*h, i + 1] (segments i and s - i - 1).  Each node adds
    its panels in the order head i, tail i, head i+1, ..., so the grid is
    bit-identical to a panel-by-panel loop.  Each panel is still one
    :func:`_product_panel` call because the benchmark's tests count them.
    """
    n, m = mvals.shape[0], mvals.shape[1] - 1
    h = 1.0 / m
    offs = _node_offsets(m)
    # lam*e^{-lam t}*f(t) at every node, and f's rows read backwards, last row first
    wm = lam * np.exp(-lam * (np.arange(n)[:, None] + offs[None, :])) * mvals
    wflat, back = wm.ravel(), mvals[::-1, ::-1].ravel()
    # f, and lam*e^{-lam t}*f(t), half a step into each first and last subinterval
    mid = [_interp_segment(row, np.array([0.5, m - 0.5])) for row in mvals]
    wmid = [(lam * math.exp(-lam * (i + 0.5 * h)) * a,
             lam * math.exp(-lam * (i + (m - 0.5) * h)) * b) for i, (a, b) in enumerate(mid)]
    weights = [None, None, *map(_panel_weights, range(2, m + 1))]
    prod = np.zeros((n, m + 1))
    # node rows per block: at least one, and no more than keep each buffer within 128 KB
    step = max(1, min(n - 2, (1 << 17) // (8 * (m + 1) * (n - 1))))
    hbuf, tbuf = np.empty((2, step * (n - 1), m + 1))
    for s0 in range(1, n - 1, step):
        rows = range(s0, min(s0 + step, n - 1))
        # row s's head panels fill rows a.. of hbuf, its tail panels rows b.. of
        # tbuf; order holds their places in heads + tails in summation order
        parts, order, a, b, n_heads = [], [], 0, 0, sum(rows) + len(rows)
        for s in rows:
            parts.append((hbuf[a:a + s + 1].ravel(), tbuf[b:b + s].ravel(), (n - 1 - s) * (m + 1)))
            order += [k for i in range(s) for k in (a + i, n_heads + b + i)] + [a + s]
            a, b = a + s + 1, b + s
        pick = itemgetter(*order)
        head_mid = [wmid[i][0] * mid[s - i][0] for s in rows for i in range(s + 1)]
        tail_mid = [wmid[i][1] * mid[s - i - 1][1] for s in rows for i in range(s)]
        for j in range(m + 1):
            for hout, tout, at in parts:  # wm[i] meets back[n-1-s+i] in heads, back[n-s+i] in tails
                k, kt = hout.size - m + j, tout.size - j
                np.multiply(wflat[:k], back[at + m - j:at + hout.size], out=hout[:k])
                np.multiply(wflat[j:tout.size], back[at + m + 1:at + m + 1 + kt], out=tout[:kt])
            heads = list(hbuf[:a, :j + 1]) if j > 0 else []
            tails = list(tbuf[:b, :m - j + 1]) if j < m else []
            ws = ((head_mid if j == 1 else [weights[j]] * len(heads))
                  + (tail_mid if j == m - 1 else [weights[m - j]] * len(tails)))
            panels = zip(pick(heads + tails), pick(ws)) if heads and tails else zip(heads + tails, ws)
            for s in rows:
                total = 0.0
                for fv, w in islice(panels, (s + 1 if j > 0 else 0) + (s if j < m else 0)):
                    total += _product_panel(fv, w, h)
                prod[s, j] = total
    return prod


def _product_panel(fv: np.ndarray, w: np.ndarray | float, h: float) -> float:
    """Integral over one panel from its node samples ``fv``.

    Composite Simpson, with ``w`` the panel's weights, for two or more
    subintervals; a single subinterval takes Simpson's rule with ``w`` its
    interpolated midpoint sample.
    """
    if fv.size > 2:
        return h * float(fv.dot(w))
    return h * (fv[0] + 4.0 * w + fv[1]) / 6.0
