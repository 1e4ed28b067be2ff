"""Method-of-steps solvers for the saturation-mean recursions.

The value of each unknown at x+1 depends only on weighted integrals of
already-solved values on [0, x], so the grids advance one unit segment at a
time from analytic seeds on [0, 3]; row 2 of every rated grid is core's
closed form on [2, 3] at the segment's nodes.  All quadrature is
composite Simpson (or its cubic-stencil equivalents for odd leftover panels)
on the grid's own uniform nodes, with panels split at every integer
breakpoint and, for the convolution-type terms, at the mirror images of the
integer breakpoints; each panel rule is exact on cubics, giving fourth-order
accuracy throughout.  That segment rule is defined once, in
:mod:`parklab.core`.

Every recursion is stepped by one core, :func:`_march`, given its kernels
and the closure that turns their integrals into the next segment; it checks
each row of the mean and second-moment grids against the counting bounds as
the row closes.  The second moment's product convolution depends only on
the solved mean, so :func:`_product_grid` computes it before that march.
It works by segment pairs: for each pair it forms the samples of the pair's
head panels, and then of its tail panels, block by block in one reused
buffer, integrates each panel with one :func:`_product_panel` call on a row
view built once per grid, and adds the pair's panel values to its grid rows
as vectors, in the order a panel-by-panel sum would take.
"""

from __future__ import annotations

import contextvars
import math
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DomainError,
    Params,
    SegmentedGrid,
    _check_int,
    _check_shape,
    _count_bounds,
    _cumulative,
    _interp_segment,
    _max_rate,  # re-exported: the solvers' rate ceiling, which Params enforces
    _mean_derivative_past_two,
    _mean_past_two,
    _node_offsets,
    _panel_weight_table,
    _second_moment_past_two,
)

__all__ = [
    "integrate_weighted",
    "solve_mean",
    "solve_mean_derivative",
    "solve_second_moment",
    "solve_uniform_mean_derivative",
]


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
    a = _check_int("integration start a", a, lambda a: 0 <= a <= n, f"an integer in [0, {n}]")
    b = _check_int("integration end b", b, lambda b: a <= b <= n, f"an integer in [{a}, {n}]")
    w = _panel_weight_table(m)[m]
    total = 0.0
    for k in range(a, b):
        total += (1.0 / m) * float(w @ (weight(grid.x_nodes(k)) * grid.values[k]))
    return total


# One integral term of a recursion: (source rows, weight(s, offs), rescaled).
_Kernel = tuple[np.ndarray, Callable[[int, np.ndarray], "np.ndarray | float"], bool]


def _march(
    vals: np.ndarray,
    lam: float,
    start: int,
    kernels: list[_Kernel],
    close: Callable[[int, np.ndarray, list[np.ndarray]], np.ndarray],
    count: str | None = None,
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

    Every row k >= 3 starts where row k-1 ends; a stepped row 2 keeps its own
    first node, the right limit at the derivatives' jump at x = 2.

    Given ``count``, "mean count" or "second moment", each closed row must
    lie within the hard counting bounds (squared for the second moment)
    before a later row is stepped from it; a node outside is quadrature
    error, from weights that grow by e^(lam/m) between nodes.
    """
    n, m = vals.shape[0], vals.shape[1] - 1
    offs = _node_offsets(m)
    x, lo, hi = _count_bounds(n, m)
    lo, hi = (lo**2, hi**2) if count == "second moment" else (lo, hi)
    eq = math.exp(-lam)
    exp_off = np.exp(-lam * offs)
    prefs = [0.0] * len(kernels)
    for s in range(n - 1):
        cums = [_cumulative(rows[s] * weight(s, offs)) for rows, weight, _ in kernels]
        if s + 1 >= start:
            ints = [exp_off * (p + c) if rescaled else p + c
                    for p, c, (_, _, rescaled) in zip(prefs, cums, kernels)]
            new = close(s, s + offs, ints)
            if s + 1 >= 3:
                new[0] = vals[s, -1]
            inside = (lo[s + 1] <= new) & (new <= hi[s + 1]) if count else True
            if not np.all(inside):
                k, j = s + 1, int(np.argmin(inside))
                raise DomainError(
                    f"{count} at lam={lam:g} with m={m} is {new[j]:.6g} at x={x[k, j]:g}, "
                    f"outside the counting bounds [{lo[k, j]:g}, {hi[k, j]:g}]; the resolution "
                    f"is too coarse for this rate, a larger resolution_m is needed")
            vals[s + 1] = new
        prefs = [eq * (p + c[-1]) if rescaled else p + c[-1]
                 for p, c, (_, _, rescaled) in zip(prefs, cums, kernels)]


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
    the stepper against the closed form on (2, 3].  As lam vanishes it tends
    to the uniform limit value(x+1) = 2*integral(M)/x + 1 without cancelling.
    """
    seed_upto = _check_int("seed_upto", seed_upto, lambda k: k in (2, 3), "2 or 3")
    lam, n, m = params.lam, params.horizon_n, params.resolution_m
    vals = np.zeros((n, m + 1))
    vals[1] = 1.0
    if seed_upto == 3:
        vals[2] = _mean_past_two(_node_offsets(m), lam)
    _march(vals, lam, seed_upto, _exp_kernels(vals, lam),
           lambda s, x, ints: (ints[0] + ints[1]) / -np.expm1(-lam * x) + 1.0, "mean count")
    return SegmentedGrid("M", vals, lam=lam)


def _sinh_weight(lam: float, s: int, offs: np.ndarray) -> np.ndarray:
    """e^{-lam s} * lam*sinh(lam t) at t = s + offs, with no difference of exponentials."""
    return -0.5 * lam * np.exp(lam * offs) * np.expm1(-2.0 * lam * (s + offs))


def solve_mean_derivative(params: Params, *, seed_upto: int = 3) -> SegmentedGrid:
    """Derivative of the mean count on (0, horizon_n].

    The stepping identity divides an accumulated sinh-kernel integral by
    cosh(lam*x) - 1; carried multiplied by exp(-lam*x), the denominator
    becomes expm1(-lam*x)^2 / 2 and every factor stays in [0, lam*e^lam].
    Its kernels use expm1, so nothing cancels as lam vanishes and the grid
    tends to the uniform one down to Params' smallest rate.  The jump at
    x = 2 is kept; later segments join continuously.
    """
    seed_upto = _check_int("seed_upto", seed_upto, lambda k: k in (2, 3), "2 or 3")
    lam, n, m = params.lam, params.horizon_n, params.resolution_m
    vals = np.zeros((n, m + 1))
    if seed_upto == 3:
        vals[2] = _mean_derivative_past_two(_node_offsets(m), lam)

    def close(s: int, x: np.ndarray, ints: list[np.ndarray]) -> np.ndarray:
        seed_term = -0.5 * lam * np.exp(-lam * (x - 1.0)) * math.expm1(-2.0 * lam)
        denom = 0.5 * np.expm1(-lam * x) ** 2
        return (ints[0] + seed_term) / denom

    _march(vals, lam, seed_upto, [(vals, lambda s, offs: _sinh_weight(lam, s, offs), True)], close)
    return SegmentedGrid("Mprime", vals, lam=lam)


def solve_uniform_mean_derivative(horizon_n: int, resolution_m: int) -> SegmentedGrid:
    """Derivative of the mean count for the uniform (vanishing-rate) limit.

    value(x+1) = (integral of 2 t f(t) over [1, x] + 2) / x^2, with the jump
    at x = 2 kept as in the rated solver, which tends to this grid as lam
    vanishes.
    """
    horizon_n, resolution_m = _check_shape(horizon_n, resolution_m)
    vals = np.zeros((horizon_n, resolution_m + 1))
    _march(vals, 0.0, 2, [(vals, lambda s, offs: 2.0 * (s + offs), False)],
           lambda s, x, ints: (ints[0] + 2.0) / x**2)
    return SegmentedGrid("uniformMprime", vals)


def solve_second_moment(params: Params, m_grid: SegmentedGrid) -> SegmentedGrid:
    """Second moment of the saturation count on [0, horizon_n].

    The stepping identity mirrors the mean's but carries five integral
    terms: two in the unknown, two in the solved mean, and the product
    convolution of the mean with itself.  The product term depends only on
    the mean, so :func:`_product_grid` computes it at every node once,
    before the march; the march then reads one row of it per segment.
    """
    if m_grid.kind != "M":
        raise DomainError(f"m_grid must have kind 'M', got {m_grid.kind!r}")
    if (m_grid.lam != params.lam or m_grid.horizon_n != params.horizon_n
            or m_grid.resolution_m != params.resolution_m):
        raise DomainError("m_grid was solved with different parameters")

    lam, n, m = params.lam, params.horizon_n, params.resolution_m
    k, pending = (_WORKER_ROWS.get() or {}).get(params, (1, None))
    prod = _product_grid(m_grid.values, lam, (k, n - 1))
    if pending is not None:
        prod += pending.get()
    vals = np.zeros((n, m + 1))
    vals[1] = 1.0  # the count is deterministically 1 on (1, 2]
    vals[2] = _second_moment_past_two(_node_offsets(m), lam)
    _march(vals, lam, 3, _exp_kernels(vals, lam) + _exp_kernels(m_grid.values, lam),
           lambda s, x, ints: 1.0 + (ints[0] + ints[1] + 2.0 * (ints[2] + ints[3]) + 2.0 * prod[s])
           / -np.expm1(-lam * x), "second moment")
    return SegmentedGrid("M2", vals, lam=lam)


# Size of _product_grid's sample buffer: as many rows of m+1 samples as fit,
# at least one and at most a segment pair's m (31 rows at m=256, 7 at m=1024,
# and a whole pair up to m=90).
_SAMPLE_BUFFER_BYTES = 1 << 16

# {params: (k, pending)} while a pool worker builds rows 1..k-1 of params'
# product grid: solve_second_moment builds rows k.. and adds pending.get().
_WORKER_ROWS: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar("_WORKER_ROWS", default=None)


def _product_grid(mvals: np.ndarray, lam: float, rows: tuple[int, int] | None = None) -> np.ndarray:
    """Integral of lam*e^{-lam t} * f(t) * f(x-t) over [0, x] at every node.

    Row s holds the nodes x = s + j*h of segment s, for the segments
    s = 1..n-2 that the march closes; rows 0 and n-1 stay zero, and so do
    all but rows lo..hi-1 given ``rows = (lo, hi)``.  Row s holds m*(2s+1)
    panels, and grids over disjoint ranges add up to the full grid bit for
    bit, as in a pooled halving (one range per process).  Between
    consecutive breakpoints (integers and their mirror images x - i) both
    factors stay inside single segments and their samples are reversed
    slices of each other, so every panel works on exact node values.  The
    leftover single-subinterval panels (j = 1 and j = m-1) take one
    interpolated midpoint, which always sits half a step into a segment's
    first or last subinterval.

    The panels come in segment pairs (i, k).  For each j, pair (i, k) holds
    the head panel [i, i + j*h] of node (i + k, j) and the tail panel
    [i + j*h, i + 1] of node (i + k + 1, j), with samples wm(i, a)*f(k, j-a)
    and wm(i, j+t)*f(k, m-t), where wm is lam*e^{-lam t}*f(t): windows of f
    read backwards times a row of wm for the heads, in descending j, and
    windows of wm times a row of f read backwards for the tails, in
    ascending j.  Either way the panel with m - r subintervals is the
    prefix of sample row r.  One reused buffer of _SAMPLE_BUFFER_BYTES holds
    a block of those rows at a time, filled by one multiply and packed so
    that every prefix is contiguous; the prefixes, built once per grid, are
    what :func:`_product_panel` is called on, once per panel.  A pair's
    panel values are added to its grid rows as vectors, pairs in
    ascending i and descending k, so every node sums head i, tail i, head
    i+1, ... as a panel-by-panel loop does, bit for bit.
    """
    n, m = mvals.shape[0], mvals.shape[1] - 1
    h = 1.0 / m
    offs = _node_offsets(m)
    pad = np.zeros(m)
    # lam*e^{-lam t}*f(t) at every node, and f with each row read backwards,
    # both flat and padded so that every window of m+1 samples is in range:
    # wwin[i*(m+1) + j] holds wm(i, j + t) and fwin[k*(m+1) + m - j] f(k, j - a)
    wm = lam * np.exp(-lam * (np.arange(n)[:, None] + offs[None, :])) * mvals
    wwin = sliding_window_view(np.concatenate((wm.ravel(), pad)), m + 1)
    back = np.concatenate((mvals[:, ::-1].ravel(), pad))
    fwin = sliding_window_view(back, m + 1)
    # f, and lam*e^{-lam t}*f(t), half a step into each first and last
    # subinterval; pair (i, k)'s j = 1 head and j = m-1 tail take their products
    mid = np.array([_interp_segment(row, np.array([0.5, m - 0.5])) for row in mvals])
    wmid = np.array([(lam * math.exp(-lam * (i + 0.5 * h)) * a,
                      lam * math.exp(-lam * (i + (m - 0.5) * h)) * b) for i, (a, b) in enumerate(mid)])
    head_mid = np.multiply.outer(wmid[:, 0], mid[:, 0])
    tail_mid = np.multiply.outer(wmid[:, 1], mid[:, 1])
    weights = _panel_weight_table(m)
    depth = min(m, max(1, _SAMPLE_BUFFER_BYTES // (8 * (m + 1))))
    buf = np.empty(depth * (m + 1))
    # The block of buffer rows from r = a holds m+1-a samples per row, rows
    # packed that far apart; row r's prefix is the panel with m - r
    # subintervals.  The last row, r = m-1, takes the pair's midpoint.
    blocks = []
    for a in range(0, m, depth):
        width, count = m + 1 - a, min(depth, m - a)
        fvs = [buf[(r - a) * width:(r - a) * width + m + 1 - r] for r in range(a, a + count)]
        blocks.append((a, a + count, width, buf[:count * width].reshape(count, width),
                       [(fv, weights[m - r]) for r, fv in enumerate(fvs, a) if r < m - 1]))
    last = fvs[-1]

    def panel_values(windows: np.ndarray, start: int, row: np.ndarray, f_mid: float) -> list:
        vals = []
        for a, b, width, out, panels in blocks:
            np.multiply(windows[start + a:start + b, :width], row[:width], out=out)
            vals += [_product_panel(fv, w, h) for fv, w in panels]
        vals.append(_product_panel(last, f_mid, h))
        return vals

    lo, hi = rows or (1, n - 1)
    prod = np.zeros((n, m + 1))
    for i in range(hi):
        for k in range(hi - 1 - i, max(lo - 1 - i, 0) - 1, -1):
            s = i + k
            if s >= lo:  # head panels of row s, in descending j
                prod[s, :0:-1] += panel_values(fwin, k * (m + 1), wm[i], head_mid[i, k])
            if s + 1 < hi:  # tail panels of row s + 1, in ascending j
                prod[s + 1, :m] += panel_values(wwin, i * (m + 1), back[k * (m + 1):(k + 1) * (m + 1)],
                                                tail_mid[i, k])
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
