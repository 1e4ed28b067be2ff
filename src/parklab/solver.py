"""Method-of-steps solvers for the saturation-mean recursions.

The value of each unknown at x+1 depends only on weighted integrals of
already-solved values on [0, x], so the grids advance one unit segment at a
time from analytic seeds on [0, 3].  All quadrature is composite Simpson (or
its cubic-stencil equivalents for odd leftover panels) on the grid's own
uniform nodes, with panels split at every integer breakpoint and, for the
convolution-type terms, at the mirror images of the integer breakpoints; each
panel rule is exact on cubics, giving fourth-order accuracy throughout.

Every recursion is stepped by one core, :func:`_march`, given its kernels
and the closure that turns their integrals into the next segment.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .core import (
    UNIFORM_RATE_CUTOFF,
    DomainError,
    Params,
    SegmentedGrid,
    _interp_segment,
)

__all__ = [
    "integrate_weighted",
    "solve_mean",
    "solve_mean_derivative",
    "solve_second_moment",
    "solve_uniform_mean_derivative",
]


# Integrals of the cubic through four consecutive unit-spaced nodes, taken
# over the first subinterval (edge) and over the middle one.
_EDGE_W = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0
_MID_W = np.array([-1.0, 13.0, 13.0, -1.0]) / 24.0


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
    if n_sub < 2:
        raise ValueError("panels with a single subinterval use the stencil rule")
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


def _single_subinterval_weights(j0: int, m: int) -> tuple[int, np.ndarray]:
    """Stencil base and weights integrating one subinterval [j0, j0+1].

    Uses the cubic through four consecutive segment nodes so the leftover
    odd panel keeps full order.  Falls back to Simpson's two-subinterval
    quadratic for three-node segments.
    """
    if m == 2:
        if j0 == 0:
            return 0, np.array([5.0, 8.0, -1.0]) / 12.0
        return 0, np.array([-1.0, 8.0, 5.0]) / 12.0
    base = min(max(j0 - 1, 0), m - 3)
    pos = j0 - base
    if pos == 0:
        return base, _EDGE_W
    if pos == 1:
        return base, _MID_W
    return base, _EDGE_W[::-1]


def integrate_weighted(
    grid: SegmentedGrid,
    weight: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
) -> float:
    """Composite-Simpson value of the integral of weight(t)*grid(t) over [a, b].

    Panels are split at a, b and at every integer breakpoint in between, so
    the piecewise-smooth grid is only ever integrated where it is smooth.
    ``weight`` must accept an ndarray of abscissae.
    """
    n = grid.horizon_n
    m = grid.resolution_m
    if not (0.0 <= a <= b <= n):
        raise DomainError(f"integration range [{a}, {b}] outside grid range [0, {n}]")
    if a == b:
        return 0.0
    cuts = [a] + [float(k) for k in range(math.floor(a) + 1, math.ceil(b))] + [b]
    total = 0.0
    for p, q in zip(cuts[:-1], cuts[1:]):
        k = min(int(math.floor(p)), n - 1)
        op, oq = (p - k) * m, (q - k) * m
        j0, j1 = round(op), round(oq)
        aligned = abs(op - j0) < 1e-9 and abs(oq - j1) < 1e-9
        if aligned and j1 - j0 >= 2:
            ts = grid.x_nodes(k)[j0:j1 + 1]
            fv = weight(ts) * grid.values[k, j0:j1 + 1]
            total += (1.0 / m) * float(_panel_weights(j1 - j0) @ fv)
        elif aligned and j1 - j0 == 1:
            base, w = _single_subinterval_weights(j0, m)
            ts = grid.x_nodes(k)[base:base + w.size]
            total += (1.0 / m) * float(w @ (weight(ts) * grid.values[k, base:base + w.size]))
        else:
            n_sub = max(2, 2 * math.ceil(0.5 * (oq - op)))
            ts = np.linspace(p, q, n_sub + 1)
            gv = _interp_segment(grid.values[k], (ts - k) * m)
            total += ((q - p) / n_sub) * float(_panel_weights(n_sub) @ (weight(ts) * gv))
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
    is solved instead and the grid is flagged.
    """
    if seed_upto not in (2, 3):
        raise DomainError("seed_upto must be 2 or 3")
    lam, n, m = params.lam, params.horizon_n, params.resolution_m
    offs = _node_offsets(m)
    vals = np.zeros((n, m + 1))
    vals[1] = 1.0
    if lam < UNIFORM_RATE_CUTOFF:
        if seed_upto == 3:
            vals[2] = 1.0 + 2.0 * offs / (1.0 + offs)
        _march(vals, 0.0, seed_upto, [(vals, lambda s, offs: 1.0, False)],
               lambda s, x, ints: 2.0 * ints[0] / x + 1.0, 2)
        return SegmentedGrid("M", vals, lam=lam, uniform_substituted=True)

    if seed_upto == 3:
        vals[2] = 1.0 + (1.0 + math.exp(-lam)) * -np.expm1(-lam * offs) / -np.expm1(-lam * (1.0 + offs))
    _march(vals, lam, seed_upto, _exp_kernels(vals, lam),
           lambda s, x, ints: (ints[0] + ints[1]) / -np.expm1(-lam * x) + 1.0, 2)
    return SegmentedGrid("M", vals, lam=lam)


def solve_mean_derivative(params: Params, *, seed_upto: int = 3) -> SegmentedGrid:
    """Derivative of the mean count on (0, horizon_n].

    The stepping identity divides an accumulated sinh-kernel integral by
    cosh(lam*x) - 1; carried multiplied by exp(-lam*x), the denominator
    becomes expm1(-lam*x)^2 / 2 and every factor stays in [0, lam*e^lam].
    The jump at x = 2 is kept; later segments join continuously.
    """
    if seed_upto not in (2, 3):
        raise DomainError("seed_upto must be 2 or 3")
    if params.lam < UNIFORM_RATE_CUTOFF:
        base = solve_uniform_mean_derivative(params.horizon_n, params.resolution_m)
        return SegmentedGrid("Mprime", base.values, lam=params.lam, uniform_substituted=True)

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
    convolution of the mean with itself.  The product term is integrated
    panel by panel between consecutive breakpoints of either factor; both
    factors land exactly on grid nodes there.
    """
    if params.lam < UNIFORM_RATE_CUTOFF:
        raise DomainError("no uniform-limit second-moment recursion; rate below cutoff unsupported")
    if m_grid.kind != "M":
        raise DomainError(f"m_grid must have kind 'M', got {m_grid.kind!r}")
    if (m_grid.lam != params.lam or m_grid.horizon_n != params.horizon_n
            or m_grid.resolution_m != params.resolution_m):
        raise DomainError("m_grid was solved with different parameters")

    lam, n, m = params.lam, params.horizon_n, params.resolution_m
    h = 1.0 / m
    offs = _node_offsets(m)
    mvals = m_grid.values
    vals = np.zeros((n, m + 1))
    vals[1] = 1.0  # the count is deterministically 1 on (1, 2]
    # lam*e^{-lam*t} at every node of every segment, reused by the product term
    node_w = lam * np.exp(-lam * (np.arange(n)[:, None] + offs[None, :]))

    def close(s: int, x: np.ndarray, ints: list[np.ndarray]) -> np.ndarray:
        own = ints[0] + ints[1]
        mean_terms = ints[2] + ints[3]
        prod = np.empty(m + 1)
        for j in range(m + 1):
            prod[j] = _product_convolution(mvals, node_w, lam, s, j, m, h)
        return 1.0 + (own + 2.0 * mean_terms + 2.0 * prod) / -np.expm1(-lam * x)

    _march(vals, lam, 2, _exp_kernels(vals, lam) + _exp_kernels(mvals, lam), close, 2)
    return SegmentedGrid("M2", vals, lam=lam)


def _product_convolution(
    mvals: np.ndarray,
    node_w: np.ndarray,
    lam: float,
    s: int,
    j: int,
    m: int,
    h: float,
) -> float:
    """Integral of lam*e^{-lam t} * f(t) * f(x-t) over [0, x] at x = s + j*h.

    Between consecutive breakpoints (integers and their mirror images x - i)
    both factors stay inside single segments and their samples are reversed
    slices of each other, so every panel works on exact node values.  The
    leftover single-subinterval panels take one interpolated midpoint.
    """
    total = 0.0
    for i in range(s + 1):
        # panel [i, i + j*h]: factor segments i and s - i
        if j > 0:
            a = mvals[i, :j + 1]
            b = mvals[s - i, :j + 1][::-1]
            fv = node_w[i, :j + 1] * a * b
            total += _product_panel(fv, mvals, lam, i, s - i, 0, j, s + j * h, m, h)
        # panel [i + j*h, i + 1]: factor segments i and s - i - 1
        if j < m and i < s:
            a = mvals[i, j:]
            b = mvals[s - i - 1, j:][::-1]
            fv = node_w[i, j:] * a * b
            total += _product_panel(fv, mvals, lam, i, s - i - 1, j, m, s + j * h, m, h)
    return total


def _product_panel(
    fv: np.ndarray,
    mvals: np.ndarray,
    lam: float,
    seg_a: int,
    seg_b: int,
    j0: int,
    j1: int,
    x: float,
    m: int,
    h: float,
) -> float:
    n_sub = j1 - j0
    if n_sub >= 2:
        return h * float(_panel_weights(n_sub) @ fv)
    # single subinterval: Simpson with the midpoint of both factors interpolated
    t_mid = seg_a + (j0 + 0.5) * h
    a_mid = float(_interp_segment(mvals[seg_a], np.array([j0 + 0.5]))[0])
    b_mid = float(_interp_segment(mvals[seg_b], np.array([(x - t_mid - seg_b) * m]))[0])
    f_mid = lam * math.exp(-lam * t_mid) * a_mid * b_mid
    return h * (fv[0] + 4.0 * f_mid + fv[1]) / 6.0
