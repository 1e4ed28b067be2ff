"""Domain types and closed-form seed functions for the varying-rate parking model.

Cars are open unit intervals dropped on (0, x); the left endpoint of each car
follows a truncated exponential law with rate ``lam`` on the free gap.  The
mean count of cars at saturation is known in closed form up to x = 3, and the
process obeys hard counting bounds (at saturation every gap is at most one
car length, so ceil((x-1)/2) <= count <= floor(x)).  The forms on [2, 3] are
written once, here, and seed the steppers in :mod:`parklab.solver`, which
produce everything past x = 3 and, like every grid consumer, read the segment
rule (nodes, quadrature, interpolant) from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

__all__ = [
    "DomainError",
    "Params",
    "Bracket",
    "SegmentedGrid",
    "ConstantsReport",
    "GRID_KINDS",
    "TAIL_METHODS",
    "mean_closed",
    "mean_derivative_closed",
    "upper_count_bound",
    "lower_count_bound",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


GRID_KINDS = ("M", "Mprime", "M2", "uniformMprime")
TAIL_METHODS = ("crude", "envelope")

# The smallest rate Params and the tails accept: the derivative recursion
# divides by expm1(-lam*x)^2 and the step-bound tails by (1 - e^-lam)^2,
# and from 2^-511 on that square is a normal double.  Below it the square
# loses precision, the second moment's tail 2/lam^2 - 1/lam at n = 0
# overflows under ~1.05e-154, and the square is zero under ~1.5e-162.
_MIN_RATE = 2.0 ** -511

# _cumulative's interior cubic stencil forms 13*f + 13*g before it divides by 24.
_STENCIL_GAIN = 26.0


def _max_rate(horizon_n: int) -> float:
    """Largest rate whose weighted samples the solvers can represent.

    A kernel factor reaches lam*e^lam (see solver._march), the samples it
    weights are at most n^2 (the second moment of a count of at most n), and
    the cubic stencil multiplies their product by up to _STENCIL_GAIN.
    """
    return _rate_limit(_STENCIL_GAIN * horizon_n**2)


def _rate_limit(gain: float) -> float:
    """The lam with gain*lam*e^lam = max float, by Newton's method on its logarithm."""
    target = math.log(np.finfo(float).max) - math.log(gain)
    lam = target
    for _ in range(6):
        lam -= (lam + math.log(lam) - target) / (1.0 + 1.0 / lam)
    return lam


def _check_kind(name: str, value: object, integer: bool = False, need: str = ""):
    """``value`` as a Python int (or, unless integer, float), numpy scalars
    converted to the equal Python number; any other value, bools included,
    gets a message naming its type."""
    if isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        need = need or ("an integer" if integer else "a real number")
        raise DomainError(f"{name} must be {need}, got {type(value).__name__} {value!r}")
    return value


def _check_rate(lam: float, solvable: bool = False) -> float:
    """``lam`` as a Python float if it is a finite positive real, and if
    ``solvable`` (Params and the tails) from _MIN_RATE to below the largest double."""
    rate = float(_check_kind("rate lam", lam, need="finite and > 0"))
    if not (math.isfinite(rate) and rate > 0):
        raise DomainError(f"rate lam must be finite and > 0, got {lam!r}")
    if solvable and rate < _MIN_RATE:
        raise DomainError(f"rate lam={rate!r} is below {_MIN_RATE!r}, the smallest rate at "
                          f"which the step-bound tails can be evaluated in doubles")
    if solvable and rate == np.finfo(float).max:
        raise DomainError(f"rate lam={rate!r} is the largest double, so the step-bound tails "
                          f"cannot round e^lam*X ~ lam + 1 outward")
    return rate


def _check_int(name: str, value: object, ok: Callable[[int], bool], rule: str) -> int:
    """``value`` as a Python int (see _check_kind) if ok(value), else a message naming the rule."""
    value = _check_kind(name, value, integer=True)
    if not ok(value):
        raise DomainError(f"{name} must be {rule}, got {value!r}")
    return value


def _check_resolution(resolution_m: int) -> int:
    return _check_int("resolution_m", resolution_m, lambda m: m >= 2 and m % 2 == 0,
                      "an even integer >= 2")


def _check_shape(horizon_n: int, resolution_m: int) -> tuple[int, int]:
    return (_check_int("horizon_n", horizon_n, lambda n: n >= 3, "an integer >= 3"),
            _check_resolution(resolution_m))


@dataclass(frozen=True)
class Params:
    """Validated solver inputs, stored as Python numbers.

    lam          placement rate, from _MIN_RATE = 2^-511 to _max_rate(horizon_n)
    horizon_n    number of unit segments to solve, >= 3
    resolution_m subintervals per unit segment, even and >= 2
    """

    lam: float
    horizon_n: int = 7
    resolution_m: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _check_rate(self.lam, solvable=True))
        n, m = _check_shape(self.horizon_n, self.resolution_m)
        object.__setattr__(self, "horizon_n", n)
        object.__setattr__(self, "resolution_m", m)
        if self.lam > (limit := _max_rate(n)):
            raise DomainError(
                f"rate lam={self.lam:.17g} is above {limit:.17g}, the largest the solvers can "
                f"step to n={n}: the kernel factor lam*e^lam would overflow")


@dataclass(frozen=True)
class Bracket:
    """Certified enclosure [lo, hi] of a scalar."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError(f"bracket endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise DomainError(f"bracket endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= value <= self.hi + slack


@dataclass(frozen=True)
class SegmentedGrid:
    """Piecewise-smooth tabulation on [0, n] with one row per unit segment.

    Row k holds m+1 samples of the function's smooth extension to the closed
    segment [k, k+1], so jump discontinuities at integers live between rows
    and quadrature never straddles one.  Rows of adjacent segments agree at
    the shared integer abscissa except at the genuine jumps (x = 1 for the
    mean and second moment, x = 2 for the mean derivative).
    """

    kind: str
    values: np.ndarray
    lam: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in GRID_KINDS:
            raise DomainError(f"unknown grid kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 3:
            raise DomainError(f"values must be (segments, m+1) with m >= 2, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DomainError("grid contains non-finite values")
        if self.kind == "uniformMprime":
            if self.lam is not None:
                raise DomainError("uniform grids carry no rate")
        elif self.lam is None:
            raise DomainError(f"grid of kind {self.kind!r} needs a positive rate")
        else:
            object.__setattr__(self, "lam", _check_rate(self.lam))
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def horizon_n(self) -> int:
        return self.values.shape[0]

    @property
    def resolution_m(self) -> int:
        return self.values.shape[1] - 1

    def x_nodes(self, k: int) -> np.ndarray:
        """Abscissae of segment k's samples."""
        return k + _node_offsets(self.resolution_m)

    def value(self, x: float) -> float:
        """Evaluate at x in [0, horizon].

        At interior integer abscissae this reads the segment to the left,
        which is the actual function value for the left-continuous grids
        produced here.
        """
        n, m = self.horizon_n, self.resolution_m
        if not (0.0 <= x <= n):
            raise DomainError(f"x={x} outside grid range [0, {n}]")
        k = int(math.floor(x))
        if x == k and k > 0:
            return float(self.values[k - 1, m])
        off = (x - k) * m
        j = int(round(off))
        if abs(off - j) < 1e-9 * m:
            return float(self.values[k, j])
        return float(_interp_segment(self.values[k], np.array([off]))[0])


def _node_offsets(m: int) -> np.ndarray:
    """Offsets j*(1/m) of a segment's m+1 nodes from its left edge; the last is exactly 1."""
    return np.append(np.arange(m) * (1.0 / m), 1.0)


# Integral of the cubic through four consecutive unit-spaced nodes, taken
# over the first subinterval.
_EDGE_W = np.array([9.0, 19.0, -5.0, 1.0]) / 24.0


def _cumulative(vals: np.ndarray) -> np.ndarray:
    """Running integral of the local cubic (quadratic for m=2) from the left edge to every node."""
    m = vals.size - 1
    if m == 2:
        inc = np.array([5.0 * vals[0] + 8.0 * vals[1] - vals[2],
                        -vals[0] + 8.0 * vals[1] + 5.0 * vals[2]]) / 12.0
    else:
        inc = np.empty(m)
        inc[0] = _EDGE_W @ vals[:4]
        inc[-1] = _EDGE_W[::-1] @ vals[-4:]
        inc[1:-1] = (-vals[0:m - 2] + 13.0 * vals[1:m - 1] + 13.0 * vals[2:m] - vals[3:m + 1]) / 24.0
    return np.concatenate(([0.0], np.cumsum((1.0 / m) * inc)))


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


@lru_cache(maxsize=4)  # about 4*m^2 bytes, holding the tables of m/2, m/4 and m/8 too
def _panel_weight_table(m: int) -> tuple:
    """_panel_weights(j) at entry j = 2..m, shared with the table for m // 2; 0 and 1 are None."""
    head = _panel_weight_table(m // 2) if m >= 4 else (None, None)
    return (*head, *map(_panel_weights, range(len(head), m + 1)))


def _interp_segment(seg: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Local polynomial interpolation at fractional node offsets (units of h).

    Cubic through the four nearest nodes, clamped to the segment; quadratic
    when the segment has only three samples.  Exact at the nodes.
    """
    m = seg.size - 1
    if m < 3:
        jb = np.clip(np.floor(offsets).astype(int) - 1, 0, m - 2)
        xi = offsets - jb
        l0 = 0.5 * (xi - 1.0) * (xi - 2.0)
        l1 = -xi * (xi - 2.0)
        l2 = 0.5 * xi * (xi - 1.0)
        return seg[jb] * l0 + seg[jb + 1] * l1 + seg[jb + 2] * l2
    jb = np.clip(np.floor(offsets).astype(int) - 1, 0, m - 3)
    xi = offsets - jb
    l0 = -(xi - 1.0) * (xi - 2.0) * (xi - 3.0) / 6.0
    l1 = xi * (xi - 2.0) * (xi - 3.0) / 2.0
    l2 = -xi * (xi - 1.0) * (xi - 3.0) / 2.0
    l3 = xi * (xi - 1.0) * (xi - 2.0) / 6.0
    return seg[jb] * l0 + seg[jb + 1] * l1 + seg[jb + 2] * l2 + seg[jb + 3] * l3


@dataclass(frozen=True)
class ConstantsReport:
    """Brackets for the three asymptotic constants plus method metadata.

    c brackets the packing density (mean count / length), b the additive
    intercept of the mean, d the slope of the variance.  envelope_inf and
    envelope_sup are the derivative window extrema used by the envelope tail
    method; uniform_fallback marks reports below constants.UNIFORM_RATE_CUTOFF,
    whose brackets come from the uniform limit's derivative instead.
    """

    lam: float
    horizon_n: int
    resolution_m: int
    tail_method: str
    c: Bracket
    b: Bracket
    d: Bracket
    envelope_inf: Optional[float] = None
    envelope_sup: Optional[float] = None
    quadrature_halving_delta: Optional[float] = None
    uniform_fallback: bool = False

    def __post_init__(self) -> None:
        if self.tail_method not in TAIL_METHODS:
            raise DomainError(f"unknown tail method {self.tail_method!r}")
        if self.tail_method == "envelope":
            if self.envelope_inf is None or self.envelope_sup is None:
                raise DomainError("envelope reports need envelope_inf and envelope_sup")
            if self.envelope_inf > self.envelope_sup:
                raise DomainError("envelope_inf must not exceed envelope_sup")

    @property
    def endpoints(self) -> tuple[float, float, float, float, float, float]:
        """(c.lo, c.hi, b.lo, b.hi, d.lo, d.hi)."""
        return (self.c.lo, self.c.hi, self.b.lo, self.b.hi, self.d.lo, self.d.hi)

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "n": self.horizon_n,
            "m": self.resolution_m,
            "tail_method": self.tail_method,
            **dict(zip(("c_lo", "c_hi", "b_lo", "b_hi", "d_lo", "d_hi"), self.endpoints)),
            "envelope_inf": self.envelope_inf,
            "envelope_sup": self.envelope_sup,
            "quadrature_halving_delta": self.quadrature_halving_delta,
            "uniform_fallback": self.uniform_fallback,
        }


def mean_closed(x: float, lam: float) -> float:
    """Mean saturation count on [0, 3], where the stepping recursion is explicit.

    0 up to one car length, exactly 1 on (1, 2], and on (2, 3] the two-car
    probability enters through a ratio of exponential masses.  Continuous
    except for the unit jump at x = 1; equals 2 at x = 3 by cancellation.
    """
    lam = _check_rate(lam)
    if not (0.0 <= x <= 3.0):
        raise DomainError(f"closed form only valid on [0, 3], got x={x!r}")
    return 0.0 if x <= 1.0 else 1.0 if x <= 2.0 else float(_mean_past_two(x - 2.0, lam))


def mean_derivative_closed(x: float, lam: float, from_right: bool = False) -> float:
    """Derivative of the mean count on (0, 3].

    Zero below x = 2 away from the jumps; on (2, 3] it decays from its
    right-limit value at 2.  x = 1 and x = 2 are jump points and are only
    evaluated when ``from_right`` requests the right limit.
    """
    lam = _check_rate(lam, solvable=True)
    if not (0.0 < x <= 3.0):
        raise DomainError(f"closed form only valid on (0, 3], got x={x!r}")
    if (x == 1.0 or x == 2.0) and not from_right:
        raise DomainError(f"x={x} is a jump point; pass from_right=True for the right limit")
    return 0.0 if x < 2.0 else float(_mean_derivative_past_two(x - 2.0, lam))


def _mean_past_two(t, lam: float):
    """M(2 + t), for t in [0, 1] or an array of them; at t = x - 2, 1 + t is exactly x - 1."""
    return 1.0 + (1.0 + math.exp(-lam)) * -np.expm1(-lam * t) / -np.expm1(-lam * (1.0 + t))


def _second_moment_past_two(t, lam: float):
    """M2(2 + t), for t as in _mean_past_two: the count there is 1 or 2, so M2 = 3M - 2."""
    return 3.0 * _mean_past_two(t, lam) - 2.0


def _mean_derivative_past_two(t, lam: float):
    """M'(2 + t), the right limit at t = 0: lam*sinh(lam) / (cosh(lam*(1+t)) - 1) with every
    exponent nonpositive.  The expm1 square is a normal double for lam >= _MIN_RATE."""
    return lam * np.exp(-lam * t) * -math.expm1(-2.0 * lam) / np.expm1(-lam * (1.0 + t)) ** 2


def upper_count_bound(x: float) -> int:
    """Cars at saturation never exceed floor(x); valid for x >= 0."""
    return math.floor(x)


def lower_count_bound(x: float) -> int:
    """At saturation no gap exceeds 1, forcing at least ceil((x-1)/2) cars.

    Clamped to 0 below one car length so the bound reads cleanly for all
    x >= 0.
    """
    return max(0, math.ceil((x - 1.0) / 2.0))


def _count_bounds(n: int, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every node x of an (n, m) grid, and lower_count_bound and upper_count_bound there as floats."""
    x = np.arange(n)[:, None] + _node_offsets(m)
    return x, np.ceil(np.maximum(x - 1.0, 0.0) / 2.0), np.floor(x)
