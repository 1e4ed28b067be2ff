"""Window extrema of derivative grids and their nesting property.

For kernels that are nonnegative, the derivative's infimum and supremum over
the sliding unit window [n-1, n] form nested intervals as n grows (the next
window's range is contained in the current one's).  That traps the derivative
on all of [n-1, infinity) inside the last solved window's extrema, which is
what certifies linear envelopes for the Laplace-integral tails.
"""

from __future__ import annotations

from .core import DomainError, SegmentedGrid, _check_int

__all__ = ["NESTING_TOL", "window_extrema", "check_nesting"]

NESTING_TOL = 1e-9


def window_extrema(grid: SegmentedGrid, n: int) -> tuple[float, float]:
    """Min and max of a derivative grid over the closed window [n-1, n].

    Node-wise over the segment, closed endpoint extensions included.  Only
    windows with n >= 3 are meaningful: the nesting argument needs the
    recursion to have been active for a full unit before the window.
    """
    if grid.kind not in ("Mprime", "uniformMprime"):
        raise DomainError(f"window extrema are defined for derivative grids, got {grid.kind!r}")
    h = grid.horizon_n
    n = _check_int("window index n", n, lambda n: 3 <= n <= h, f"an integer with 3 <= n <= {h}")
    seg = grid.values[n - 1]
    return float(seg.min()), float(seg.max())


def check_nesting(grid: SegmentedGrid, from_n: int, to_n: int) -> list[bool]:
    """Whether consecutive windows from_n..to_n shrink, within NESTING_TOL.

    Entry i reports inf[n] <= inf[n+1] and sup[n+1] <= sup[n] for
    n = from_n + i.  A False pinpoints either a solver defect or a kernel
    violating the nonnegativity the nesting proof needs.
    """
    h = grid.horizon_n
    from_n = _check_int("from_n", from_n, lambda f: 3 <= f < h, f"an integer with 3 <= from_n < {h}")
    to_n = _check_int("to_n", to_n, lambda t: from_n < t <= h, f"an integer with {from_n} < to_n <= {h}")
    results = []
    lo_prev, hi_prev = window_extrema(grid, from_n)
    for n in range(from_n + 1, to_n + 1):
        lo, hi = window_extrema(grid, n)
        results.append(lo_prev <= lo + NESTING_TOL and hi <= hi_prev + NESTING_TOL)
        lo_prev, hi_prev = lo, hi
    return results
