"""Window extrema and the shrinking-envelope property."""

import numpy as np
import pytest

from parklab import (
    DomainError,
    Params,
    SegmentedGrid,
    solve_mean_derivative,
    solve_uniform_mean_derivative,
    window_extrema,
)
from parklab.envelope import check_nesting


def test_constant_grid_degenerate_window():
    g = SegmentedGrid("Mprime", np.full((5, 9), 0.7), lam=1.0)
    lo, hi = window_extrema(g, 4)
    assert lo == hi == 0.7


def test_rejects_non_derivative_grids():
    g = SegmentedGrid("M", np.zeros((5, 9)), lam=1.0)
    with pytest.raises(DomainError):
        window_extrema(g, 4)


def test_window_index_validation():
    g = solve_uniform_mean_derivative(6, 32)
    with pytest.raises(DomainError):
        window_extrema(g, 2)
    with pytest.raises(DomainError):
        window_extrema(g, 7)
    with pytest.raises(DomainError):
        check_nesting(g, 4, 4)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_nesting_holds_for_rated_grids(lam):
    g = solve_mean_derivative(Params(lam, 7, 256))
    assert all(check_nesting(g, 3, 7))


def test_nesting_holds_for_uniform_grid():
    g = solve_uniform_mean_derivative(16, 256)
    assert all(check_nesting(g, 3, 15))


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_windows_nest_as_intervals(lam):
    g = solve_mean_derivative(Params(lam, 7, 256))
    lo_prev, hi_prev = window_extrema(g, 3)
    for n in range(4, 8):
        lo, hi = window_extrema(g, n)
        assert lo >= lo_prev - 1e-9
        assert hi <= hi_prev + 1e-9
        lo_prev, hi_prev = lo, hi


def test_window_bounds_are_global_past_the_seed():
    # the first window's extrema bound the whole solved range beyond it
    g = solve_mean_derivative(Params(1.0, 7, 256))
    lo3, hi3 = window_extrema(g, 3)
    tail = g.values[2:]
    assert tail.min() >= lo3 - 1e-9
    assert tail.max() <= hi3 + 1e-9
    assert lo3 >= 0.0


def test_corrupted_grid_breaks_nesting():
    g = solve_mean_derivative(Params(1.0, 7, 128))
    vals = g.values.copy()
    vals[5, 40] += 1.0
    bad = SegmentedGrid("Mprime", vals, lam=1.0)
    assert not all(check_nesting(bad, 3, 7))
