"""Closed forms, counting bounds, and domain types."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from parklab import Bracket, DomainError, Params, SegmentedGrid, SimConfig, constants_report
from parklab.constants import crude_mean_tail
from parklab.core import (
    _node_offsets,
    _panel_weight_table,
    lower_count_bound,
    mean_closed,
    mean_derivative_closed,
    upper_count_bound,
)


class TestMeanClosed:
    @pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
    def test_piecewise_values(self, lam):
        assert mean_closed(0.7, lam) == 0.0
        assert mean_closed(1.5, lam) == 1.0
        assert mean_closed(2.0, lam) == 1.0

    @pytest.mark.parametrize("lam", [1e-8, 0.3, 1.0, 7.0, 40.0])
    def test_equals_two_at_three(self, lam):
        # the numerator mass factors cancel the denominator exactly at x=3
        assert mean_closed(3.0, lam) == pytest.approx(2.0, abs=1e-14)

    def test_continuity_near_two(self):
        lam = 1.3
        left = mean_closed(2.0 - 1e-10, lam)
        right = mean_closed(2.0 + 1e-10, lam)
        assert left == pytest.approx(1.0)
        assert right == pytest.approx(1.0, abs=1e-9)

    def test_monotone_on_upper_piece(self):
        xs = np.linspace(2.0, 3.0, 200)
        vals = [mean_closed(x, 0.8) for x in xs]
        assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            mean_closed(3.5, 1.0)
        with pytest.raises(DomainError):
            mean_closed(-0.1, 1.0)


class TestMeanDerivativeClosed:
    def test_right_limit_at_two(self):
        expected = math.sinh(1.0) / (math.cosh(1.0) - 1.0)
        assert mean_derivative_closed(2.0, 1.0, from_right=True) == pytest.approx(expected, rel=1e-13)

    def test_zero_between_jumps(self):
        assert mean_derivative_closed(1.5, 3.0) == 0.0
        assert mean_derivative_closed(0.5, 3.0) == 0.0

    def test_uniform_limit_at_two(self):
        # vanishing rate turns the right limit at 2 into the uniform value 2
        assert mean_derivative_closed(2.0, 1e-9, from_right=True) == pytest.approx(2.0, rel=1e-8)

    def test_jump_requires_flag(self):
        with pytest.raises(DomainError):
            mean_derivative_closed(2.0, 1.0)
        assert mean_derivative_closed(1.0, 1.0, from_right=True) == 0.0

    @pytest.mark.parametrize("lam", [0.05, 1.0, 12.0])
    def test_nonnegative(self, lam):
        xs = np.concatenate([np.linspace(0.01, 0.99, 23), np.linspace(1.01, 1.99, 23),
                             np.linspace(2.001, 3.0, 37)])
        assert all(mean_derivative_closed(float(x), lam) >= 0.0 for x in xs)

    def test_matches_difference_quotient(self):
        lam, x, dh = 0.9, 2.6, 1e-6
        fd = (mean_closed(x + dh, lam) - mean_closed(x - dh, lam)) / (2 * dh)
        assert mean_derivative_closed(x, lam) == pytest.approx(fd, rel=1e-8)


class TestCountBounds:
    def test_examples(self):
        assert upper_count_bound(5.3) == 5
        assert lower_count_bound(5.3) == 3
        assert upper_count_bound(1.0) == 1
        assert lower_count_bound(1.0) == 0

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_ordering_and_clamp(self, x):
        lo, hi = lower_count_bound(x), upper_count_bound(x)
        assert 0 <= lo <= hi


class TestParams:
    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            Params(0.0)
        with pytest.raises(DomainError):
            Params(1.0, horizon_n=2)
        with pytest.raises(DomainError):
            Params(1.0, resolution_m=255)
        with pytest.raises(DomainError):
            Params(math.inf)

    def test_defaults(self):
        p = Params(1.0)
        assert (p.horizon_n, p.resolution_m) == (7, 256)


class TestCheckRate:
    ENTRY_POINTS = [
        lambda lam: Params(lam),
        lambda lam: SimConfig(lam, 5.0, 10),
        lambda lam: mean_closed(2.5, lam),
        lambda lam: mean_derivative_closed(2.5, lam),
        lambda lam: crude_mean_tail(lam, 3),
        lambda lam: constants_report(lam, 0, 64, "crude"),
    ]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan, "1.0", None, True])
    def test_every_entry_point_rejects_with_one_message(self, entry, lam):
        with pytest.raises(DomainError, match=r"^rate lam must be finite and > 0, got "):
            entry(lam)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_floats_pass(self, entry):
        entry(np.float64(1.0))


class TestBracket:
    def test_ordering_enforced(self):
        with pytest.raises(DomainError):
            Bracket(1.0, 0.5)
        with pytest.raises(DomainError):
            Bracket(0.0, math.nan)

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_width_and_membership(self, lo, w):
        b = Bracket(lo, lo + w)
        assert b.width >= 0.0
        assert b.contains(b.lo) and b.contains(b.hi) and b.contains(b.midpoint)


class TestSegmentedGrid:
    def _grid(self):
        m = 16
        vals = np.zeros((3, m + 1))
        vals[1] = 1.0
        vals[2] = [mean_closed(x, 1.0) for x in (2 + np.arange(m + 1) / m)]
        return SegmentedGrid("M", vals, lam=1.0)

    def test_left_value_at_jump(self):
        g = self._grid()
        assert g.value(1.0) == 0.0  # function value, not the right limit
        assert g.values[1, 0] == 1.0  # the right limit lives on the next segment

    def test_interpolation_matches_closed_form(self):
        g = self._grid()
        assert g.value(2.3) == pytest.approx(mean_closed(2.3, 1.0), abs=2e-4)
        assert g.value(3.0) == pytest.approx(2.0, abs=1e-14)

    def test_validation(self):
        with pytest.raises(DomainError):
            SegmentedGrid("bogus", np.zeros((2, 5)), lam=1.0)
        with pytest.raises(DomainError):
            SegmentedGrid("M", np.zeros((2, 5)))  # missing rate
        with pytest.raises(DomainError):
            SegmentedGrid("uniformMprime", np.zeros((2, 5)), lam=1.0)
        bad = np.zeros((2, 5))
        bad[1, 2] = math.inf
        with pytest.raises(DomainError):
            SegmentedGrid("M", bad, lam=1.0)

    def test_values_immutable(self):
        g = self._grid()
        with pytest.raises(ValueError):
            g.values[0, 0] = 5.0


class TestSegmentRule:
    def test_node_offsets_span_the_unit_segment_exactly(self):
        # m * (1/m) rounds below 1 at m = 98, 196, 206, ...; the end is pinned
        for m in range(2, 1025, 2):
            offs = _node_offsets(m)
            assert offs[0] == 0.0 and offs[-1] == 1.0, m

    def test_grid_abscissae_are_the_solver_nodes(self):
        # j/m and j*(1/m) differ in the last bit at every m that is not a power of two
        for m in range(2, 1025, 2):
            g = SegmentedGrid("uniformMprime", np.zeros((3, m + 1)))
            for k in range(3):
                assert np.array_equal(g.x_nodes(k), k + _node_offsets(m)), (m, k)

    def test_weight_tables_share_widths_across_resolutions(self):
        _panel_weight_table.cache_clear()
        fine, coarse = _panel_weight_table(512), _panel_weight_table(256)
        assert len(fine) == 513 and len(coarse) == 257
        assert all(fine[j] is coarse[j] for j in range(2, 257))
