"""Closed forms, counting bounds, and domain types."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from parklab import (Bracket, DomainError, Params, SegmentedGrid, SimConfig, constants_report,
                     solve_mean, solve_mean_derivative)
from parklab.constants import (
    crude_tails,
    density_bracket,
    envelope_tails,
    intercept_bracket,
    laplace_bracket,
    variance_slope_bracket,
)
from parklab.core import (
    _MIN_RATE,
    _max_rate,
    _mean_derivative_past_two,
    _mean_past_two,
    _node_offsets,
    _panel_weight_table,
    lower_count_bound,
    upper_count_bound,
)


# The seeds on [0, 3]: M is 0 below 1 and 1 on (1, 2], M' is 0 below 2, and on
# (2, 3] both are core's closed forms in the offset t = x - 2.
class TestMeanClosed:
    @pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
    def test_piecewise_values(self, lam):
        vals = solve_mean(Params(lam, 3, 8)).values
        assert np.all(vals[0] == 0.0) and np.all(vals[1] == 1.0)
        assert _mean_past_two(0.0, lam) == 1.0

    @pytest.mark.parametrize("lam", [1e-8, 0.3, 1.0, 7.0, 40.0])
    def test_equals_two_at_three(self, lam):
        # the numerator mass factors cancel the denominator exactly at x=3
        assert _mean_past_two(1.0, lam) == pytest.approx(2.0, abs=1e-14)

    def test_continuity_near_two(self):
        # M is 1 up to 2, and the form past 2 starts there
        assert _mean_past_two(1e-10, 1.3) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_on_upper_piece(self):
        vals = _mean_past_two(np.linspace(0.0, 1.0, 200), 0.8)
        assert np.all(vals[:-1] <= vals[1:] + 1e-14)


class TestMeanDerivativeClosed:
    def test_right_limit_at_two(self):
        expected = math.sinh(1.0) / (math.cosh(1.0) - 1.0)
        assert _mean_derivative_past_two(0.0, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_zero_between_jumps(self):
        assert np.all(solve_mean_derivative(Params(3.0, 3, 8)).values[:2] == 0.0)

    def test_uniform_limit_at_two(self):
        # vanishing rate turns the right limit at 2 into the uniform value 2
        assert _mean_derivative_past_two(0.0, 1e-9) == pytest.approx(2.0, rel=1e-8)

    @pytest.mark.parametrize("lam", [0.05, 1.0, 12.0])
    def test_nonnegative(self, lam):
        assert np.all(_mean_derivative_past_two(np.linspace(0.0, 1.0, 37), lam) >= 0.0)

    def test_matches_difference_quotient(self):
        lam, t, dh = 0.9, 0.6, 1e-6
        fd = (_mean_past_two(t + dh, lam) - _mean_past_two(t - dh, lam)) / (2 * dh)
        assert _mean_derivative_past_two(t, lam) == pytest.approx(fd, rel=1e-8)


def _libm_mean(x, lam):
    # the closed forms as libm evaluates them, one double at a time
    num = (1.0 + math.exp(-lam)) * -math.expm1(-lam * (x - 2.0))
    return 1.0 + num / -math.expm1(-lam * (x - 1.0))


def _libm_mean_derivative(x, lam):
    y = x - 1.0
    return lam * math.exp(lam * (1.0 - y)) * -math.expm1(-2.0 * lam) / math.expm1(-lam * y) ** 2


class TestClosedFormsPastTwo:
    def test_within_8_ulp_of_the_libm_formulas(self):
        # numpy's exp and expm1 may round differently from libm in the last bits
        rng = np.random.default_rng(20251020)
        xs = np.concatenate(([2.0, 3.0], 2.0 + rng.random(4000)))
        lams = np.exp(rng.uniform(math.log(2.0**-511), math.log(690.0), xs.size))
        for x, lam in zip(xs.tolist(), lams.tolist()):
            for got, ref in ((_mean_past_two(x - 2.0, lam), _libm_mean(x, lam)),
                             (_mean_derivative_past_two(x - 2.0, lam), _libm_mean_derivative(x, lam))):
                assert abs(got - ref) <= 8 * math.ulp(ref), (x, lam)


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

    def test_smallest_rate(self):
        # below 2^-511 the derivative recursion's expm1(-lam*x)^2 is no longer normal
        assert Params(2.0**-511).lam == 2.0**-511
        lam = math.nextafter(2.0**-511, 0.0)
        with pytest.raises(DomainError, match=f"^rate lam={lam!r} is below {2.0**-511!r}, "):
            Params(lam)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        p = Params(np.float32(1.0), np.int64(7), np.int64(64))
        assert [type(v) for v in (p.lam, p.horizon_n, p.resolution_m)] == [float, int, int]
        assert p == Params(1.0, 7, 64)

    @pytest.mark.parametrize("args, message", [
        ((1.0, True), "horizon_n must be an integer, got bool True"),
        ((1.0, 7.0), "horizon_n must be an integer, got float 7.0"),
        ((1.0, 7, True), "resolution_m must be an integer, got bool True"),
        ((1.0, 7, "64"), "resolution_m must be an integer, got str '64'"),
    ])
    def test_a_wrong_type_is_named(self, args, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            Params(*args)


# P, X, P2 and b from the n = 0 tails at rate 1, for the bracket maps' entry points.
_STEP_P, _STEP_X, _STEP_P2 = (laplace_bracket(1.0, None, t, k)
                              for t, k in zip(crude_tails(1.0, 0), (0, 1, 0)))
_STEP_B = intercept_bracket(1.0, _STEP_P, _STEP_X)


def _step_bound_maps(lam):
    """The bracket maps' endpoints at lam, from the n = 0 tails at the equal Python float."""
    p, x, p2 = (laplace_bracket(lam, None, t, k) for t, k in zip(crude_tails(float(lam), 0), (0, 1, 0)))
    b = intercept_bracket(lam, p, x)
    brackets = (p, x, p2, density_bracket(lam, p), b, variance_slope_bracket(lam, p, b, p2))
    return tuple(v for r in brackets for v in (r.lo, r.hi))


class TestCheckRate:
    ENTRY_POINTS = [
        lambda lam: Params(lam),
        lambda lam: SimConfig(lam, 5.0, 10),
        # the closed forms on (2, 3] are reached through the solvers' Params
        lambda lam: solve_mean(Params(lam, 3, 8)),
        lambda lam: solve_mean_derivative(Params(lam, 3, 8)),
        lambda lam: crude_tails(lam, 3),
        lambda lam: constants_report(lam, 0, 64, "crude"),
        lambda lam: envelope_tails(lam, 3, 2.0, 0.7, 0.8),
        lambda lam: laplace_bracket(lam, None, crude_tails(1.0, 0)[0], 0),
        lambda lam: density_bracket(lam, _STEP_P),
        lambda lam: intercept_bracket(lam, _STEP_P, _STEP_X),
        lambda lam: variance_slope_bracket(lam, _STEP_P, _STEP_B, _STEP_P2),
    ]

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan, "1.0", None, True])
    def test_every_entry_point_rejects_with_one_message(self, entry, lam):
        with pytest.raises(DomainError, match=r"^rate lam must be finite and > 0, got "):
            entry(lam)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_numpy_floats_pass(self, entry):
        entry(np.float64(1.0))

    @pytest.mark.parametrize("entry", [
        lambda lam: (Params(lam, 7, 16).lam,),
        lambda lam: (SimConfig(lam, 5.0, 10).lam,),
        lambda lam: tuple(solve_mean(Params(lam, 3, 8)).values[2].tolist()),
        lambda lam: tuple(solve_mean_derivative(Params(lam, 3, 8)).values[2].tolist()),
        lambda lam: tuple(v for t in crude_tails(lam, 3) for v in (t.lo, t.hi)),
        lambda lam: tuple(v for t in envelope_tails(lam, 3, 2.0, 0.7, 0.8) for v in (t.lo, t.hi)),
        lambda lam: (constants_report(lam, 0, 64, "crude").lam,
                     *constants_report(lam, 0, 64, "crude").endpoints),
        lambda lam: (constants_report(lam, 3, 16, "crude").lam,
                     *constants_report(lam, 3, 16, "crude").endpoints),
        _step_bound_maps,
    ])
    def test_numpy_scalars_run_as_python_floats(self, entry):
        # a float32 rate is converted before any arithmetic, so it gives the
        # results of the equal Python float, not float32-rounded ones
        for value in (np.float32(0.1), np.int64(1), np.float16(0.3)):
            got = entry(value)
            assert got == entry(float(value))
            assert all(type(v) is float for v in got)


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
        vals[2] = _mean_past_two(_node_offsets(m), 1.0)
        return SegmentedGrid("M", vals, lam=1.0)

    def test_left_value_at_jump(self):
        g = self._grid()
        assert g.value(1.0) == 0.0  # function value, not the right limit
        assert g.values[1, 0] == 1.0  # the right limit lives on the next segment

    def test_interpolation_matches_closed_form(self):
        g = self._grid()
        assert g.value(2.3) == pytest.approx(_mean_past_two(2.3 - 2.0, 1.0), abs=2e-4)
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

    @pytest.mark.parametrize("lam", [True, math.inf, math.nan, 0.0, -1.0, "1.0"])
    def test_rated_grids_take_the_rate_rule(self, lam):
        with pytest.raises(DomainError, match=r"^rate lam must be finite and > 0, got "):
            SegmentedGrid("M", np.zeros((3, 5)), lam=lam)

    @pytest.mark.parametrize("lam", [np.float32(1.0), np.int64(1), 1])
    def test_rated_grids_store_a_python_float(self, lam):
        g = SegmentedGrid("M2", np.zeros((3, 5)), lam=lam)
        assert type(g.lam) is float and g.lam == 1.0

    @pytest.mark.parametrize("n", [1, 3, 7, 30])
    def test_rated_grids_take_the_rates_params_takes(self, n):
        # from _MIN_RATE to _max_rate(n), past which the message is Params'
        limit = _max_rate(n)
        assert SegmentedGrid("M", np.zeros((n, 5)), lam=limit).lam == limit
        for lam in (limit * (1 + 1e-12), 800.0, 1e300):
            message = (f"rate lam={lam:.17g} is above {limit:.17g}, the largest the solvers can "
                       f"step to n={n}: the kernel factor lam*e^lam would overflow")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                SegmentedGrid("Mprime", np.zeros((n, 5)), lam=lam)
        with pytest.raises(DomainError, match=r"^rate lam=.* is below "):
            SegmentedGrid("M2", np.zeros((n, 5)), lam=_MIN_RATE / 2)

    def test_uniform_and_missing_rates_keep_their_messages(self):
        with pytest.raises(DomainError, match="^uniform grids carry no rate$"):
            SegmentedGrid("uniformMprime", np.zeros((3, 5)), lam=1.0)
        with pytest.raises(DomainError, match="^grid of kind 'Mprime' needs a positive rate$"):
            SegmentedGrid("Mprime", np.zeros((3, 5)))

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
