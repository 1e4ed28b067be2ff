"""Tail bounds and constant brackets against series and quadrature oracles."""

import functools
import math
import multiprocessing
import multiprocessing.pool
import os
import re
import sys
from collections import Counter
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from parklab import Bracket, DomainError, Params, constants_report
from parklab import constants, solver, validation
from parklab.constants import (
    TailBound,
    crude_tails,
    crude_width_formula,
    density_bracket,
    envelope_tails,
    intercept_bracket,
    laplace_bracket,
    truncated_laplace,
    variance_slope_bracket,
)
from parklab.core import _MIN_RATE, SegmentedGrid


# ---------------------------------------------------------------------------
# Series oracles: sum the step-bound integrals, times e^lam like the tails,
# term by term until they vanish.  On (k, k+1) the bounds are floor = k and
# ceil((x-1)/2) = ceil(k/2).

def _unit_mass(lam, k, xpow):
    if xpow == 0:
        return math.exp(-lam * (k - 1)) - math.exp(-lam * k)
    return ((lam * k + 1) * math.exp(-lam * (k - 1))
            - (lam * (k + 1) + 1) * math.exp(-lam * k))


def _series_tail(lam, n, step, xpow=0, terms=800):
    return sum(step(k) * _unit_mass(lam, k, xpow) for k in range(n, n + terms))


LAM_GRID = [0.25, 1.0, 2.7]
N_GRID = [0, 1, 2, 5, 7]


class TestCrudeTails:
    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_mean_tail_matches_series(self, lam, n):
        t = crude_tails(lam, n)[0]
        assert t.hi == pytest.approx(_series_tail(lam, n, lambda k: k), rel=1e-13)
        assert t.lo == pytest.approx(
            _series_tail(lam, n, lambda k: math.ceil(k / 2)), rel=1e-13)

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_xmean_tail_matches_series(self, lam, n):
        t = crude_tails(lam, n)[1]
        assert t.hi == pytest.approx(_series_tail(lam, n, lambda k: k, 1), rel=1e-12)
        assert t.lo == pytest.approx(
            _series_tail(lam, n, lambda k: math.ceil(k / 2), 1), rel=1e-12)

    @pytest.mark.parametrize("lam", LAM_GRID)
    @pytest.mark.parametrize("n", N_GRID)
    def test_second_moment_tail_matches_series(self, lam, n):
        t = crude_tails(lam, n)[2]
        assert t.hi == pytest.approx(_series_tail(lam, n, lambda k: k * k), rel=1e-12)
        assert t.lo == pytest.approx(
            _series_tail(lam, n, lambda k: math.ceil(k / 2) ** 2), rel=1e-12)

    def test_closed_forms_at_zero_truncation(self):
        lam = 1.3
        q = math.exp(-lam)
        t = crude_tails(lam, 0)[0]
        assert t.hi == pytest.approx(math.exp(lam) * q / (1 - q), rel=1e-14)
        assert t.lo == pytest.approx(math.exp(lam) * q / (1 - q * q), rel=1e-14)

    @pytest.mark.parametrize("lam", [_MIN_RATE, 1e-3, 1.0, 30.0, 700.0, 1e6, 1e300])
    def test_tails_from_zero_are_the_tails_from_one(self, lam):
        # both counting bounds are 0 below x = 1
        assert [replace(t, n=1) for t in crude_tails(lam, 0)] == list(crude_tails(lam, 1))

    def test_gap_decays_geometrically_in_rate(self):
        # at truncation 7 the gap of the unscaled tails scales like e^(-7 lam) per unit of rate
        gaps = [crude_tails(lam, 7)[0].width * math.exp(-lam) for lam in (2.0, 3.0, 4.0)]
        for g0, g1 in zip(gaps, gaps[1:]):
            assert g1 / g0 < math.exp(-6.0)
            assert g1 / g0 > math.exp(-8.0)

    def test_gap_limit_at_vanishing_rate(self):
        lam = 1e-4
        t = crude_tails(lam, 7)[0]
        width = lam / (lam + 1) * (t.hi - t.lo)
        assert width == pytest.approx(0.5, abs=1e-3)

    @pytest.mark.parametrize("n", [0, 3, 7])
    def test_ends_stay_in_order_at_large_rates(self, n):
        # without outward rounding X's tail at n = 0 inverts from lam ~ 38.03 on
        for lam in np.linspace(20.0, 700.0, 4000):
            for t in crude_tails(float(lam), n):
                assert t.lo <= t.hi

    def test_validation(self):
        with pytest.raises(DomainError):
            crude_tails(-1.0, 3)
        with pytest.raises(DomainError):
            crude_tails(1.0, -1)
        with pytest.raises(DomainError, match="bracket endpoints out of order"):
            TailBound(2.0, 1.0, 3)
        with pytest.raises(DomainError, match="truncation point"):
            TailBound(1.0, 2.0, -1)

    TAILS = [
        lambda lam, n: crude_tails(lam, n)[0],
        lambda lam, n: crude_tails(lam, n)[1],
        lambda lam, n: crude_tails(lam, n)[2],
        crude_width_formula,
        lambda lam, n: envelope_tails(lam, n, 5.3, 0.7, 0.81)[1],
        lambda lam, n: envelope_tails(lam, n, 5.3, 0.7, 0.81)[2],
    ]

    TAIL_IDS = ["crude_mean", "crude_xmean", "crude_second_moment", "crude_width",
                "envelope_xmean", "envelope_second_moment"]

    @pytest.mark.parametrize("tail", TAILS, ids=TAIL_IDS)
    def test_numpy_truncation_point_reads_as_a_python_int(self, tail):
        assert tail(1.0, np.int64(7)) == tail(1.0, np.uint8(7)) == tail(1.0, 7)

    @pytest.mark.parametrize("tail", TAILS, ids=TAIL_IDS)
    @pytest.mark.parametrize("n", [True, 3.0])
    def test_bool_and_float_truncation_points_rejected(self, tail, n):
        with pytest.raises(DomainError, match=f"^truncation point must be an integer, got "
                                              f"{type(n).__name__} {n!r}$"):
            tail(1.0, n)

    def test_tail_bound_truncation_point(self):
        t = TailBound(1.0, 2.0, np.int64(3))
        assert t == TailBound(1.0, 2.0, 3) and type(t.n) is int
        for n in (True, 3.0):
            with pytest.raises(DomainError, match="^truncation point must be an integer, got "):
                TailBound(1.0, 2.0, n)


class TestEnvelopeTails:
    CASES = [(1.0, 7, 5.3, 0.70, 0.81), (0.3, 5, 3.1, 0.6, 0.9), (2.5, 7, 6.6, 0.5, 1.0)]

    @pytest.mark.parametrize("lam,n,a,ci,cs", CASES)
    def test_mean_tail_against_quadrature(self, lam, n, a, ci, cs):
        t0, t1, _ = envelope_tails(lam, n, a, ci, cs)
        for c, got0, got1 in [(ci, t0.lo, t1.lo), (cs, t0.hi, t1.hi)]:
            ref0, _ = quad(lambda x: lam * (a + c * (x - n)) * math.exp(-lam * (x - 1)), n, np.inf)
            ref1, _ = quad(lambda x: lam**2 * x * (a + c * (x - n)) * math.exp(-lam * (x - 1)),
                           n, np.inf)
            assert got0 == pytest.approx(ref0, rel=1e-9)
            assert got1 == pytest.approx(ref1, rel=1e-9)

    @pytest.mark.parametrize("lam,n,a,ci,cs", CASES)
    def test_second_moment_tail_against_quadrature(self, lam, n, a, ci, cs):
        t = envelope_tails(lam, n, a, ci, cs)[2]
        ref_lo, _ = quad(lambda x: lam * (a + ci * (x - n)) ** 2 * math.exp(-lam * (x - 1)), n, np.inf)
        assert t.lo == pytest.approx(ref_lo, rel=1e-9)
        ref_hi = _series_tail(lam, n, lambda k: k * a) \
            + cs * (_series_tail(lam, n, lambda k: k, 1) / lam
                    - n * _series_tail(lam, n, lambda k: k))
        assert t.hi == pytest.approx(ref_hi, rel=1e-9)

    def test_flat_envelope(self):
        t = envelope_tails(1.0, 7, 5.0, 0.0, 0.0)[0]
        assert t.lo == t.hi == pytest.approx(5.0 * math.exp(-6.0), rel=1e-14)

    def test_power_one_unit_case(self):
        # the constant envelope 1 from n = 1 at unit rate: X's tail is (lam*n + 1)*e^(-lam*n) = 2/e,
        # and e times that is 2
        t = envelope_tails(1.0, 1, 1.0, 0.0, 0.0)[1]
        assert t.lo == t.hi == pytest.approx(2.0, rel=1e-14)

    def test_envelope_above_the_floor_bound_is_rejected(self):
        # the mean is 0 on [0, 1), so value 1 from n = 0 puts P2's lower end above its floor(x) end
        with pytest.raises(DomainError, match="out of order"):
            envelope_tails(1.0, 0, 1.0, 0.0, 0.0)

    def test_envelopes_from_zero_need_e_to_the_rate_as_a_double(self):
        assert envelope_tails(709.0, 0, 0.0, 0.0, 0.0)[0] == TailBound(0.0, 0.0, 0)
        with pytest.raises(DomainError, match="^envelope tails from n=0 scale by e\\^lam, which has "
                                              "no double at lam=710.0$"):
            envelope_tails(710.0, 0, 0.0, 0.0, 0.0)

    def test_slope_order_enforced(self):
        with pytest.raises(DomainError):
            envelope_tails(1.0, 7, 5.0, 0.9, 0.2)


class TestTruncatedLaplace:
    def _closed_grid(self, lam=1.0, n=2, m=256):
        vals = np.zeros((n, m + 1))
        vals[1] = 1.0
        return SegmentedGrid("M", vals, lam=lam)

    def test_power_zero_piecewise_constant(self):
        g = self._closed_grid()
        got = truncated_laplace(g, 1.0, 0)
        assert got == pytest.approx(math.exp(-1) - math.exp(-2), abs=1e-11)

    def test_power_one_piecewise_constant(self):
        g = self._closed_grid()
        got = truncated_laplace(g, 1.0, 1)
        assert got == pytest.approx(2 * math.exp(-1) - 3 * math.exp(-2), abs=1e-11)

    def test_zero_rate_is_plain_integral(self):
        g = SegmentedGrid("M", np.ones((3, 65)), lam=1.0)
        assert truncated_laplace(g, 0.0, 0) == pytest.approx(3.0, abs=1e-13)

    def test_power_validation(self):
        with pytest.raises(DomainError):
            truncated_laplace(self._closed_grid(), 1.0, 2)


# ---------------------------------------------------------------------------
# Bracket assembly.

def _direct_intercept(lam, c, x_weighted):
    # unfactored form of the intercept identity on the unscaled X, for
    # cross-checking the large-rate grouping used in the implementation
    elam = math.exp(lam)
    k = (2 + 2 * elam + 2 * lam * elam - lam**2) / (2 * lam * (lam + 1))
    return c * k - (elam + 1) / (lam + 1) - x_weighted / (lam + 1)


def _step_p(lam):
    # enclosure of e^lam*P from the pure step-bound tail, nothing solved
    return laplace_bracket(lam, None, crude_tails(lam, 0)[0], 0)


def _step_x(lam):
    return laplace_bracket(lam, None, crude_tails(lam, 0)[1], 1)


def _step_p2(lam):
    return laplace_bracket(lam, None, crude_tails(lam, 0)[2], 0)


def _p_of(lam, c):
    # e^lam*P for a given density: the density identity solved for P
    return math.exp(lam) * (c * (lam + 1.0) / lam - 1.0)


def _direct_slope(lam, c, b, p2):
    # the unfactored slope identity on the unscaled P2
    elam = math.exp(lam)
    b1 = (4 * b * c - (2 * elam / lam) * c**2
          + (2 * (1 + lam + elam) / (lam + 1)) * c + (lam * p2 - lam) / (lam + 1))
    return b1 - 2 * b * c


class TestDensityBracket:
    def test_pure_tail_endpoints_at_rate_one(self):
        c = density_bracket(1.0, _step_p(1.0))
        q = math.exp(-1.0)
        assert c.lo == pytest.approx(0.5 * (1 + q / (1 - q * q)), abs=1e-15)
        assert c.hi == pytest.approx(0.5 * (1 + q / (1 - q)), abs=1e-15)

    def test_large_rate_asymptote(self):
        lam = 10.0
        c = density_bracket(lam, _step_p(lam))
        target = lam * (1 + math.exp(-lam)) / (lam + 1)
        assert c.contains(target, slack=10 * math.exp(-2 * lam))

    def test_width_formula_matches_bracket(self):
        for lam in (0.7, 1.0, 1.6):
            rep = constants_report(lam, 7, 64, "crude")
            assert rep.c.width == pytest.approx(crude_width_formula(lam, 7), abs=1e-12)

    def test_power_checked_before_the_n_zero_shortcut(self):
        with pytest.raises(DomainError, match="^power must be 0 or 1, got 7$"):
            laplace_bracket(1.0, None, crude_tails(1.0, 0)[0], 7)
        grid = SegmentedGrid("M", np.ones((3, 65)), lam=1.0)
        for power in (True, 1.0):  # both once read as 1
            message = f"^power must be an integer, got {type(power).__name__} {power!r}$"
            with pytest.raises(DomainError, match=message):
                laplace_bracket(1.0, None, crude_tails(1.0, 0)[0], power)
            with pytest.raises(DomainError, match=message):
                truncated_laplace(grid, 1.0, power)

    def test_grid_required_for_positive_truncation(self):
        with pytest.raises(DomainError):
            laplace_bracket(1.0, None, crude_tails(1.0, 7)[0], 0)

    def test_tail_must_start_at_the_grid_horizon(self):
        # the truncated part covers the whole grid, so a tail from n=5 on a
        # grid to 7 counted [5, 7] twice and excluded the n=7 bracket
        grid = solver.solve_mean(Params(1.0, 7, 64))
        for n in (5, 8):
            with pytest.raises(DomainError, match=f"grid horizon 7 differs from truncation point {n}"):
                laplace_bracket(1.0, grid, crude_tails(1.0, n)[0], 0)
        p = laplace_bracket(1.0, grid, crude_tails(1.0, 7)[0], 0)
        assert density_bracket(1.0, p) == constants_report(1.0, 7, 64, "crude").c

    def test_grid_must_be_solved_at_the_rate(self):
        # another rate's grid once gave a bracket, and from 709.78 on e^lam overflowed
        grid = solver.solve_mean(Params(1.0, 7, 64))
        for lam in (2.0, 800.0):
            with pytest.raises(DomainError, match=f"^grid rate 1.0 differs from rate lam={lam!r}$"):
                laplace_bracket(lam, grid, crude_tails(lam, 7)[0], 0)

    def test_a_grid_above_the_solvers_ceiling_is_never_built(self):
        # a hand-built grid once carried lam=800 into math.exp(lam): OverflowError
        with pytest.raises(DomainError, match=r"^rate lam=800 is above .* n=3: the kernel factor"):
            laplace_bracket(800.0, SegmentedGrid("M", np.zeros((3, 65)), lam=800.0),
                            crude_tails(800.0, 3)[0], 0)

    def test_kept_within_the_counting_bounds(self):
        # ceil((x-1)/2) <= count <= floor(x), so c lies in [1/2, 1]; the maps take e^lam*P
        assert density_bracket(1.0, Bracket(-5.0 * math.e, 5.0 * math.e)) == Bracket(0.5, 1.0)
        with pytest.raises(DomainError, match="out of order"):
            density_bracket(1.0, Bracket(2.0 * math.e, 3.0 * math.e))  # c in [1.5, 2]: no density fits

    def test_uniform_fallback_clamps_c_before_forming_b(self):
        # the uniform derivative's window extrema at n=3, m=4 are [0.5, 2.0]
        rep = constants_report(1e-7, 3, 4, with_halving_delta=True)
        assert (rep.envelope_inf, rep.envelope_sup) == (0.5, 2.0)
        assert (rep.c, rep.b) == (Bracket(0.5, 1.0), Bracket(-0.5, 0.0))


class TestInterceptBracket:
    @pytest.mark.parametrize("lam", [0.3, 1.0, 2.0, 6.0])
    def test_pure_tail_matches_direct_formula(self, lam):
        # oracle: unfactored identity fed with series-summed tails
        c = density_bracket(lam, _step_p(lam))
        b = intercept_bracket(lam, _step_p(lam), _step_x(lam))
        x_lo = math.exp(-lam) * _series_tail(lam, 0, lambda k: math.ceil(k / 2), 1)
        x_hi = math.exp(-lam) * _series_tail(lam, 0, lambda k: k, 1)
        assert b.lo == pytest.approx(_direct_intercept(lam, c.lo, x_hi), rel=1e-9, abs=1e-11)
        assert b.hi == pytest.approx(_direct_intercept(lam, c.hi, x_lo), rel=1e-9, abs=1e-11)

    def test_large_rate_asymptote(self):
        lam = 8.0
        b = intercept_bracket(lam, _step_p(lam), _step_x(lam))
        target = -0.5 + 1 / (lam + 1) + 1 / (2 * (lam + 1) ** 2)
        assert b.contains(target, slack=10 * math.exp(-lam))

    def test_stable_at_large_rate(self):
        # the e^lam-sized pieces must cancel symbolically, not in floats
        lam = 40.0
        b = intercept_bracket(lam, _step_p(lam), _step_x(lam))
        target = -0.5 + 1 / (lam + 1) + 1 / (2 * (lam + 1) ** 2)
        assert abs(b.midpoint - target) < 1e-12
        assert b.width < 1e-12

    def test_report_pipeline_stable_at_large_rate(self):
        rep = constants_report(40.0, 0, 64, "crude")
        assert abs(rep.d.midpoint - 40.0 / 41.0**3) < 1e-12


class TestVarianceSlopeBracket:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_degenerate_inputs_match_direct_formula(self, lam):
        c_pt, b_pt = 0.77, -0.26
        p = Bracket(_p_of(lam, c_pt), _p_of(lam, c_pt))
        b = Bracket(b_pt, b_pt)
        tail = crude_tails(lam, 0)[2]
        d = variance_slope_bracket(lam, p, b, laplace_bracket(lam, None, tail, 0))
        lo_ref = _direct_slope(lam, c_pt, b_pt, math.exp(-lam) * tail.lo)
        hi_ref = _direct_slope(lam, c_pt, b_pt, math.exp(-lam) * tail.hi)
        assert d.lo == pytest.approx(lo_ref, rel=1e-10, abs=1e-12)
        assert d.hi == pytest.approx(hi_ref, rel=1e-10, abs=1e-12)

    def test_large_rate_asymptote(self):
        lam = 8.0
        rep = constants_report(lam, 7, 128, "crude")
        assert rep.d.contains(lam / (lam + 1) ** 3, slack=10 * math.exp(-lam))

    @settings(max_examples=30, deadline=None)
    @given(
        lam=st.floats(0.2, 5.0),
        c_mid=st.floats(0.6, 0.95),
        c_w=st.floats(0.0, 0.05),
        b_mid=st.floats(-0.45, -0.05),
        b_w=st.floats(0.0, 0.05),
    )
    def test_widening_inputs_never_narrows_output(self, lam, c_mid, c_w, b_mid, b_w):
        p2 = _step_p2(lam)
        p_mid = _p_of(lam, c_mid)
        narrow = variance_slope_bracket(lam, Bracket(p_mid, p_mid), Bracket(b_mid, b_mid), p2)
        wide = variance_slope_bracket(
            lam, Bracket(_p_of(lam, c_mid - c_w), _p_of(lam, c_mid + c_w)),
            Bracket(b_mid - b_w, b_mid + b_w), p2)
        assert wide.lo <= narrow.lo + 1e-12
        assert wide.hi >= narrow.hi - 1e-12


class TestReports:
    @pytest.mark.parametrize("lam", [0.2, 0.5, 1.0])
    def test_envelope_bracket_inside_crude(self, lam):
        crude = constants_report(lam, 7, 128, "crude")
        env = constants_report(lam, 7, 128, "envelope")
        for a, b in ((env.c, crude.c), (env.b, crude.b), (env.d, crude.d)):
            assert a.lo >= b.lo - 1e-12
            assert a.hi <= b.hi + 1e-12

    @pytest.mark.parametrize("method", ["crude", "envelope"])
    def test_longer_horizon_nests_brackets(self, method):
        # more solved mass can only sharpen both endpoints
        reps = [constants_report(1.0, n, 128, method) for n in (5, 6, 7, 10)]
        for prev, nxt in zip(reps, reps[1:]):
            for a, b in ((nxt.c, prev.c), (nxt.b, prev.b), (nxt.d, prev.d)):
                assert a.lo >= b.lo - 1e-12
                assert a.hi <= b.hi + 1e-12

    def test_constants_trend_with_rate(self):
        # density climbs toward 1 while the intercept drifts down toward -1/2
        reps = [constants_report(lam, 7, 64, "envelope") for lam in (0.2, 0.7, 1.5, 2.5)]
        c_mids = [r.c.midpoint for r in reps]
        assert all(a < b for a, b in zip(c_mids, c_mids[1:]))
        assert reps[-1].b.midpoint < reps[0].b.midpoint

    def test_small_rate_observational_variance_slope(self):
        # not asserted to converge; just recorded against the uniform-case
        # variance slope reported in the literature (~0.035672)
        rep = constants_report(0.01, 7, 128, "envelope")
        contains = rep.d.contains(0.035672)
        print(f"variance-slope bracket at rate 0.01: "
              f"[{rep.d.lo:.6f}, {rep.d.hi:.6f}], contains 0.035672: {contains}")
        assert rep.d.lo <= rep.d.hi

    def test_uniform_fallback_below_cutoff(self):
        rep = constants_report(1e-7, 7, 128, "envelope")
        assert rep.uniform_fallback
        assert rep.c.contains(0.7476, slack=2e-4)
        assert rep.b.contains(-0.2524, slack=2e-4)
        assert rep.to_dict()["uniform_fallback"] is True

    def test_report_dict_schema(self):
        rep = constants_report(1.0, 7, 64, "envelope")
        keys = set(rep.to_dict())
        assert keys == {
            "lambda", "n", "m", "tail_method", "c_lo", "c_hi", "b_lo", "b_hi",
            "d_lo", "d_hi", "envelope_inf", "envelope_sup",
            "quadrature_halving_delta", "uniform_fallback",
        }

    def test_endpoints_order(self):
        rep = constants_report(1.0, 7, 64, "crude")
        assert rep.endpoints == (rep.c.lo, rep.c.hi, rep.b.lo, rep.b.hi, rep.d.lo, rep.d.hi)

    def test_each_laplace_integral_enclosed_once(self, monkeypatch):
        # P and X on the mean grid, P2 on the second-moment grid, once each
        enclosed = []
        original = constants.truncated_laplace

        def counting(grid, lam, power):
            enclosed.append((grid.kind, power))
            return original(grid, lam, power)

        monkeypatch.setattr(constants, "truncated_laplace", counting)
        constants_report(1.0, 7, 64, "crude")
        assert sorted(enclosed) == [("M", 0), ("M", 1), ("M2", 0)]

    def test_horizon_validation(self):
        with pytest.raises(DomainError):
            constants_report(1.0, 1, 64)
        with pytest.raises(DomainError):
            constants_report(1.0, 0, 64, "envelope")
        rep = constants_report(1.0, 0, 64, "crude")
        assert rep.horizon_n == 0

    @pytest.mark.parametrize("lam", [1.0, 1e-7], ids=["rated", "uniform-fallback"])
    def test_a_solved_halving_at_m_two_is_rejected_before_solving(self, monkeypatch, lam):
        # m=2 would halve to itself and report a vacuous delta of 0.0
        def refuse(*args, **kwargs):
            raise AssertionError("solved before rejecting the input")

        monkeypatch.setattr(solver, "_march", refuse)
        with pytest.raises(DomainError, match="^the halving delta halves resolution_m, so it "
                                              "needs resolution_m >= 4 when horizon_n > 0, got 2$"):
            constants_report(lam, 7, 2, with_halving_delta=True)

    def test_halving_deltas_at_the_smallest_resolutions(self):
        assert constants_report(1.0, 0, 2, "crude", with_halving_delta=True) \
            .quadrature_halving_delta == 0.0  # nothing solved, so nothing moves
        assert constants_report(1.0, 7, 4, with_halving_delta=True).quadrature_halving_delta > 0.0

    @pytest.mark.parametrize("lam, n, tail", [(1.0, 0, "crude"), (1.0, 7, "crude"),
                                              (1e-7, 7, "envelope")],
                             ids=["step-bound", "rated", "uniform-fallback"])
    @pytest.mark.parametrize("m", [-5, 0, 3, "abc", 64.0, True])
    def test_resolution_validated_at_every_horizon(self, lam, n, tail, m):
        with pytest.raises(DomainError, match="^resolution_m must be an"):
            constants_report(lam, n, m, tail)

    def test_numpy_horizon_and_resolution(self):
        rep = constants_report(1.0, np.int64(7), np.int64(16), "crude")
        assert rep == constants_report(1.0, 7, 16, "crude")
        assert (type(rep.horizon_n), type(rep.resolution_m)) == (int, int)


class TestLargeRates:
    # the n = 0 report's former ceiling, where its intercept identity formed 2*(1+lam)*e^lam
    OLD_LIMIT = 701.84270921429197

    @pytest.mark.parametrize("lam", [40.0, 100.0, 700.0, 702.0, 1e3, 1e4, 1e6, 1e100, 1e300])
    def test_step_bound_report_meets_the_limits(self, large_rate_limits, lam):
        rep = constants_report(lam, 0, 16, "crude")
        assert all(math.isfinite(v) for v in rep.endpoints)
        c_inf, b_inf, d_inf = large_rate_limits(lam)
        assert rep.d.contains(d_inf)
        for bracket, limit in ((rep.c, c_inf), (rep.b, b_inf)):
            assert abs(bracket.lo - limit) <= 4 * math.ulp(limit)
            assert abs(bracket.hi - limit) <= 4 * math.ulp(limit)

    @pytest.mark.parametrize("with_halving_delta", [False, True])
    def test_report_just_above_the_old_limit(self, large_rate_limits, with_halving_delta):
        lam = math.nextafter(self.OLD_LIMIT, math.inf)
        rep = constants_report(lam, 0, 16, "crude", with_halving_delta=with_halving_delta)
        assert all(math.isfinite(v) for v in rep.endpoints)
        assert rep.d.contains(large_rate_limits(lam)[2])

    def test_intercept_and_slope_maps_above_the_old_limit(self):
        # both once formed e^lam terms and overflowed at 710
        for lam in (710.0, 1e6):
            p, x, p2 = _step_p(lam), _step_x(lam), _step_p2(lam)
            b = intercept_bracket(lam, p, x)
            d = variance_slope_bracket(lam, p, b, p2)
            assert all(math.isfinite(v) for v in (b.lo, b.hi, d.lo, d.hi))

    def test_the_largest_double_is_rejected(self):
        # e^lam*X ~ lam + 1 rounds out past it
        lam = sys.float_info.max
        for evaluate in (lambda: crude_tails(lam, 0), lambda: constants_report(lam, 0, 16, "crude"),
                         lambda: intercept_bracket(lam, _step_p(1.0), _step_x(1.0))):
            with pytest.raises(DomainError, match=f"^rate lam={re.escape(repr(lam))} is the largest double"):
                evaluate()
        assert math.isfinite(crude_tails(math.nextafter(lam, 0.0), 0)[1].hi)

    def test_identities_match_the_e_to_the_rate_forms(self):
        # the forms the maps replaced, which multiply P by e^lam, in 40 digits
        rng = np.random.default_rng(33)
        worst = 0.0
        with mpmath.workdps(40):
            for lam in 10.0 ** rng.uniform(-3.0, math.log10(700.0), 200):
                ps, xs, p2s = (rng.uniform(t.lo, t.hi) for t in crude_tails(lam, 0))
                b = constants._intercept_from(lam, ps, xs)
                d = constants._slope_from(lam, ps, b, p2s)
                L, q = mpmath.mpf(lam), mpmath.exp(-mpmath.mpf(lam))
                p, x, p2 = q * ps, q * xs, q * p2s
                b_ref = (((1 + p) * (2 - L**2) + 2 * mpmath.exp(L) * (1 + L) * p - 2 * (L + 1)
                          - 2 * (L + 1) * x) / (2 * (L + 1) ** 2))
                c = L * (1 + p) / (L + 1)
                d_ref = 2 * b * c + 2 * c - 2 * mpmath.exp(L) * p * c / (L + 1) + (L * p2 - L) / (L + 1)
                for got, ref in ((b, b_ref), (d, d_ref)):
                    worst = max(worst, float(abs(got - ref) / max(1, abs(ref))))
        assert worst <= 1e-12


class TestSmallestRate:
    LIMIT = _MIN_RATE

    def test_limit_keeps_the_step_bound_denominators_normal(self):
        # the tails divide by (1 - e^-lam)^2; the second moment's is 2/lam^2 - 1/lam at n = 0
        one_q = -math.expm1(-self.LIMIT)
        assert one_q**2 >= sys.float_info.min
        assert math.isfinite(2.0 / one_q**2)
        assert math.nextafter(self.LIMIT, 0.0) ** 2 < sys.float_info.min

    @pytest.mark.parametrize("n", [0, 7])
    def test_report_at_the_limit(self, n):
        rep = constants_report(self.LIMIT, n, 16, "crude" if n == 0 else "envelope")
        assert all(math.isfinite(v) for v in rep.endpoints)
        assert rep.uniform_fallback == (n > 0)

    @pytest.mark.parametrize("n", [0, 7])
    def test_report_just_below_the_limit_is_rejected(self, n):
        lam = math.nextafter(self.LIMIT, 0.0)
        with pytest.raises(DomainError, match=f"rate lam={lam!r} is below {self.LIMIT!r}"):
            constants_report(lam, n, 16, "crude" if n == 0 else "envelope")

    def test_tails_reject_rates_below_the_limit(self):
        # 1e-200 once divided by zero, 1e-155 gave an infinite tail; the bracket
        # maps once returned brackets at both
        p, x, p2 = _step_p(1.0), _step_x(1.0), _step_p2(1.0)
        b = intercept_bracket(1.0, p, x)
        for lam in (1e-200, 1e-155):
            for evaluate in (lambda lam: crude_tails(lam, 0),
                             lambda lam: crude_width_formula(lam, 0),
                             lambda lam: envelope_tails(lam, 1, 1.0, 0.5, 0.5),
                             lambda lam: laplace_bracket(lam, None, crude_tails(1.0, 0)[0], 0),
                             lambda lam: density_bracket(lam, p),
                             lambda lam: intercept_bracket(lam, p, x),
                             lambda lam: variance_slope_bracket(lam, p, b, p2)):
                with pytest.raises(DomainError, match="smallest rate"):
                    evaluate(lam)

    def test_scan_from_the_limit(self):
        for lam in np.geomspace(self.LIMIT, 1e-100, 400):
            for t in crude_tails(float(lam), 0):
                assert math.isfinite(t.lo) and t.lo <= t.hi < math.inf
            assert all(math.isfinite(v) for v in constants_report(float(lam), 0, 2, "crude").endpoints)


class TestSharedGrids:
    @staticmethod
    def _count_m2_solves(monkeypatch) -> Counter:
        solved: Counter = Counter()
        original = solver.solve_second_moment

        def counting(params, m_grid):
            solved[params] += 1
            return original(params, m_grid)

        monkeypatch.setattr(solver, "solve_second_moment", counting)
        return solved

    def test_validation_run_solves_each_grid_once(self, monkeypatch):
        solved = self._count_m2_solves(monkeypatch)
        shared = validation.run_checks(quick=True, criteria=[2, 4, 5, 11])
        grids = [(0.1, 256), (1.0, 256), (5.0, 256), (8.0, 256), (1.0, 512)]
        assert dict(solved) == {Params(lam, 7, m): 1 for lam, m in grids}
        # sharing changes no verdict and no measured value
        assert shared == [r for c in (2, 4, 5, 11) for r in validation.CRITERIA[c](True)]

    def test_started_simulations_change_no_result(self, monkeypatch):
        monkeypatch.setenv("PARKLAB_THREADS", "2")

        def masked(results):
            return [replace(r, measured="<runtime>") if r.name == "simulation runtime" else r
                    for r in results]

        shared = validation.run_checks(quick=True, criteria=[8, 9])
        direct = [r for c in (8, 9) for r in validation.CRITERIA[c](True)]
        assert masked(shared) == masked(direct)

    def test_reports_outside_a_validation_run_solve_afresh(self, monkeypatch):
        solved = self._count_m2_solves(monkeypatch)
        validation.run_checks(quick=True, criteria=[4])
        solved.clear()
        constants_report(1.0, 7, 64, "crude")
        constants_report(1.0, 7, 64, "crude")
        assert dict(solved) == {Params(1.0, 7, 64): 2}


class TestPooledHalving:
    """Part of the halving's fine product grid in a worker: same calls, reports and errors."""

    POOLED = (1.0, 12, 256, "crude")  # 30720 panels, enough for the worker

    def test_same_solver_calls_at_one_and_two_workers(self, monkeypatch, made_pools):
        # outer, coarse and fine reports, and the coarse and fine M2 solves
        calls = Counter()
        for module, name in ((constants, "constants_report"), (solver, "solve_second_moment")):
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        counted = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("PARKLAB_THREADS", threads)
            calls.clear()
            constants.constants_report(*self.POOLED, with_halving_delta=True)
            counted[threads] = dict(calls)
        expected = {"constants_report": 3, "solve_second_moment": 2}
        assert counted == {"1": expected, "2": expected}
        assert len(made_pools) == 1
        assert solver._WORKER_ROWS.get() is None  # the worker's rows are forgotten on exit

    def test_reports_equal_at_one_and_two_workers(self, monkeypatch, made_pools):
        monkeypatch.setenv("PARKLAB_THREADS", "1")
        inline = constants_report(*self.POOLED, with_halving_delta=True)
        assert made_pools == []
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        assert constants_report(*self.POOLED, with_halving_delta=True) == inline
        assert len(made_pools) == 1
        assert inline.quadrature_halving_delta is not None

    @pytest.mark.parametrize("n, m, pools", [(7, 8, 0), (7, 256, 0), (12, 64, 0), (7, 512, 0),
                                             (10, 256, 0), (12, 256, 1)])
    def test_worker_starts_only_above_the_rules_minimum(self, monkeypatch, made_pools, n, m, pools):
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        assert (m * ((n - 1) ** 2 - 1) >= 2 * constants._MIN_PANELS_PER_WORKER) == bool(pools)
        constants_report(1.0, n, m, "crude", with_halving_delta=True)
        assert len(made_pools) == pools

    def test_no_worker_without_a_second_moment_solve(self, monkeypatch, made_pools):
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        constants_report(1e-7, 30, 256, with_halving_delta=True)  # uniform fallback
        constants_report(1.0, 0, 256, "crude", with_halving_delta=True)
        assert made_pools == []

    def test_no_worker_for_a_rate_above_the_ceiling(self, monkeypatch, made_pools):
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        with pytest.raises(DomainError, match=r"^rate lam=710 is above .* n=12: "):
            constants_report(710.0, 12, 256, "crude", with_halving_delta=True)
        assert made_pools == []

    @pytest.mark.parametrize("lam, n, tail", [(1.0, 7, "crude"), (1e-7, 30, "envelope"),
                                              (1.0, 0, "crude")])
    def test_every_halving_rejects_a_malformed_thread_setting(self, monkeypatch, lam, n, tail):
        monkeypatch.setenv("PARKLAB_THREADS", "x")
        with pytest.raises(DomainError, match="PARKLAB_THREADS must be an integer"):
            constants_report(lam, n, 256, tail, with_halving_delta=True)

    def test_split_gives_the_parent_the_fewest_top_rows_with_a_quarter(self):
        for n in range(5, 41):
            row_panels = {s: 2 * s + 1 for s in range(1, n - 1)}  # per unit of m
            total = sum(row_panels.values())
            top = lambda k: sum(p for s, p in row_panels.items() if s >= k)
            k = constants._split_row(n)
            assert 1 < k < n - 1
            assert 4 * top(k) >= total > 4 * top(k + 1), n

    def test_a_pool_worker_keeps_the_halving_inline(self):
        with multiprocessing.Pool(1) as pool:
            in_worker = pool.apply(constants_report, self.POOLED, {"with_halving_delta": True})
        assert in_worker == constants_report(*self.POOLED, with_halving_delta=True)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_coarse_failure_raises_first(self, monkeypatch, made_pools, threads):
        # lam=300 leaves the counting bounds at m=128, the coarse resolution
        monkeypatch.setenv("PARKLAB_THREADS", threads)
        with pytest.raises(DomainError, match="lam=300 with m=128"):
            constants_report(300.0, 12, 256, with_halving_delta=True)
        assert len(made_pools) == (threads == "2")
        assert solver._WORKER_ROWS.get() is None
        for pool in made_pools:  # the worker is gone once the coarse error leaves
            assert pool._state == multiprocessing.pool.TERMINATE
            assert all(worker.exitcode is not None for worker in pool._pool)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_coarse_failure_names_the_requested_resolution(self, monkeypatch, threads):
        monkeypatch.setenv("PARKLAB_THREADS", threads)
        with pytest.raises(DomainError, match="^the halving delta's coarse grid \\(m=128\\) for the "
                                              "requested resolution_m=256 failed: mean count at "
                                              "lam=300 with m=128 is "):
            constants_report(300.0, 12, 256, with_halving_delta=True)

    def test_fine_failure_in_the_worker_comes_back_unchanged(self, monkeypatch, made_pools):
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        parent = os.getpid()
        original = constants._fine_rows

        @functools.wraps(original)  # the pool pickles the task by the original's name
        def failing_in_a_worker(params, k):
            if multiprocessing.current_process().daemon:
                raise DomainError(f"fine report failed in process {os.getpid()}")
            return original(params, k)

        monkeypatch.setattr(constants, "_fine_rows", failing_in_a_worker)
        with pytest.raises(DomainError, match="fine report failed in process") as exc:
            constants_report(*self.POOLED, with_halving_delta=True)
        assert str(exc.value) != f"fine report failed in process {parent}"
        assert len(made_pools) == 1
