"""Quadrature and method-of-steps solvers against independent oracles."""

import contextlib
import contextvars
import gc
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from parklab import (
    DomainError,
    Params,
    SegmentedGrid,
    solve_mean,
    solve_mean_derivative,
    solve_second_moment,
    solve_uniform_mean_derivative,
)
from parklab.core import (
    _count_bounds,
    _interp_segment,
    _mean_derivative_past_two,
    _mean_past_two,
    _node_offsets,
    _panel_weights,
    _second_moment_past_two,
    lower_count_bound,
    mean_closed,
    mean_derivative_closed,
    upper_count_bound,
)
from parklab import solver
from parklab.solver import _max_rate, _product_grid, integrate_weighted


def _const_grid(value=1.0, n=3, m=8, kind="M", lam=1.0):
    return SegmentedGrid(kind, np.full((n, m + 1), value), lam=lam)


def _closed_mean_grid(lam=1.0, m=64):
    vals = np.empty((3, m + 1))
    for k in range(3):
        vals[k] = [mean_closed(k + j / m, lam) if k != 1 else 1.0 for j in range(m + 1)]
    vals[0] = 0.0
    return SegmentedGrid("M", vals, lam=lam)


class TestIntegrateWeighted:
    def test_constant_grid(self):
        g = _const_grid()
        one = lambda t: np.ones_like(t)
        assert integrate_weighted(g, one, 0, 3) == pytest.approx(3.0, abs=1e-14)

    def test_empty_range(self):
        g = _const_grid()
        assert integrate_weighted(g, lambda t: np.exp(t), 1, 1) == 0.0

    def test_against_adaptive_quadrature(self):
        # same integrand handed to an adaptive integrator with the breakpoints marked
        lam = 1.0
        g = _closed_mean_grid(lam)
        got = integrate_weighted(g, lambda t: lam * np.exp(-lam * t), 0, 2)
        ref, err = quad(lambda t: lam * math.exp(-lam * t) * mean_closed(t, lam),
                        0.0, 2.0, points=[1.0], limit=200)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_range_validation(self):
        g = _const_grid()
        with pytest.raises(DomainError):
            integrate_weighted(g, lambda t: t, -0.1, 1.0)
        with pytest.raises(DomainError):
            integrate_weighted(g, lambda t: t, 0.0, 3.5)
        with pytest.raises(DomainError):
            integrate_weighted(g, lambda t: t, 2, 1)
        with pytest.raises(DomainError):
            integrate_weighted(g, lambda t: t, 0, 4)
        with pytest.raises(DomainError):
            integrate_weighted(g, lambda t: t, 0.5, 2)  # panels are whole segments

    def test_numpy_ends_read_as_python_ints(self):
        g = _closed_mean_grid()
        weight = lambda t: np.exp(-t)
        assert (integrate_weighted(g, weight, np.int64(0), np.int32(3))
                == integrate_weighted(g, weight, 0, 3))

    @pytest.mark.parametrize("a, b, message", [
        (True, 3, "integration start a must be an integer, got bool True"),
        (0, True, "integration end b must be an integer, got bool True"),
        (0, 3.0, "integration end b must be an integer, got float 3.0"),
    ])
    def test_bool_and_float_ends_rejected(self, a, b, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            integrate_weighted(_const_grid(), lambda t: t, a, b)

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
        a=st.integers(0, 3),
        b=st.integers(0, 3),
    )
    def test_exact_on_cubics(self, coeffs, a, b):
        # the whole-segment panel rule integrates a cubic exactly
        lo, hi = sorted((a, b))
        c0, c1, c2, c3 = coeffs
        m = 4
        xs = np.array([[k + j / m for j in range(m + 1)] for k in range(3)])
        vals = c0 + c1 * xs + c2 * xs**2 + c3 * xs**3
        g = SegmentedGrid("M", vals, lam=1.0)
        anti = lambda x: c0 * x + c1 * x**2 / 2 + c2 * x**3 / 3 + c3 * x**4 / 4
        got = integrate_weighted(g, lambda t: np.ones_like(t), lo, hi)
        assert got == pytest.approx(anti(hi) - anti(lo), abs=2e-10)


class TestSolveMean:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_unit_segment_is_one(self, lam):
        g = solve_mean(Params(lam, 5, 64))
        assert np.all(g.values[1] == 1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_step_reproduces_closed_form(self, lam):
        # seed only through x=2 and let the stepper produce (2,3]
        g = solve_mean(Params(lam, 3, 256), seed_upto=2)
        ref = np.array([mean_closed(x, lam) for x in g.x_nodes(2)])
        assert np.max(np.abs(g.values[2] - ref)) <= 1e-10

    @pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
    def test_counting_bounds(self, lam):
        g = solve_mean(Params(lam, 7, 128))
        for k in range(7):
            xs = g.x_nodes(k)
            lo = np.array([lower_count_bound(x) for x in xs])
            hi = np.array([upper_count_bound(x) for x in xs])
            assert np.all(g.values[k] >= lo)
            assert np.all(g.values[k] <= hi)

    @pytest.mark.parametrize("lam, n, m", [(300.0, 4, 8), (60.0, 7, 8), (10.0, 7, 8)])
    def test_too_coarse_for_the_rate_is_rejected(self, lam, n, m):
        # at these lam/m the stepper's quadrature leaves the counting bounds
        with pytest.raises(DomainError, match=f"lam={lam:g} with m={m}.*larger resolution_m"):
            solve_mean(Params(lam, n, m))

    def test_fine_enough_large_rate_still_solves(self):
        # six cars nearly always fit on 6.5 at this rate; m=256 leaves a
        # quadrature error of about 5e-3 that falls as m^-4
        g = solve_mean(Params(100.0, 7, 256))
        assert 5.99 < g.value(6.5) <= 6.0

    def test_nondecreasing_within_segments(self):
        g = solve_mean(Params(1.0, 7, 128))
        assert np.all(np.diff(g.values, axis=1) >= -1e-12)

    # every recursion the stepper serves, with the first integer at which
    # its segments join; both derivative kinds keep their jump at x = 2
    @pytest.mark.parametrize(
        "build, joins_from",
        [
            (lambda: solve_mean(Params(0.8, 7, 64)), 2),
            (lambda: solve_mean(Params(1e-8, 7, 64)), 2),
            (lambda: solve_second_moment(Params(0.8, 7, 64), solve_mean(Params(0.8, 7, 64))), 2),
            (lambda: solve_mean_derivative(Params(0.8, 7, 64)), 3),
            (lambda: solve_mean_derivative(Params(0.8, 7, 64), seed_upto=2), 3),
            (lambda: solve_uniform_mean_derivative(7, 64), 3),
        ],
        ids=["M", "M_uniform", "M2", "Mprime", "Mprime_seed2", "uniformMprime"],
    )
    def test_segments_join_continuously(self, build, joins_from):
        g = build()
        for k in range(joins_from, 7):
            assert g.values[k, 0] == g.values[k - 1, -1]
        if joins_from == 3:
            assert g.values[2, 0] > g.values[1, -1]  # the jump at x = 2 stays

    def test_rate_continuity(self):
        a = solve_mean(Params(1.0, 7, 64)).values
        b = solve_mean(Params(1.001, 7, 64)).values
        assert np.max(np.abs(a - b)) <= 1e-2

    def test_deterministic(self):
        p = Params(1.7, 6, 64)
        assert np.array_equal(solve_mean(p).values, solve_mean(p).values)

    def test_against_high_precision_reference(self):
        # frozen values from an independent 30-digit stepper (adaptive
        # quadrature on the same recursion, exact closed-form seeds)
        refs = {
            3.5: 2.3620381367833551997,
            4.0: 2.7647721565398138965,
            4.25: 2.9439129382285747907,
            5.0: 3.5035031644460698815,
        }
        g = solve_mean(Params(1.0, 5, 256))
        for x, ref in refs.items():
            assert g.value(x) == pytest.approx(ref, abs=5e-11)


@pytest.mark.parametrize("m", [2, 6, 10, 64, 256, 512])
@pytest.mark.parametrize("lam", [2.0**-511, 0.05, 1.0, 30.0, 690.0])
def test_seeds_are_core_closed_forms(lam, m):
    # row 2 of both rated first-order grids is core's (2, 3] closed form, bit for bit
    p = Params(lam, 3, m)
    t = _node_offsets(m)
    assert np.array_equal(solve_mean(p).values[2], _mean_past_two(t, lam))
    assert np.array_equal(solve_mean_derivative(p).values[2], _mean_derivative_past_two(t, lam))


@pytest.mark.parametrize("seed_upto", [1, 4, 3.0])
@pytest.mark.parametrize("solve", [solve_mean, solve_mean_derivative])
def test_seed_upto_is_2_or_3(solve, seed_upto):
    with pytest.raises(DomainError, match="^seed_upto must be (2 or 3|an integer), got"):
        solve(Params(1.0, 3, 8), seed_upto=seed_upto)


class TestSolveMeanDerivative:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_step_reproduces_closed_form(self, lam):
        g = solve_mean_derivative(Params(lam, 3, 256), seed_upto=2)
        ref = np.array([mean_derivative_closed(x, lam, from_right=(x == 2.0))
                        for x in g.x_nodes(2)])
        assert np.max(np.abs(g.values[2] - ref)) <= 1e-10

    @pytest.mark.parametrize("lam", [0.2, 1.0, 4.0])
    def test_nonnegative(self, lam):
        g = solve_mean_derivative(Params(lam, 7, 128))
        assert np.min(g.values) >= 0.0

    def test_fundamental_theorem_against_mean(self):
        # integral of the derivative plus the unit jump at x=1 recovers the mean
        lam = 0.5
        p = Params(lam, 7, 256)
        gd = solve_mean_derivative(p)
        gm = solve_mean(p)
        one = lambda t: np.ones_like(t)
        for x in (3, 4, 5, 6, 7):
            recovered = integrate_weighted(gd, one, 0, x) + 1.0
            assert recovered == pytest.approx(gm.value(x), abs=2e-6)

    def test_jump_at_two_only(self):
        g = solve_mean_derivative(Params(1.0, 7, 64))
        assert g.values[1, -1] == 0.0
        assert g.values[2, 0] > 1.0  # right limit at 2 stays separate
        for k in range(3, 7):
            assert g.values[k, 0] == g.values[k - 1, -1]

    def test_against_high_precision_reference(self):
        # frozen values from an independent 30-digit stepper (adaptive
        # quadrature on the same recursion, exact closed-form seed)
        refs = {
            3.5: 0.84455125700367701368,
            4.0: 0.73680369334665019114,
            4.5: 0.73808661330806588954,
            5.0: 0.76363535031517125855,
        }
        g = solve_mean_derivative(Params(1.0, 5, 256))
        for x, ref in refs.items():
            assert g.value(x) == pytest.approx(ref, abs=5e-10)


class TestRateLimit:
    """Rates whose kernel factor lam*e^lam the marches cannot represent."""

    def test_limit_solves_its_defining_equation(self):
        for n in (3, 7, 30):
            lam = _max_rate(n)
            assert lam + math.log(lam) == pytest.approx(
                math.log(np.finfo(float).max) - math.log(26.0 * n * n), rel=1e-15)
        assert 690.0 < _max_rate(30) < _max_rate(7) < _max_rate(3) < 700.0

    @pytest.mark.parametrize("n", [3, 7, 30])
    def test_rates_past_the_limit_raise_before_stepping(self, n):
        limit = _max_rate(n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (limit * (1 + 1e-12), limit + 0.01, 703.0, 710.0, 1e4):
                for solve in (solve_mean, solve_mean_derivative):
                    with pytest.raises(DomainError, match=rf"lam={lam:.17g} is above "
                                       rf"{limit:.17g}.*n={n}.*lam\*e\^lam would overflow"):
                        solve(Params(lam, n, 64))

    @pytest.mark.parametrize("n", [3, 7, 30])
    def test_params_holds_the_ceiling(self, n):
        limit = _max_rate(n)
        assert Params(limit, n, 64).lam == limit
        lam = limit * (1 + 1e-12)
        message = (f"rate lam={lam:.17g} is above {limit:.17g}, the largest the solvers can "
                   f"step to n={n}: the kernel factor lam*e^lam would overflow")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Params(lam, n, 64)

    @pytest.mark.parametrize("n, lam", [(3, None), (7, None), (7, 690.0), (30, 690.0)])
    def test_rates_up_to_the_limit_solve_without_warnings(self, n, lam):
        lam = lam or _max_rate(n)
        params = Params(lam, n, 1024)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m_grid = solve_mean(params)
            assert np.all(np.isfinite(solve_mean_derivative(params).values))
            if n < 30:  # M2 at n=30, m=1024 is a slow solve
                assert np.all(np.isfinite(solve_second_moment(params, m_grid).values))

    def test_too_coarse_at_690_is_still_a_counting_bound_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="lam=690 with m=256.*larger resolution_m"):
                solve_mean(Params(690.0, 7, 256))

    @pytest.mark.parametrize("lam", [5.0, 30.0, 300.0, 690.0])
    @pytest.mark.parametrize("m", [2, 4, 8, 64])
    @pytest.mark.parametrize("n", [3, 7, 12])
    def test_too_coarse_grids_fail_before_anything_overflows(self, n, m, lam):
        # a row outside the counting bounds is rejected before a later row is
        # stepped from it, so no product of the march overflows
        params = Params(lam, n, m)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for solve in (lambda: solve_second_moment(params, solve_mean(params)),
                          lambda: solve_mean_derivative(params)):
                with contextlib.suppress(DomainError):
                    solve()


class TestSolveSecondMoment:
    def test_unit_segment_is_one(self):
        p = Params(1.0, 5, 64)
        g2 = solve_second_moment(p, solve_mean(p))
        assert np.all(g2.values[1] == 1.0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.0])
    def test_two_car_region_oracle(self, lam):
        # on (2,3] the count is 1 or 2, so E[c^2] = 3 E[c] - 2 exactly
        p = Params(lam, 4, 256)
        gm = solve_mean(p)
        g2 = solve_second_moment(p, gm)
        ref = 3.0 * gm.values[2] - 2.0
        assert np.max(np.abs(g2.values[2] - ref)) <= 1e-9

    @pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
    def test_variance_nonnegative_and_bounds(self, lam):
        # at x=3 the true variance is exactly 0, so allow quadrature noise
        p = Params(lam, 7, 256)
        gm = solve_mean(p)
        g2 = solve_second_moment(p, gm)
        assert np.all(g2.values >= gm.values**2 - 1e-7)
        for k in range(7):
            xs = g2.x_nodes(k)
            lo = np.array([lower_count_bound(x) for x in xs], dtype=float)
            hi = np.array([upper_count_bound(x) for x in xs], dtype=float)
            assert np.all(g2.values[k] >= lo**2)
            assert np.all(g2.values[k] <= hi**2)

    @pytest.mark.parametrize("lam, n, m", [(690.0, 3, 256), (12.0, 3, 8), (5.0, 3, 2)])
    def test_n3_grids_are_seeds_inside_the_squared_bounds(self, lam, n, m):
        # rows 0..2 are seeds on [0, 3], so nothing at n=3 is stepped; at these
        # (lam, m) a row 2 stepped by quadrature would leave the bounds [1, 4]
        p = Params(lam, n, m)
        g2 = solve_second_moment(p, solve_mean(p)).values
        _, lo, hi = _count_bounds(n, m)
        assert np.all((lo**2 <= g2) & (g2 <= hi**2))

    @pytest.mark.parametrize("m", [2, 8, 256, 1024])
    @pytest.mark.parametrize("lam", [2.0**-511, 0.05, 1.0, 5.0, 12.0, 690.0])
    def test_row_two_is_the_closed_form(self, lam, m):
        # on (2, 3] the count is 1 or 2, so M2 = 3M - 2, seeded from core bit for bit
        p = Params(lam, 3, m)
        g2 = solve_second_moment(p, solve_mean(p))
        assert np.array_equal(g2.values[2], _second_moment_past_two(_node_offsets(m), lam))

    def test_a_mean_outside_its_bounds_is_caught_in_the_second_moment(self):
        # M2's own rows are checked as they close: a mean grid pushed up by 2
        # from x = 2 on drives row 3 of M2 above 9 = floor(x)^2
        p = Params(1.0, 4, 8)
        pushed = solve_mean(p).values.copy()
        pushed[2:] += 2.0
        with pytest.raises(DomainError, match="^second moment at lam=1 with m=8 is .* outside the "
                                              "counting bounds \\[4, 9\\]; .*larger resolution_m"):
            solve_second_moment(p, SegmentedGrid("M", pushed, lam=1.0))

    def test_rejects_mismatched_mean_grid(self):
        gm = solve_mean(Params(1.0, 5, 64))
        with pytest.raises(DomainError):
            solve_second_moment(Params(2.0, 5, 64), gm)
        with pytest.raises(DomainError):
            solve_second_moment(Params(1.0, 6, 64), gm)

    def test_variance_settles_below_the_report_cutoff(self):
        # the rated recursion is stepped at every accepted rate; its variance
        # differs from the one at 1e-6 by rounding only (8.5e-14 measured)
        def variance(lam):
            p = Params(lam, 12, 64)
            gm = solve_mean(p)
            return solve_second_moment(p, gm).values - gm.values**2

        ref = variance(1e-6)
        for lam in (1e-7, 1e-9, 1e-150, 2.0**-511):
            assert np.max(np.abs(variance(lam) - ref)) <= 1e-13

    def test_against_high_precision_reference(self):
        # frozen values from a 30-digit adaptive-quadrature evaluation of the
        # five-term step off the closed forms (exact through x = 3)
        refs = {
            3.25: 4.7861372057122330923,
            3.5: 5.8101906839167759986,
            3.75: 6.8529113909039386894,
            4.0: 7.8238607826990694826,
        }
        p = Params(1.0, 4, 256)
        g2 = solve_second_moment(p, solve_mean(p))
        for x, ref in refs.items():
            assert g2.value(x) == pytest.approx(ref, abs=5e-10)


class _StandInRows:
    """A pool worker's pending product-grid rows: ``get()`` counts its reads."""

    def __init__(self, rows):
        self.rows, self.reads = rows, 0

    def get(self):
        self.reads += 1
        return self.rows


def _solve_with_worker_rows(worker_rows, params, m_grid):
    """solve_second_moment with ``solver._WORKER_ROWS`` set, in a copied context."""
    ctx = contextvars.copy_context()
    ctx.run(solver._WORKER_ROWS.set, worker_rows)
    return ctx.run(solve_second_moment, params, m_grid)


class TestWorkerRows:
    """A pooled halving's fine solve collects rows 1..k-1 of its product grid from the worker."""

    PARAMS = Params(1.0, 12, 64)
    K = 9  # constants._split_row(12)

    def test_collected_rows_give_the_plain_grid(self):
        m_grid = solve_mean(self.PARAMS)
        worker = _StandInRows(_product_grid(m_grid.values, 1.0, (1, self.K)))
        collected = _solve_with_worker_rows({self.PARAMS: (self.K, worker)}, self.PARAMS, m_grid)
        assert worker.reads == 1
        assert np.array_equal(collected.values, solve_second_moment(self.PARAMS, m_grid).values)

    def test_rows_below_k_come_only_from_the_worker(self):
        m_grid = solve_mean(self.PARAMS)
        zeros = _StandInRows(np.zeros_like(m_grid.values))
        collected = _solve_with_worker_rows({self.PARAMS: (self.K, zeros)}, self.PARAMS, m_grid)
        plain = solve_second_moment(self.PARAMS, m_grid)
        assert np.array_equal(collected.values[:3], plain.values[:3])  # seeded rows
        assert not np.array_equal(collected.values[3], plain.values[3])

    def test_rows_set_for_other_params_are_not_read(self):
        coarse = Params(1.0, 12, 32)
        m_grid = solve_mean(coarse)
        worker = _StandInRows(None)
        solved = _solve_with_worker_rows({self.PARAMS: (self.K, worker)}, coarse, m_grid)
        assert worker.reads == 0
        assert np.array_equal(solved.values, solve_second_moment(coarse, m_grid).values)


def _product_node_reference(mvals, lam, s, j):
    """The product convolution at x = s + j/m, node by node and panel by
    panel with a freshly interpolated midpoint for each single-subinterval
    panel: the solver's arithmetic before the grid was built at once.

    It recomputes the midpoint's offset into segment s - i as
    (x - t_mid - seg_b) * m in floating point, where the solver uses 0.5 or
    m - 0.5 exactly.  At some m (6, 12 and 14 among them) that offset is off
    by an ulp, and the j = 1 or j = m - 1 value by about 2e-16 relative, so
    it matches the solver bit for bit only at the m it is tested on.
    """
    n, m = mvals.shape[0], mvals.shape[1] - 1
    h = 1.0 / m
    node_w = lam * np.exp(-lam * (np.arange(n)[:, None] + np.arange(m + 1) * (1.0 / m)))

    def panel(fv, seg_a, seg_b, j0, j1, x):
        if j1 - j0 >= 2:
            return h * float(_panel_weights(j1 - j0) @ fv)
        t_mid = seg_a + (j0 + 0.5) * h
        a_mid = float(_interp_segment(mvals[seg_a], np.array([j0 + 0.5]))[0])
        b_mid = float(_interp_segment(mvals[seg_b], np.array([(x - t_mid - seg_b) * m]))[0])
        f_mid = lam * math.exp(-lam * t_mid) * a_mid * b_mid
        return h * (fv[0] + 4.0 * f_mid + fv[1]) / 6.0

    total = 0.0
    for i in range(s + 1):
        if j > 0:
            fv = node_w[i, :j + 1] * mvals[i, :j + 1] * mvals[s - i, :j + 1][::-1]
            total += panel(fv, i, s - i, 0, j, s + j * h)
        if j < m and i < s:
            fv = node_w[i, j:] * mvals[i, j:] * mvals[s - i - 1, j:][::-1]
            total += panel(fv, i, s - i - 1, j, m, s + j * h)
    return total


def _product_grid_loop(mvals, lam):
    """The product convolution grid panel by panel: one multiply and one
    quadrature per panel, each node summing head i, tail i, head i+1, ...
    The solver's loop before it formed each node's panel samples with one
    multiply per kind."""
    n, m = mvals.shape[0], mvals.shape[1] - 1
    h = 1.0 / m
    wm = lam * np.exp(-lam * (np.arange(n)[:, None] + np.arange(m + 1) * (1.0 / m))) * mvals
    rev = mvals[:, ::-1]
    mid = [_interp_segment(row, np.array([0.5, m - 0.5])) for row in mvals]
    wmid = [(lam * math.exp(-lam * (i + 0.5 * h)) * a,
             lam * math.exp(-lam * (i + (m - 0.5) * h)) * b) for i, (a, b) in enumerate(mid)]

    def panel(fv, f_mid):
        if fv.size > 2:
            return h * float(fv.dot(_panel_weights(fv.size - 1)))
        return h * (fv[0] + 4.0 * f_mid + fv[1]) / 6.0

    prod = np.zeros((n, m + 1))
    for j in range(m + 1):
        for s in range(1, n - 1):
            total = 0.0
            for i in range(s + 1):
                if j > 0:
                    f_mid = wmid[i][0] * mid[s - i][0] if j == 1 else None
                    total += panel(wm[i, :j + 1] * rev[s - i, m - j:], f_mid)
                if j < m and i < s:
                    f_mid = wmid[i][1] * mid[s - i - 1][1] if j == m - 1 else None
                    total += panel(wm[i, j:] * rev[s - i - 1, :m - j + 1], f_mid)
            prod[s, j] = total
    return prod


# (lam, n, m, buffer rows): None keeps solver._SAMPLE_BUFFER_BYTES, a count
# resizes the sample buffer to that many rows of m+1 samples.  A segment pair
# fills m rows, m+1 down to 2 samples long.
_PANEL_LOOP_CASES = [
    (1.0, 7, 8, None), (5.0, 7, 4, None), (1.0, 5, 2, None),  # 3/8 panels at odd j; m = 2
    (2.0, 12, 6, None), (0.3, 16, 10, None),  # m not a power of two
    (1.0, 16, 64, None), (1.0, 7, 256, None),
    (1.0, 20, 100, None),  # many node rows
    (1.0, 5, 2048, None),  # long panel rows
    (1.0, 7, 8, 12), (0.5, 9, 16, 20),  # m+1 below the row count: one block
    (1.0, 7, 8, 9), (0.5, 9, 16, 17),  # m+1 equal to it
    (1.0, 7, 8, 8), (1.0, 7, 8, 7),  # m equal to it; the midpoint panel alone in the last block
    (1.0, 7, 16, 4), (2.0, 9, 12, 3), (1.0, 6, 200, None),  # m a multiple of it (40 at 64 KB)
    (0.3, 6, 10, 3), (1.0, 7, 256, 10),  # a short last block
    (1.0, 5, 6, 1), (1.0, 5, 2, 1),  # one row per block
]


def _smooth_rows(n, m):
    x = np.arange(n)[:, None] + np.arange(m + 1) / m
    return 1.0 + 0.6 * x + 0.1 * np.sin(3.0 * x)


class TestProductGrid:
    @pytest.mark.parametrize("lam", [0.5, 5.0])
    @pytest.mark.parametrize("m", [4, 64])
    def test_constant_mean_gives_exponential_cdf(self, lam, m):
        # with f = 1 the term is the integral of lam*e^{-lam t} over [0, x];
        # the j = 1 and j = m-1 nodes exercise the midpoint panels
        n = 6
        prod = _product_grid(np.ones((n, m + 1)), lam)
        x = np.arange(n)[:, None] + np.arange(m + 1) / m
        tol = lam**4 / m**4 / 50.0  # the panel rules' error stays below lam^4 h^4 / 80
        assert np.max(np.abs(prod[1:n - 1] + np.expm1(-lam * x[1:n - 1]))) <= tol

    @pytest.mark.parametrize("lam,n,m", [(1.0, 7, 8), (0.5, 10, 16), (5.0, 7, 4), (1.0, 5, 2)])
    def test_matches_node_by_node_reference_bit_for_bit(self, lam, n, m):
        # any smooth rows will do, and solve_mean rejects lam=5 at m=4
        mvals = _smooth_rows(n, m)
        prod = _product_grid(mvals, lam)
        ref = [[_product_node_reference(mvals, lam, s, j) for j in range(m + 1)]
               for s in range(1, n - 1)]
        assert np.array_equal(prod[1:n - 1], np.array(ref))

    @pytest.mark.parametrize("lam,n,m", [(2.0, 12, 6), (1.0, 7, 6)])
    def test_matches_node_by_node_reference_to_an_ulp_at_m6(self, lam, n, m):
        # the reference's recomputed midpoint offset is an ulp off here
        mvals = _smooth_rows(n, m)
        prod = _product_grid(mvals, lam)
        ref = [[_product_node_reference(mvals, lam, s, j) for j in range(m + 1)]
               for s in range(1, n - 1)]
        np.testing.assert_allclose(prod[1:n - 1], np.array(ref), rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("lam,n,m,rows", _PANEL_LOOP_CASES, ids=[
        f"{lam}-{n}-{m}" + (f"-rows{rows}" if rows else "") for lam, n, m, rows in _PANEL_LOOP_CASES])
    def test_matches_panel_loop_bit_for_bit(self, monkeypatch, lam, n, m, rows):
        if rows is not None:
            monkeypatch.setattr(solver, "_SAMPLE_BUFFER_BYTES", 8 * (m + 1) * rows)
        mvals = _smooth_rows(n, m)
        assert np.array_equal(_product_grid(mvals, lam), _product_grid_loop(mvals, lam))

    @pytest.mark.parametrize("n,m", [(7, 8), (10, 16), (5, 2)])
    def test_each_panel_call_gets_its_samples_contiguous(self, monkeypatch, n, m):
        # ddot sums a strided vector in another order, so the bits need every
        # fv C-contiguous and 1-D, holding exactly its panel's samples
        lam = 1.0
        mvals = _smooth_rows(n, m)
        seen = []
        original = solver._product_panel

        def recording(fv, w, h):
            assert fv.ndim == 1 and fv.flags.c_contiguous
            seen.append(fv.copy())
            return original(fv, w, h)

        monkeypatch.setattr(solver, "_product_panel", recording)
        _product_grid(mvals, lam)
        assert len(seen) == m * ((n - 1) ** 2 - 1)
        wm = lam * np.exp(-lam * (np.arange(n)[:, None] + np.arange(m + 1) * (1.0 / m))) * mvals
        expected = []
        for i in range(n - 1):  # segment pairs (i, k), ascending i, descending k
            for k in range(n - 2 - i, -1, -1):
                if i + k >= 1:  # heads [i, i + j*h] of row i + k, descending j: j + 1 samples
                    expected += [wm[i, :j + 1] * mvals[k, j::-1] for j in range(m, 0, -1)]
                if i + k + 1 <= n - 2:  # tails [i + j*h, i + 1] of row i + k + 1: m - j + 1 samples
                    expected += [wm[i, j:] * mvals[k, ::-1][:m - j + 1] for j in range(m)]
        assert len(seen) == len(expected)
        assert all(np.array_equal(got, want) for got, want in zip(seen, expected))

    @pytest.mark.parametrize("n, m, cuts", [
        (7, 8, (3,)), (7, 8, (2, 5)),
        (12, 256, (4, 9)), (12, 256, (6,)),
        (30, 64, (5, 13, 25)), (30, 64, (25,)),  # 25 is the halving's split
    ])
    def test_row_ranges_add_up_to_the_full_grid(self, n, m, cuts):
        mvals = _smooth_rows(n, m)
        ends = (1, *cuts, n - 1)
        pieces = [_product_grid(mvals, 1.0, (lo, hi)) for lo, hi in zip(ends, ends[1:])]
        for lo, hi, piece in zip(ends, ends[1:], pieces):
            assert not piece[:lo].any() and not piece[hi:].any()
        assert np.array_equal(sum(pieces), _product_grid(mvals, 1.0))

    def test_cached_weights_are_released_for_later_resolutions(self):
        # one weight table per resolution, about 4*m^2 bytes: 17 MB at m=2048
        solver._panel_weight_table.cache_clear()
        tracemalloc.start()
        try:
            for m in (2048, 8, 16, 32, 64):
                params = Params(1.0, 3, m)
                solve_second_moment(params, solve_mean(params))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1_000_000

    def test_peak_memory_is_bounded_by_the_row_blocks(self):
        # At n=26, m=36 the segment pairs with one reused sample buffer peak
        # at about 0.10 MB traced, one node's panel samples at a time at
        # 0.07 MB, and the panel loop at 0.04 MB.  Node-row blocks sized to
        # 128 KB buffers peaked at about 0.40 MB, all 24 node rows in one block
        # at about 0.61 MB, and gathering the rows of every pair for one 2-D
        # multiply per j at about 0.71 MB: each would show in the benchmark's
        # peak RSS.
        mvals = _smooth_rows(26, 36)
        tracemalloc.start()
        try:
            _product_grid(mvals, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200_000

    def test_peak_memory_at_the_largest_validate_solve(self):
        # validate's process peaks in its n=7, m=512 solve.  There the grid
        # peaked at 393,442 B traced (the one-node kernel before it at
        # 192,400 B): the padded window copies, the sample buffer, its row
        # views, and NumPy's iterator buffers for the windowed multiplies.
        # The bound is that peak plus 25%; the cached weights are not counted.
        mvals = _smooth_rows(7, 512)
        solver._panel_weight_table(512)
        tracemalloc.start()
        try:
            _product_grid(mvals, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 492_000


def _renyi_constant() -> float:
    """Renyi's (1958) packing constant c_R = integral over t > 0 of
    exp(-2 Ein(t)), with Ein(t) = E1(t) + ln t + Euler's gamma; the calling
    test is skipped without mpmath."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        def ein(t):
            return mpmath.e1(t) + mpmath.log(t) + mpmath.euler
        return float(mpmath.quad(lambda t: mpmath.exp(-2 * ein(t)), [0, 1, mpmath.inf]))


class TestSolveUniform:
    def test_first_step_closed_form(self):
        g = solve_uniform_mean_derivative(5, 128)
        xs = g.x_nodes(2)
        ref = 2.0 / (xs - 1.0) ** 2
        assert np.max(np.abs(g.values[2] - ref)) <= 1e-12

    def test_values_in_range(self):
        g = solve_uniform_mean_derivative(16, 128)
        assert np.min(g.values) >= 0.0
        assert np.max(g.values) <= 2.0 + 1e-12

    def test_window_converges_to_packing_density(self):
        from parklab import window_extrema

        g = solve_uniform_mean_derivative(16, 256)
        lo, hi = window_extrema(g, 16)
        assert hi - lo < 1e-5
        assert 0.5 * (lo + hi) == pytest.approx(0.748, abs=5e-4)

    def test_window_converges_to_renyi_constant_at_fourth_order(self):
        from parklab import window_extrema

        c_r = _renyi_constant()
        assert c_r == pytest.approx(0.7475979202534114, rel=1e-15)
        errs = []
        for m in (64, 128, 256):
            lo, hi = window_extrema(solve_uniform_mean_derivative(16, m), 16)
            errs.append(abs(0.5 * (lo + hi) - c_r))
        assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0
        assert errs[2] <= 5e-11

    def test_mean_intercept_is_renyi_constant_minus_one(self):
        # M(x) - c_R*x - (c_R - 1) -> 0 in the uniform limit (b_R = c_R - 1);
        # the finite-x term is still 2.5e-10 at x=10, so test further out
        c_r = _renyi_constant()
        grid = solve_mean(Params(1e-7, 21, 512))
        for x in (15.0, 20.0):
            assert abs(grid.value(x) - c_r * x - (c_r - 1.0)) <= 1e-10

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_uniform_mean_derivative(2, 64)
        with pytest.raises(DomainError):
            solve_uniform_mean_derivative(5, 63)


def _uniform_mean_grid(n, m):
    """The uniform limit's mean, a test-only oracle: value(x+1) =
    2*integral(M)/x + 1, seeded on (2, 3] with its closed form 1 + 2t/(1+t)."""
    offs = _node_offsets(m)
    vals = np.zeros((n, m + 1))
    vals[1] = 1.0
    vals[2] = 1.0 + 2.0 * offs / (1.0 + offs)
    solver._march(vals, 0.0, 3, [(vals, lambda s, offs: 1.0, False)],
                  lambda s, x, ints: 2.0 * ints[0] / x + 1.0)
    return vals


class TestVanishingRate:
    @pytest.mark.parametrize("n, m", [(7, 2), (7, 64), (16, 2), (16, 64)])
    @pytest.mark.parametrize("solve, uniform", [
        (solve_mean, _uniform_mean_grid),
        (solve_mean_derivative, lambda n, m: solve_uniform_mean_derivative(n, m).values),
    ], ids=["M", "Mprime"])
    def test_rated_grids_tend_to_the_uniform_ones(self, solve, uniform, n, m):
        # rated - uniform = lam^2 * D + O(lam^4): the first-order term
        # vanishes.  D, read off at lam = 1e-4, is at most 1/6 for M' (its
        # right limit at 2 is 2 + lam^2/6) and 0.0185 relative for M; past
        # the lam^2 term what is left is rounding, not cancellation
        u = uniform(n, m)
        scale = np.maximum(1.0, np.abs(u))
        d = (solve(Params(1e-4, n, m)).values - u) / 1e-8
        assert np.max(np.abs(d) / scale) <= 0.2
        for lam in (2.0**-511, 1e-150, 1e-9, 1e-7, 9.9e-7):
            rest = solve(Params(lam, n, m)).values - u - lam**2 * d
            assert np.max(np.abs(rest) / scale) <= 1e-14

    @pytest.mark.parametrize("lam", [1e-9, 0.05, 1.0, 30.0])
    def test_sinh_weight_to_two_ulp(self, lam):
        # e^{-lam s} * lam*sinh(lam t) at t = s + offs, against 50 digits; the
        # two-exp difference it replaced missed by 1.6e10 ulp at lam=1e-9
        mpmath = pytest.importorskip("mpmath")
        offs = _node_offsets(64)
        old_misses = False
        with mpmath.workdps(50):
            for s in (0, 1, 2, 5, 12):
                new = solver._sinh_weight(lam, s, offs)
                old = 0.5 * lam * (np.exp(lam * offs) - np.exp(-lam * (2.0 * s + offs)))
                for t, a, b in zip(offs, new, old):
                    rate = mpmath.mpf(lam)
                    ref = mpmath.exp(-rate * s) * rate * mpmath.sinh(rate * (s + mpmath.mpf(t)))
                    ulp = np.finfo(float).eps * abs(ref)
                    assert abs(a - ref) <= 2.0 * ulp
                    old_misses |= bool(abs(b - ref) > 2.0 * ulp)
        assert old_misses == (lam < 30.0)


def _refinement_rate(build):
    def common_err(va, vb):
        return max(np.max(np.abs(va[k] - vb[k][::2])) for k in range(3, va.shape[0]))

    sols = {m: build(m) for m in (64, 128, 256)}
    d1 = common_err(sols[64], sols[128])
    d2 = common_err(sols[128], sols[256])
    return math.log2(d1 / d2), d2


@pytest.mark.parametrize(
    "build",
    [
        lambda m: solve_mean(Params(1.0, 5, m)).values,
        lambda m: solve_mean_derivative(Params(1.0, 5, m)).values,
        lambda m: solve_second_moment(Params(1.0, 5, m), solve_mean(Params(1.0, 5, m))).values,
        lambda m: solve_uniform_mean_derivative(6, m).values,
    ],
    ids=["mean", "derivative", "second_moment", "uniform"],
)
def test_refinement_order_near_four(build):
    # doubling the resolution should shrink node changes ~16x (order 4);
    # edge stencils keep the measured rate a touch below the asymptote
    rate, resid = _refinement_rate(build)
    assert rate >= 3.5
    assert resid <= 1e-7
