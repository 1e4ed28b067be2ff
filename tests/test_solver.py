"""Quadrature and method-of-steps solvers against independent oracles."""

import math
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
    _interp_segment,
    lower_count_bound,
    mean_closed,
    mean_derivative_closed,
    upper_count_bound,
)
from parklab.solver import _max_rate, _panel_weights, _product_grid, integrate_weighted


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
        with pytest.raises(DomainError, match=f"lam={lam:g} with m={m}.*larger --m"):
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
        "build, continuous_from",
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
    def test_segments_join_continuously(self, build, continuous_from):
        g = build()
        for k in range(continuous_from, 7):
            assert g.values[k, 0] == g.values[k - 1, -1]
        if continuous_from == 3:
            assert g.values[2, 0] > g.values[1, -1]  # the jump at x = 2 stays

    def test_rate_continuity(self):
        a = solve_mean(Params(1.0, 7, 64)).values
        b = solve_mean(Params(1.001, 7, 64)).values
        assert np.max(np.abs(a - b)) <= 1e-2

    def test_deterministic(self):
        p = Params(1.7, 6, 64)
        assert np.array_equal(solve_mean(p).values, solve_mean(p).values)

    def test_uniform_substitution_below_cutoff(self):
        g = solve_mean(Params(1e-8, 5, 64))
        assert g.kind == "M"
        # below the cutoff the grids are the uniform limit's, whatever the rate
        other = Params(5e-7, 5, 64)
        assert np.array_equal(g.values, solve_mean(other).values)
        assert np.array_equal(solve_mean_derivative(Params(1e-8, 5, 64)).values,
                              solve_mean_derivative(other).values)
        # the substituted solution still matches the vanishing-rate closed form
        ref = np.array([mean_closed(x, 1e-8) for x in g.x_nodes(2)])
        assert np.max(np.abs(g.values[2] - ref)) <= 1e-7

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
            with pytest.raises(DomainError, match="lam=690 with m=256.*larger --m"):
                solve_mean(Params(690.0, 7, 256))


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

    def test_rejects_mismatched_mean_grid(self):
        gm = solve_mean(Params(1.0, 5, 64))
        with pytest.raises(DomainError):
            solve_second_moment(Params(2.0, 5, 64), gm)
        with pytest.raises(DomainError):
            solve_second_moment(Params(1.0, 6, 64), gm)

    def test_rejects_below_rate_cutoff(self):
        g = solve_mean(Params(1e-8, 5, 64))
        with pytest.raises(DomainError):
            solve_second_moment(Params(1e-8, 5, 64), g)

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
    The solver's loop before it formed its panel samples in row blocks."""
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

    @pytest.mark.parametrize("lam,n,m", [
        (1.0, 7, 8), (5.0, 7, 4), (1.0, 5, 2),  # 3/8 panels at odd j; m = 2
        (2.0, 12, 6), (0.3, 16, 10),  # m not a power of two
        (1.0, 16, 64), (1.0, 7, 256),
        (1.0, 20, 100),  # three row blocks, the last one short
        (1.0, 5, 2048),  # one node row per block
    ])
    def test_matches_panel_loop_bit_for_bit(self, lam, n, m):
        mvals = _smooth_rows(n, m)
        assert np.array_equal(_product_grid(mvals, lam), _product_grid_loop(mvals, lam))

    def test_peak_memory_is_bounded_by_the_row_blocks(self):
        # At n=26, m=36 the row blocks peak at about 0.39 MB traced and the
        # panel loop at 0.04 MB.  The same kernel with all 24 node rows in one
        # block peaks at about 0.61 MB, and gathering the rows of every pair
        # for one 2-D multiply per j at about 0.71 MB: either would show in
        # the benchmark's peak RSS.
        mvals = _smooth_rows(26, 36)
        tracemalloc.start()
        try:
            _product_grid(mvals, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 500_000


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
        # c_R = integral over t > 0 of exp(-2 Ein(t)), with
        # Ein(t) = E1(t) + ln t + Euler's gamma (Renyi 1958)
        mpmath = pytest.importorskip("mpmath")
        from parklab import window_extrema

        with mpmath.workdps(30):
            def ein(t):
                return mpmath.e1(t) + mpmath.log(t) + mpmath.euler
            c_r = float(mpmath.quad(lambda t: mpmath.exp(-2 * ein(t)), [0, 1, mpmath.inf]))
        assert c_r == pytest.approx(0.7475979202534114, rel=1e-15)
        errs = []
        for m in (64, 128, 256):
            lo, hi = window_extrema(solve_uniform_mean_derivative(16, m), 16)
            errs.append(abs(0.5 * (lo + hi) - c_r))
        assert errs[0] / errs[1] >= 12.0 and errs[1] / errs[2] >= 12.0
        assert errs[2] <= 5e-11

    def test_validation(self):
        with pytest.raises(DomainError):
            solve_uniform_mean_derivative(2, 64)
        with pytest.raises(DomainError):
            solve_uniform_mean_derivative(5, 63)


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
