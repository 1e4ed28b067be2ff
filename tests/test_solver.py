"""Quadrature and method-of-steps solvers against independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from parklab import (
    DomainError,
    Params,
    SegmentedGrid,
    integrate_weighted,
    lower_count_bound,
    mean_closed,
    mean_derivative_closed,
    solve_mean,
    solve_mean_derivative,
    solve_second_moment,
    solve_uniform_mean_derivative,
    upper_count_bound,
)


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
        assert integrate_weighted(g, one, 0.0, 3.0) == pytest.approx(3.0, abs=1e-14)

    def test_empty_range(self):
        g = _const_grid()
        assert integrate_weighted(g, lambda t: np.exp(t), 1.3, 1.3) == 0.0

    def test_against_adaptive_quadrature(self):
        # same integrand handed to an adaptive integrator with the breakpoints marked
        lam = 1.0
        g = _closed_mean_grid(lam)
        got = integrate_weighted(g, lambda t: lam * np.exp(-lam * t), 0.0, 2.0)
        ref, err = quad(lambda t: lam * math.exp(-lam * t) * mean_closed(t, lam),
                        0.0, 2.0, points=[1.0], limit=200)
        assert got == pytest.approx(ref, abs=1e-10)

    def test_fractional_endpoints(self):
        lam = 0.7
        g = _closed_mean_grid(lam, m=128)
        got = integrate_weighted(g, lambda t: t * np.exp(-lam * t), 0.3, 2.71)
        ref, err = quad(lambda t: t * math.exp(-lam * t) * mean_closed(t, lam),
                        0.3, 2.71, points=[1.0, 2.0], limit=200)
        assert got == pytest.approx(ref, abs=5e-9)

    def test_range_validation(self):
        g = _const_grid()
        with pytest.raises(DomainError):
            integrate_weighted(g, lambda t: t, -0.1, 1.0)
        with pytest.raises(DomainError):
            integrate_weighted(g, lambda t: t, 0.0, 3.5)
        with pytest.raises(DomainError):
            integrate_weighted(g, lambda t: t, 2.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        coeffs=st.tuples(*[st.floats(-3, 3) for _ in range(4)]),
        a=st.integers(0, 18),
        b=st.integers(0, 18),
    )
    def test_exact_on_cubics(self, coeffs, a, b):
        # every panel rule, including the interpolated off-node path,
        # integrates a cubic exactly
        lo, hi = sorted((a, b))
        c0, c1, c2, c3 = coeffs
        m = 4
        xs = np.array([[k + j / m for j in range(m + 1)] for k in range(3)])
        vals = c0 + c1 * xs + c2 * xs**2 + c3 * xs**3
        g = SegmentedGrid("M", vals, lam=1.0)
        p, q = lo / 6.0, hi / 6.0  # sixths: mostly off the quarter-unit nodes
        anti = lambda x: c0 * x + c1 * x**2 / 2 + c2 * x**3 / 3 + c3 * x**4 / 4
        got = integrate_weighted(g, lambda t: np.ones_like(t), p, q)
        assert got == pytest.approx(anti(q) - anti(p), abs=2e-10)


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
        assert g.uniform_substituted and g.kind == "M"
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
        for x in (3.0, 4.5, 6.25, 7.0):
            recovered = integrate_weighted(gd, one, 0.0, x) + 1.0
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
