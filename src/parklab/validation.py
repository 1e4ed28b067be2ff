"""End-to-end validation checks tying solvers, brackets, and simulation together.

Each check returns one result per assertion with the measured quantity spelled
out, so the CLI can print a line per criterion and the test suite can assert
the same facts.  Check 4b is expected to fail on a correct build: the
advertised n=7 crude-bracket width target of 1e-6 is not achievable from
the step bounds, whose gap decays like n*e^(-lam*n) (about 1.56e-3 there);
see the README for the analysis.  Everything else passes.

``run_checks`` starts the simulations of the selected criteria 8 and 9 in one
background worker pool when it begins (see ``_sim_configs``), so they run
while the solver criteria do; each of the two collects its runs when it gets
there, or runs them in-process with one resolved worker.  A criterion that
cannot finish because a solver rejects one of its grids is one FAIL line, and
the run goes on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from . import constants as _constants
from . import envelope as _envelope
from . import montecarlo as _mc
from . import solver as _solver
from .core import (DomainError, Params, _count_bounds, _mean_derivative_past_two, _mean_past_two,
                   _node_offsets)

__all__ = ["CheckResult", "run_checks", "CRITERIA"]

_SEED = 20250810


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    measured: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict}  criterion {self.criterion:>2} {self.name}: {self.measured}"


def _closed_form_error(lam: float) -> float:
    """Largest node gap on [2, 3] between the seed_upto=2 grids of M and M' and core's closed forms."""
    p = Params(lam, 3, 256)
    t = _node_offsets(256)
    return max(float(np.max(np.abs(g.values[2] - closed(t, lam)))) for g, closed in (
        (_solver.solve_mean(p, seed_upto=2), _mean_past_two),
        (_solver.solve_mean_derivative(p, seed_upto=2), _mean_derivative_past_two)))


def _check_1(quick: bool) -> list[CheckResult]:
    t0 = time.perf_counter()
    worst = max(_closed_form_error(lam) for lam in (0.5, 1.0, 2.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    return [CheckResult(1, "closed-form agreement on (2,3]", ok,
                        f"max node error {worst:.3e} (tol 1e-9), runtime {elapsed:.2f}s (limit 1s)")]


def _count_bound_violation(params: Params) -> float:
    """Largest excess of M over the counting bounds, or of M2 over their squares, at any node."""
    g, g2 = _constants._memo(_constants._mean_grids, params)
    _, lo, hi = _count_bounds(params.horizon_n, params.resolution_m)
    return float(max(np.max(lo - g.values), np.max(g.values - hi),
                     np.max(lo**2 - g2.values), np.max(g2.values - hi**2)))


def _check_2(quick: bool) -> list[CheckResult]:
    worst = max(0.0, *(_count_bound_violation(Params(lam, 7, 256)) for lam in (0.1, 1.0, 5.0)))
    return [CheckResult(2, "hard counting bounds at every node", worst <= 0.0,
                        f"max violation {worst:.3e} (tol 0)")]


def _check_3(quick: bool) -> list[CheckResult]:
    flags = []
    for lam in (0.5, 1.0, 2.0):
        g = _constants._memo(_solver.solve_mean_derivative, Params(lam, 7, 256))
        flags.extend(_envelope.check_nesting(g, 3, 7))
    gu = _constants._memo(_solver.solve_uniform_mean_derivative, 16, 256)
    flags.extend(_envelope.check_nesting(gu, 3, 15))
    ok = all(flags)
    return [CheckResult(3, "envelope nesting (rated 3..7, uniform 3..15)", ok,
                        f"{sum(flags)}/{len(flags)} windows nested (tol 1e-9)")]


def _check_4(quick: bool) -> list[CheckResult]:
    lam = 1.0
    q = math.exp(-lam)
    c = _constants._step_bound_brackets(lam)[0]
    ref_lo = lam / (lam + 1) * (1 + q / -math.expm1(-2 * lam))
    ref_hi = lam / (lam + 1) * (1 + q / -math.expm1(-lam))
    err = max(abs(c.lo - ref_lo), abs(c.hi - ref_hi))
    r_a = CheckResult(4, "crude n=0 density endpoints", err <= 1e-12,
                      f"endpoint error {err:.3e} vs closed forms "
                      f"[{ref_lo:.6f}, {ref_hi:.6f}] (tol 1e-12)")

    rep = _constants.constants_report(lam, 7, 256, "crude")
    width = rep.c.width
    formula = _constants.crude_width_formula(lam, 7)
    agree = abs(width - formula) <= 1e-15
    r_b = CheckResult(4, "crude n=7 density width <= 1e-6", width <= 1e-6 and agree,
                      f"width {width:.4e} (target 1e-6; step-bound gap makes "
                      f"{formula:.4e} the true floor, so this target is unattainable)")
    return [r_a, r_b]


def _check_5(quick: bool) -> list[CheckResult]:
    out = []
    for lam in (5.0, 8.0):
        rep = _constants.constants_report(lam, 7, 256, "crude")
        e1 = math.exp(-lam)
        e2 = math.exp(-2 * lam)
        c_inf, b_ref, d_ref = _constants._large_rate_limits(lam)
        c_ref = c_inf * (1 + e1)
        ok = (rep.c.contains(c_ref, slack=10 * e2)
              and rep.b.contains(b_ref, slack=10 * e1)
              and rep.d.contains(d_ref, slack=10 * e1)
              and max(rep.c.width, rep.b.width, rep.d.width) <= 10 * e1)
        dist = max(_gap(rep.c, c_ref) / e2, _gap(rep.b, b_ref) / e1, _gap(rep.d, d_ref) / e1)
        out.append(CheckResult(
            5, f"large-rate asymptotes at lam={lam:g}", ok,
            f"worst asymptote distance {dist:.2f}x its error scale (limit 10), "
            f"max width {max(rep.c.width, rep.b.width, rep.d.width):.2e} "
            f"(limit {10 * e1:.2e})"))
    return out


def _gap(bracket, value: float) -> float:
    return max(bracket.lo - value, value - bracket.hi, 0.0)


def _check_6(quick: bool) -> list[CheckResult]:
    gu = _constants._memo(_solver.solve_uniform_mean_derivative, 16, 256)
    lo, hi = _envelope.window_extrema(gu, 16)
    mid = 0.5 * (lo + hi)
    r_a = CheckResult(6, "uniform window [15,16] envelope", abs(mid - 0.748) <= 5e-4,
                      f"midpoint {mid:.6f} vs 0.748 (tol 5e-4), width {hi - lo:.2e}")
    rep = _constants.constants_report(0.01, 7, 256, "envelope")
    dc = abs(rep.c.midpoint - 0.748)
    db = abs(rep.b.midpoint - (-0.252))
    r_b = CheckResult(6, "rate 0.01 envelope midpoints", dc <= 5e-3 and db <= 1e-2,
                      f"|c_mid-0.748|={dc:.2e} (tol 5e-3), |b_mid+0.252|={db:.2e} (tol 1e-2)")
    return [r_a, r_b]


def _check_7(quick: bool) -> list[CheckResult]:
    # the march is causal, so rows :7 of criteria 3 and 6's (16, 256) grid are the (7, 256) grid
    uniform = _constants._memo(_solver.solve_uniform_mean_derivative, 16, 256).values[:7]
    dists = []
    for lam in (0.5, 0.2, 0.1, 0.05):
        g = _constants._memo(_solver.solve_mean_derivative, Params(lam, 7, 256))
        dists.append(float(np.max(np.abs(g.values - uniform))))
    ok = all(a > b for a, b in zip(dists, dists[1:]))
    msg = " > ".join(f"{d:.4f}" for d in dists)
    return [CheckResult(7, "uniform-limit convergence trend", ok,
                        f"max distances at rates 0.5,0.2,0.1,0.05: {msg}")]


def _sim_configs(criterion: int, quick: bool) -> tuple[_mc.SimConfig, ...]:
    """The simulations criterion 8 or 9 runs, in the order it collects them;
    none for the others."""
    if criterion == 8:
        scale = 10 if quick else 1
        return (_mc.SimConfig(1.0, 30.0, 100_000 // scale, _SEED),
                _mc.SimConfig(1.0, 60.0, 200_000 // scale, _SEED + 1))
    if criterion == 9:
        # the kurtosis threshold needs ~5k trials of resolution even in quick mode
        return (_mc.SimConfig(1.0, 500.0, 5_000 if quick else 20_000, _SEED + 2),)
    return ()


def _check_8(quick: bool) -> list[CheckResult]:
    cfg_mean, cfg_var = _sim_configs(8, quick)
    # runs started by run_checks are clocked from their submission
    t0 = min(_mc._submitted_at(cfg_mean), _mc._submitted_at(cfg_var))
    stats30 = _mc.run_mc(cfg_mean)
    m30 = _solver.solve_mean(Params(1.0, 30, 256)).value(30.0)
    dev = abs(stats30.mean - m30) / stats30.stderr_mean
    r_a = CheckResult(8, "simulated mean vs solver at x=30", dev <= 4.0,
                      f"|mean-{m30:.5f}| = {dev:.2f} stderr (limit 4)")

    stats60 = _mc.run_mc(cfg_var)
    rep = _constants.constants_report(1.0, 7, 256, "envelope")
    x = 60.0
    se_var = math.sqrt(max(stats60.excess_kurtosis + 2.0, 0.1)
                       * stats60.variance**2 / cfg_var.trials)
    slack = max(abs(rep.d.lo), abs(rep.d.hi))  # intercept of the variance line
    lo = (x * rep.d.lo - slack - 4 * se_var) / x
    hi = (x * rep.d.hi + slack + 4 * se_var) / x
    ratio = stats60.variance / x
    r_b = CheckResult(8, "simulated variance/x vs slope bracket at x=60",
                      lo <= ratio <= hi,
                      f"variance/x = {ratio:.5f}, allowed [{lo:.5f}, {hi:.5f}]")
    elapsed = time.perf_counter() - t0
    r_c = CheckResult(8, "simulation runtime", elapsed < 60.0,
                      f"{elapsed:.1f}s (limit 60s)")
    return [r_a, r_b, r_c]


def _check_9(quick: bool) -> list[CheckResult]:
    cfg, = _sim_configs(9, quick)
    stats = _mc.run_mc(cfg)
    z3, z4 = _mc._standardized_moments(stats.histogram, cfg.trials, stats.mean, stats.variance)
    ok = abs(z3) <= 0.1 and abs(z4) <= 0.2
    return [CheckResult(9, "normality of the standardized count at x=500", ok,
                        f"skewness {z3:+.4f} (tol 0.1), excess kurtosis {z4:+.4f} (tol 0.2)")]


def _check_10(quick: bool) -> list[CheckResult]:
    rep = _constants.constants_report(1.0, 7, 256, "envelope")
    lo = rep.b.lo + 1.0 - rep.c.hi
    hi = rep.b.hi + 1.0 - rep.c.lo
    ok = lo > 0.0 or hi < 0.0
    return [CheckResult(10, "intercept differs from density-1 at lam=1", ok,
                        f"interval for b+(1-c) = [{lo:+.6f}, {hi:+.6f}] excludes 0: {ok}")]


def _check_11(quick: bool) -> list[CheckResult]:
    out = []
    for method in ("envelope", "crude"):
        # m=512 halves to m=256
        delta = _constants.constants_report(1.0, 7, 512, method,
                                            with_halving_delta=True).quadrature_halving_delta
        out.append(CheckResult(11, f"m=256 vs 512 endpoint stability ({method})",
                               delta <= 1e-8, f"max endpoint delta {delta:.2e} (tol 1e-8)"))
    return out


CRITERIA: dict[int, Callable[[bool], list[CheckResult]]] = {
    1: _check_1, 2: _check_2, 3: _check_3, 4: _check_4, 5: _check_5, 6: _check_6,
    7: _check_7, 8: _check_8, 9: _check_9, 10: _check_10, 11: _check_11,
}


def run_checks(
    quick: bool = False,
    criteria: Optional[Iterable[int]] = None,
) -> list[CheckResult]:
    """Run the selected acceptance criteria (all by default), in order.

    The criteria share their rated M, M2 and M' grids: each (lam, n, m) is
    solved once per call, and the grids are released when it returns.  A
    criterion that raises DomainError (a grid the solvers reject) is one
    failed "did not finish" result with its message, and the next criterion
    runs; other exceptions propagate.  An empty or unknown selection raises
    DomainError before any criterion runs.
    """
    selected = sorted(set(criteria)) if criteria is not None else sorted(CRITERIA)
    if not selected:
        raise DomainError("no criteria selected")
    unknown = [c for c in selected if c not in CRITERIA]
    if unknown:
        raise DomainError(f"unknown criteria: {unknown}")
    results: list[CheckResult] = []
    sims = [cfg for c in selected for cfg in _sim_configs(c, quick)]
    with _constants._shared_grids(), _mc._started_runs(sims):
        for c in selected:
            try:
                results.extend(CRITERIA[c](quick))
            except DomainError as exc:
                results.append(CheckResult(c, "did not finish", False, str(exc)))
    return results
