"""How ``run_checks`` runs the criteria: background simulations, their clock,
and the halving delta that criterion 11 reads."""

import math
import multiprocessing
import multiprocessing.pool
import time

import numpy as np
import pytest

from parklab import Params, constants, constants_report, solver, validation
from parklab.core import _mean_derivative_past_two, _mean_past_two, lower_count_bound, upper_count_bound


def test_simulation_runtime_covers_the_started_runs(monkeypatch, small_sets_pool):
    # criterion 2 runs first, while criterion 8's simulations run in the pool
    monkeypatch.setenv("PARKLAB_THREADS", "2")
    spans = []
    real = multiprocessing.pool.Pool.map_async

    def timed(self, func, iterable, *args, **kwargs):
        span = [time.perf_counter(), math.inf]
        spans.append(span)

        def done(_):
            span[1] = time.perf_counter()

        return real(self, func, iterable, callback=done)

    monkeypatch.setattr(multiprocessing.pool.Pool, "map_async", timed)
    results = validation.run_checks(quick=True, criteria=[2, 8])
    runtime, = [r for r in results if r.name == "simulation runtime"]
    reading = float(runtime.measured.split("s ")[0])
    assert len(spans) == 2
    submit_to_done = max(end for _, end in spans) - min(start for start, _ in spans)
    assert reading + 0.05 >= submit_to_done  # the reading is printed to 0.1 s


def test_in_process_simulation_runtime_excludes_earlier_criteria(monkeypatch):
    # at one thread criterion 8 simulates when it collects, so its clock starts there
    monkeypatch.setenv("PARKLAB_THREADS", "1")
    check_2, check_8 = validation.CRITERIA[2], validation.CRITERIA[8]
    span = []

    def slow_2(quick):
        time.sleep(0.3)
        return check_2(quick)

    def timed_8(quick):
        span.append(time.perf_counter())
        try:
            return check_8(quick)
        finally:
            span.append(time.perf_counter())

    monkeypatch.setitem(validation.CRITERIA, 2, slow_2)
    monkeypatch.setitem(validation.CRITERIA, 8, timed_8)
    results = validation.run_checks(quick=True, criteria=[2, 8])
    runtime, = [r for r in results if r.name == "simulation runtime"]
    reading = float(runtime.measured.split("s ")[0])
    assert reading <= span[1] - span[0] + 0.05  # the reading is printed to 0.1 s


def test_criteria_without_simulations_ignore_a_malformed_thread_setting(monkeypatch):
    monkeypatch.setenv("PARKLAB_THREADS", "x")
    results = validation.run_checks(quick=True, criteria=[1])
    assert results and all(r.passed for r in results)


def _verdict_lines(criteria):
    return [r.line() for r in validation.run_checks(quick=True, criteria=criteria)]


def test_a_pool_worker_validates_in_process(monkeypatch):
    # criterion 9 simulates enough trials for two workers, which a daemonic
    # pool worker may not start
    monkeypatch.setenv("PARKLAB_THREADS", "2")
    with multiprocessing.Pool(1) as pool:
        in_worker = pool.apply(_verdict_lines, ([9],))
    assert in_worker == _verdict_lines([9])


@pytest.mark.parametrize("method", ["envelope", "crude"])
def test_criterion_11_reads_the_halving_delta(method):
    # the m=512 report's halving delta is the m=256 vs m=512 endpoint delta, bit for bit
    r256 = constants_report(1.0, 7, 256, method)
    r512 = constants_report(1.0, 7, 512, method)
    recomputed = max(abs(a - b) for a, b in zip(r256.endpoints, r512.endpoints))
    halved = constants_report(1.0, 7, 512, method, with_halving_delta=True)
    assert halved.quadrature_halving_delta == recomputed
    line, = [r for r in validation.CRITERIA[11](True) if f"({method})" in r.name]
    assert line.measured == f"max endpoint delta {recomputed:.2e} (tol 1e-8)"


def test_the_uniform_grid_is_solved_once_per_run(monkeypatch):
    # criteria 3 and 6 read the uniform (16, 256) derivative grid, and criterion 7 its first 7 rows
    calls = []
    real = solver.solve_uniform_mean_derivative

    def counting(n, m):
        calls.append((n, m))
        return real(n, m)

    monkeypatch.setattr(solver, "solve_uniform_mean_derivative", counting)
    validation.run_checks(quick=True)
    assert calls == [(16, 256)]


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_criterion_1_measures_the_node_by_node_error(lam):
    p = Params(lam, 3, 256)
    worst = 0.0
    for solve, closed in ((solver.solve_mean, _mean_past_two),
                          (solver.solve_mean_derivative, _mean_derivative_past_two)):
        g = solve(p, seed_upto=2)
        ref = np.array([closed(x - 2.0, lam) for x in g.x_nodes(2)])
        worst = max(worst, float(np.max(np.abs(g.values[2] - ref))))
    assert validation._closed_form_error(lam) == worst


@pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
def test_criterion_2_measures_the_row_by_row_violation(lam):
    p = Params(lam, 7, 256)
    g, g2 = constants._mean_grids(p)
    worst = -np.inf
    for k in range(p.horizon_n):
        xs = g.x_nodes(k)
        lo = np.array([lower_count_bound(x) for x in xs], dtype=float)
        hi = np.array([upper_count_bound(x) for x in xs], dtype=float)
        worst = max(worst, np.max(lo - g.values[k]), np.max(g.values[k] - hi),
                    np.max(lo**2 - g2.values[k]), np.max(g2.values[k] - hi**2))
    assert validation._count_bound_violation(p) == worst
