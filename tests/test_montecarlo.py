"""Sampler, simulator, and moment accumulation."""

import itertools
import math
import multiprocessing
import multiprocessing.pool
import os
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parklab import DomainError, Params, SimConfig, run_mc, solve_mean, solve_second_moment
import parklab
from parklab.core import lower_count_bound, upper_count_bound
from parklab import montecarlo
from parklab.montecarlo import (
    _batch_size,
    _place,
    _resolve_workers,
    _saturation_counts,
    _standardized_moments,
    _started_runs,
    _trial_rng,
    z_diagnostics,
)


def _breadth_first_counts(lam, length, trials, rng):
    """Scalar reference for _saturation_counts: the documented draw order.

    Each round draws one uniform per live gap in order, then keeps the left
    pieces followed by the right pieces that are still longer than 1.
    """
    counts = [0] * trials
    gaps = [(float(length), i) for i in range(trials)] if length > 1.0 else []
    while gaps:
        left, right = [], []
        for (gap, i), u in zip(gaps, rng.random(len(gaps))):
            free = gap - 1.0
            t = _place(lam, free, float(u))
            counts[i] += 1
            if t > 1.0:
                left.append((t, i))
            if free - t > 1.0:
                right.append((free - t, i))
        gaps = left + right
    return counts


def _masked_counts(lam, length, trials, rng):
    """Vectorized reference for _saturation_counts: its former round, which
    keeps the surviving pieces, and their owners from the doubled owner
    array, by one boolean mask."""
    counts = np.zeros(trials, dtype=np.int64)
    if length <= 1.0:
        return counts
    gaps = np.full(trials, float(length))
    owner = np.arange(trials)
    while gaps.size:
        free = gaps - 1.0
        t = _place(lam, free, rng.random(gaps.size))
        counts += np.bincount(owner, minlength=trials)
        pieces = np.concatenate((t, free - t))
        keep = pieces > 1.0
        gaps, owner = pieces[keep], np.concatenate((owner, owner))[keep]
    return counts


class _ZeroEveryThird:
    """A Generator's uniforms with every third one replaced by 0.0, the
    lowest value ``random()`` returns.  A car drawn at 0 parks flush left and
    leaves a right piece of exactly its free length, so a stretch of length 2
    leaves a piece of exactly 1, which holds no further car."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, size):
        u = self.rng.random(size)
        u[::3] = 0.0
        return u


def _draws(seed, batch, zeros):
    rng = _trial_rng(seed, batch)
    return _ZeroEveryThird(rng) if zeros else rng


class TestSampler:
    def test_zero_maps_to_zero(self):
        assert _place(1.0, 3.0, 0.0) == 0.0

    def test_vanishing_rate_is_uniform(self):
        for u in (0.1, 0.5, 0.9):
            assert _place(1e-12, 4.0, u) == pytest.approx(4.0 * u, rel=1e-9)

    @given(st.floats(0.0, 0.999999), st.floats(0.05, 8.0), st.floats(0.5, 20.0))
    def test_in_support(self, u, lam, support):
        t = _place(lam, support, u)
        assert 0.0 <= t <= support

    @given(st.floats(0.05, 8.0), st.floats(0.5, 20.0))
    def test_monotone_in_u(self, lam, support):
        ts = _place(lam, support, np.linspace(0.0, 0.999, 50))
        assert np.all(np.diff(ts) >= 0.0)

    def test_empirical_cdf_against_analytic(self):
        # inverse-transform draws must follow the analytic law
        lam, support, n = 1.0, 3.0, 1_000_000
        rng = np.random.default_rng(7)
        u = rng.random(n)
        t = _place(lam, support, u)
        spot = [_place(lam, support, float(v)) for v in u[:64]]
        assert spot == pytest.approx(list(t[:64]), rel=1e-15)
        t.sort()
        cdf = -np.expm1(-lam * t) / -np.expm1(-lam * support)
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.max(np.abs(empirical_hi - cdf)), np.max(np.abs(cdf - empirical_lo)))
        assert ks < 0.002


def _one_count(lam, length, rng):
    return _saturation_counts(lam, length, 1, rng)[0]


class TestSaturationCount:
    def test_too_short_for_any_car(self):
        rng = _trial_rng(0, 0)
        assert _one_count(1.0, 0.8, rng) == 0

    def test_single_car_region(self):
        for trial in range(50):
            assert _one_count(1.0, 1.7, _trial_rng(3, trial)) == 1

    def test_two_car_case(self):
        # at length 3 one sub-gap always admits exactly one more car
        for trial in range(200):
            assert _one_count(0.7, 3.0, _trial_rng(4, trial)) == 2

    # (0.05, 25, 16): at a small rate left pieces often survive; (1, 200, 4): many rounds
    @pytest.mark.parametrize("lam, length, trials", [(1.2, 13.4, 40), (0.3, 7.0, 25), (5.0, 30.0, 3),
                                                     (0.05, 25.0, 16), (1.0, 200.0, 4)])
    def test_batch_matches_breadth_first_reference(self, lam, length, trials):
        counts = _saturation_counts(lam, length, trials, _trial_rng(8, 1))
        assert counts.tolist() == _breadth_first_counts(lam, length, trials, _trial_rng(8, 1))

    def test_single_trial_is_a_batch_of_one(self):
        for batch in range(20):
            batch_of_one = _saturation_counts(1.0, 30.0, 1, _trial_rng(7, batch))
            assert batch_of_one.tolist() == _breadth_first_counts(1.0, 30.0, 1, _trial_rng(7, batch))

    @pytest.mark.parametrize("zeros", [False, True])
    @pytest.mark.parametrize("trials", [1, 7, 1024])
    def test_matches_the_masked_round(self, trials, zeros):
        rates = (1e-9, 1e-6, 0.01, 1.0, 20.0, 700.0)
        lengths = (0.5, 1.0, 1 + 1e-7, 1.5, 2.0, 3.7, 55.5, 500.0)
        for batch, (lam, length) in enumerate(itertools.product(rates, lengths)):
            counts = _saturation_counts(lam, length, trials, _draws(6, batch, zeros))
            expected = _masked_counts(lam, length, trials, _draws(6, batch, zeros))
            assert np.array_equal(counts, expected), (lam, length)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-9, 700.0), st.floats(0.5, 60.0), st.integers(1, 16),
           st.integers(0, 2**64 - 1), st.booleans())
    def test_matches_breadth_first_reference_anywhere(self, lam, length, trials, seed, zeros):
        counts = _saturation_counts(lam, length, trials, _draws(seed, 0, zeros))
        assert counts.tolist() == _breadth_first_counts(lam, length, trials, _draws(seed, 0, zeros))

    def test_peak_memory_of_one_batch(self):
        # One L=500 batch of 1024 trials peaked at 111,664 B traced with the
        # reused pieces buffer, and at 140,150 B when each round also built a
        # keep mask and a doubled owner array.  Pool workers run these
        # batches, and a worker's peak reaches the benchmark's peak RSS
        # through wait4.  The bound is this change's peak plus 25%.
        rng = _trial_rng(0, 0)
        tracemalloc.start()
        try:
            _saturation_counts(1.0, 500.0, 1024, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 139_580

    def test_batch_size_rule(self):
        assert _batch_size(0.5) == _batch_size(30.0) == _batch_size(1024.0) == 1024
        assert _batch_size(5000.0) == 2**20 // 5000
        assert _batch_size(2.0**21) == 1

    def test_counts_within_bounds(self):
        for trial in range(300):
            c = _one_count(1.2, 13.4, _trial_rng(5, trial))
            assert lower_count_bound(13.4) <= c <= upper_count_bound(13.4)


class TestRunMc:
    def test_deterministic_stats(self):
        cfg = SimConfig(1.0, 12.0, 5000, seed=11)
        assert run_mc(cfg) == run_mc(cfg)

    def test_worker_count_does_not_change_results(self, small_sets_pool):
        # several batches, the last one partial, split among 1, 2 and 3 workers
        trials = 6 * 1024 + 37
        assert _resolve_workers(3, trials * 15, montecarlo._MIN_TRIAL_LENGTHS_PER_WORKER) == 3
        cfg = SimConfig(1.0, 15.0, trials, seed=13)
        serial = run_mc(cfg, threads=1)
        assert serial == run_mc(cfg, threads=2) == run_mc(cfg, threads=3)

    def test_worker_rule_gives_each_worker_its_minimum_work(self):
        assert _resolve_workers(3, 5000, 1000) == 3
        assert _resolve_workers(3, 2999, 1000) == 2
        assert _resolve_workers(3, 1999, 1000) == 1
        assert _resolve_workers(3, 0, 1000) == 1
        assert _resolve_workers(1, 10**9, 1000) == 1

    def test_unset_threads_use_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("PARKLAB_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _resolve_workers(None, 10**9) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _resolve_workers(0, 10**9) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _resolve_workers(0, 10**9) == 64

    def test_degenerate_length(self):
        stats = run_mc(SimConfig(1.0, 1.7, 100, seed=1))
        assert stats.mean == 1.0
        assert stats.variance == 0.0
        assert stats.histogram == {1: 100}
        assert stats.skewness == 0.0 and stats.excess_kurtosis == 0.0

    def test_histogram_accounting(self):
        cfg = SimConfig(0.5, 9.0, 4000, seed=2)
        stats = run_mc(cfg)
        assert sum(stats.histogram.values()) == cfg.trials
        assert min(stats.histogram) >= lower_count_bound(9.0)
        assert max(stats.histogram) <= upper_count_bound(9.0)
        assert stats.variance >= 0.0
        assert stats.stderr_mean == pytest.approx(math.sqrt(stats.variance / cfg.trials))

    def test_moments_match_histogram(self):
        stats = run_mc(SimConfig(1.0, 8.0, 3000, seed=9))
        ks = np.array(sorted(stats.histogram))
        fs = np.array([stats.histogram[k] for k in ks], dtype=float)
        n = fs.sum()
        mean = (ks * fs).sum() / n
        var = ((ks - mean) ** 2 * fs).sum() / (n - 1)
        assert stats.mean == pytest.approx(mean, rel=1e-14)
        assert stats.variance == pytest.approx(var, rel=1e-12)

    def test_mean_agrees_with_solver(self):
        # statistical acceptance: at most one 4-sigma miss across the grid
        trials = 20_000
        misses = 0
        cell = 0
        for lam in (0.3, 1.0, 3.0):
            for x in (10.0, 30.0):
                cell += 1
                cfg = SimConfig(lam, x, trials, seed=100 + cell)
                stats = run_mc(cfg)
                ref = solve_mean(Params(lam, int(x), 128)).value(x)
                if abs(stats.mean - ref) > 4.0 * stats.stderr_mean:
                    misses += 1
        assert misses <= 1

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_variance_agrees_with_solver(self, lam):
        # catches streams or draw orders that correlate trials, which the
        # mean alone would miss
        x, trials = 20.0, 20_000
        stats = run_mc(SimConfig(lam, x, trials, seed=31))
        params = Params(lam, 20, 64)
        m_grid = solve_mean(params)
        ref = solve_second_moment(params, m_grid).value(x) - m_grid.value(x) ** 2
        se = stats.variance * math.sqrt((stats.excess_kurtosis + 2.0) / trials)
        assert abs(stats.variance - ref) <= 4.0 * se

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SimConfig(0.0, 5.0, 10)
        with pytest.raises(DomainError):
            SimConfig(1.0, 5.0, 0)
        with pytest.raises(DomainError):
            SimConfig(1.0, -1.0, 10)
        with pytest.raises(DomainError):
            SimConfig(1.0, 5.0, 10, seed=-1)
        # from 2**53 on a piece can equal its gap, so the round loop would never end
        for length in (2.0**53, 1e300, 10**400):
            with pytest.raises(DomainError, match=r"^length must be below 2\*\*53, got "):
                SimConfig(1.0, length, 1)
        assert SimConfig(1.0, 2.0**53 - 1, 1).length == 2.0**53 - 1

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        plain = SimConfig(1.0, 30.0, 10, seed=5)
        numpy = SimConfig(np.float32(1.0), np.int64(30), np.int64(10), seed=np.uint64(5))
        assert [type(v) for v in (numpy.lam, numpy.length, numpy.trials, numpy.seed)] == \
            [float, int, int, int]
        assert numpy == plain and run_mc(numpy) == run_mc(plain)

    @pytest.mark.parametrize("args, message", [
        ((1.0, True, 10), "length must be a real number, got bool True"),
        ((1.0, "30", 10), "length must be a real number, got str '30'"),
        ((1.0, 30.0, True), "trials must be an integer, got bool True"),
        ((1.0, 30.0, 10.0), "trials must be an integer, got float 10.0"),
        ((1.0, 30.0, 10, np.float64(5.0)), "seed must be an integer, got float 5.0"),
        ((True, 30.0, 10), "rate lam must be finite and > 0, got bool True"),
    ])
    def test_a_wrong_type_is_named(self, args, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            SimConfig(*args)


class TestStartedRuns:
    A = SimConfig(1.0, 20.0, 5000, seed=41)
    B = SimConfig(0.5, 40.0, 4500, seed=42)

    @pytest.mark.parametrize("threads, pools", [("1", 0), ("2", 1)])
    def test_started_runs_equal_plain_runs_from_one_pool(self, monkeypatch, made_pools,
                                                         small_sets_pool, threads, pools):
        monkeypatch.setenv("PARKLAB_THREADS", threads)
        plain = [run_mc(self.A), run_mc(self.B)]
        made_pools.clear()
        with _started_runs([self.A, self.B]):
            assert [run_mc(self.A), run_mc(self.B)] == plain
        # one resolved worker: nothing is started and both run in-process
        assert len(made_pools) == pools

    def test_a_config_not_started_runs_as_before(self, monkeypatch, made_pools, small_sets_pool):
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        plain = run_mc(self.B)
        made_pools.clear()
        with _started_runs([self.A]):
            assert run_mc(self.B) == plain
            assert len(made_pools) == 2  # the block's pool, then B's own

    def test_a_pool_worker_runs_in_process(self, monkeypatch):
        # a daemonic pool worker may start no children of its own
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        with multiprocessing.Pool(1) as pool:
            in_worker = pool.apply(run_mc, (self.A,))
        assert in_worker == run_mc(self.A)

    def test_pool_is_terminated_when_the_block_raises(self, monkeypatch, made_pools,
                                                      small_sets_pool):
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        with pytest.raises(KeyError):
            with _started_runs([self.A, self.B]):
                raise KeyError("a criterion failed")
        pool, = made_pools
        assert pool._state == multiprocessing.pool.TERMINATE
        assert all(worker.exitcode is not None for worker in pool._pool)
        assert montecarlo._STARTED.get() is None

    @pytest.mark.parametrize("configs, workers", [
        ([SimConfig(1.0, 10.0, 4000, seed=5)], 1),  # 4e4 trial-lengths
        ([SimConfig(1.0, 10.0, 199_999)], 1),  # 1,999,990
        ([SimConfig(1.0, 9.5, 200_000)], 2),  # ceil(9.5) * 200,000 = 2e6
        ([SimConfig(1.0, 30.0, 10_000), SimConfig(1.0, 60.0, 20_000),
          SimConfig(1.0, 500.0, 5_000)], 4),  # validate --quick's set, 4.0e6
    ], ids=["short", "just-below-two", "two-million", "validate-quick"])
    def test_a_set_gets_one_worker_per_million_trial_lengths(self, monkeypatch, made_pools,
                                                            configs, workers):
        monkeypatch.setenv("PARKLAB_THREADS", "4")
        with _started_runs(configs):
            pass
        assert [pool._processes for pool in made_pools] == ([workers] if workers > 1 else [])

    def test_in_process_runs_simulate_when_collected(self, monkeypatch):
        monkeypatch.setenv("PARKLAB_THREADS", "1")
        simulated = []
        real = montecarlo._simulate_chunk

        def counting(job):
            simulated.append(job[0])
            return real(job)

        monkeypatch.setattr(montecarlo, "_simulate_chunk", counting)
        plain = run_mc(self.A)
        simulated.clear()
        with _started_runs([self.A, self.B]):
            assert simulated == []
            assert run_mc(self.A) == plain
            assert set(simulated) == {self.A}

    def test_only_a_set_with_work_reads_the_thread_setting(self, monkeypatch):
        monkeypatch.setenv("PARKLAB_THREADS", "x")
        with _started_runs([]):
            pass
        with pytest.raises(DomainError, match="^PARKLAB_THREADS must be an integer, got 'x'$"):
            run_mc(self.A)
        monkeypatch.delenv("PARKLAB_THREADS")
        with pytest.raises(DomainError, match="^thread count must be >= 0, got -1$"):
            run_mc(self.A, threads=-1)


class TestZDiagnostics:
    def test_rejects_zero_variance(self):
        with pytest.raises(DomainError):
            z_diagnostics(SimConfig(1.0, 1.7, 100, seed=1), 1.0, 0.0)

    def test_standardizing_a_run_equals_a_fresh_simulation(self):
        cfg = SimConfig(1.0, 80.0, 3000, seed=29)
        mean_ref, var_ref = 59.5, 2.9
        z = _standardized_moments(run_mc(cfg).histogram, cfg.trials, mean_ref, var_ref)
        assert z == z_diagnostics(cfg, mean_ref, var_ref)

    def test_standardized_moments_are_small_for_long_stretches(self):
        cfg = SimConfig(1.0, 50.0, 4000, seed=17)
        stats = run_mc(cfg)
        z3, z4 = z_diagnostics(cfg, stats.mean, stats.variance)
        assert abs(z3) < 0.5
        assert abs(z4) < 1.0

    def test_skewness_shrinks_with_length(self):
        # central-limit trend, allowed two standard errors of slack
        trials = 5000
        se = math.sqrt(6.0 / trials)
        skews = []
        for x in (50.0, 200.0, 500.0):
            cfg = SimConfig(1.0, x, trials, seed=23)
            stats = run_mc(cfg)
            z3, _ = z_diagnostics(cfg, stats.mean, stats.variance)
            skews.append(abs(z3))
        for a, b in zip(skews, skews[1:]):
            assert b <= a + 2 * se


# A process that installs a raising SIGTERM handler, as a harness might, then
# runs a long pooled simulation.  Each pool worker announces itself when it
# takes its first chunk, in one write so that two workers' lines never mix.
_SIGTERM_CHILD = """
import os
import signal
from parklab import montecarlo

def _raise(signum, frame):
    raise RuntimeError("terminated")

def _announce(job):
    os.write(1, b"started\\n")
    return simulate(job)

simulate, montecarlo._simulate_chunk = montecarlo._simulate_chunk, _announce
signal.signal(signal.SIGTERM, _raise)
montecarlo.run_mc(montecarlo.SimConfig(1.0, 1000.0, 400_000, seed=1), threads=2)
"""


def test_sigterm_during_a_pooled_run_exits():
    src = str(Path(parklab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen([sys.executable, "-c", _SIGTERM_CHILD], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        assert proc.stdout.readline().strip() == "started"
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0
    assert "RuntimeError: terminated" in err
