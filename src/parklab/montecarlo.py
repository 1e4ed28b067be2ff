"""Direct simulation of the parking process, the solvers' independent oracle.

A car placed at offset T on a free stretch of length x splits it into
independent sub-stretches of lengths T and x - 1 - T, and the placement law
on each sub-stretch is the same truncated exponential by self-similarity, so
a trial is just a set of stretch lengths.  Saturation is reached when every
gap holds at most one car length.  Trials are simulated in lockstep batches:
each numpy round parks one car in every live gap of every trial of the
batch, writes the pieces into one reused buffer and keeps those still longer
than 1 by their indices (see ``_saturation_counts``).

Lengths must be below 2**53 (``SimConfig`` rejects the rest).  Below that
bound every piece is at most its gap minus one, so every trial saturates;
from 2**53 on ``gap - 1.0`` can round back to ``gap`` and a piece would
never shrink.

Reproducibility: the unit is a fixed batch of ``_batch_size(length)``
consecutive trials, min(1024, max(1, 2**20 // ceil(length))).  A stretch
holds fewer than ceil(length) live gaps, so a batch holds at most 2**20
unless one stretch alone is longer than that.  Batch b draws
from a counter-based generator keyed by (seed, b) in the breadth-first
order of ``_saturation_counts``, so results are independent of execution
order, and all moment accumulation happens in exact integer arithmetic, so
parallel runs are bit-identical to serial ones.

Every run goes through ``_started_runs(configs)``, which decides once for
its whole set of simulations how many workers they get, from their total
work in trial-lengths, trials * ceil(length).  With two or more, one pool
simulates every listed config in the background from the block's entry, so
a caller can do other work while they run; with one, each run simulates
in-process when ``run_mc`` collects it, in call order.  ``run_mc`` on a
config outside such a block runs it as a set of one.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import multiprocessing
import os
import signal
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .core import (DomainError, _check_int, _check_kind, _check_rate, lower_count_bound,
                   upper_count_bound)

__all__ = [
    "SimConfig",
    "SimStats",
    "run_mc",
    "z_diagnostics",
]

THREADS_ENV_VAR = "PARKLAB_THREADS"
_MIN_TRIAL_LENGTHS_PER_WORKER = 1_000_000


@dataclass(frozen=True)
class SimConfig:
    lam: float
    length: float
    trials: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", _check_rate(self.lam))
        object.__setattr__(self, "length", _check_kind("length", self.length))
        if not 0 < self.length < math.inf:
            raise DomainError(f"length must be finite and > 0, got {self.length!r}")
        if self.length >= 2**53:  # from here on gap - 1.0 can round back to gap
            raise DomainError(f"length must be below 2**53, got {self.length!r}")
        for name, ok, rule in (("trials", lambda t: t >= 1, "an integer >= 1"),
                               ("seed", lambda s: 0 <= s < 2**64, "a 64-bit unsigned integer")):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), ok, rule))


@dataclass(frozen=True)
class SimStats:
    """Summary of the simulated saturation counts.

    variance is the unbiased sample variance; skewness and excess_kurtosis
    are the standardized central sample moments (reported as 0.0 for
    degenerate, zero-variance counts).
    """

    trials: int
    mean: float
    variance: float
    stderr_mean: float
    skewness: float
    excess_kurtosis: float
    histogram: dict[int, int]

    def to_dict(self) -> dict:
        return {**asdict(self),
                "histogram": {str(k): v for k, v in sorted(self.histogram.items())}}


def _place(lam: float, free: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF offset of a car on a free stretch [0, free), elementwise.

    The truncated exponential law with rate lam: u = 0 maps to 0, and the
    expm1/log1p forms keep the map accurate down to vanishing rates, where it
    degrades gracefully to u*free.
    """
    return -np.log1p(u * np.expm1(-lam * free)) / lam


def _saturation_counts(lam: float, length: float, trials: int, rng: np.random.Generator) -> np.ndarray:
    """Cars parked at saturation in each of ``trials`` stretches of one length.

    ``gaps`` holds every live gap (longer than 1) of the batch and ``owner``
    the trial it belongs to.  Each round draws ``rng.random(gaps.size)``,
    parks one car in every live gap with ``_place``, and writes the left
    pieces followed by the right pieces (each in their gaps' order) into
    ``pieces``, one buffer reused by every round.  The indices of the pieces
    still longer than 1 select the next round's gaps and, taken modulo the
    gap count, their owners.
    """
    counts = np.zeros(trials, dtype=np.int64)
    if length <= 1.0:
        return counts
    gaps = np.full(trials, float(length))
    owner = np.arange(trials)
    buf = np.empty(2 * trials)
    while gaps.size:
        n = gaps.size
        if buf.size < 2 * n:
            buf = np.empty(2 * n)
        pieces = buf[:2 * n]
        gaps -= 1.0  # each gap's free length from here on
        pieces[:n] = _place(lam, gaps, rng.random(n))
        np.subtract(gaps, pieces[:n], out=pieces[n:])
        counts += np.bincount(owner, minlength=trials)
        kept = (pieces > 1.0).nonzero()[0]
        gaps, owner = pieces.take(kept), owner.take(kept, mode="wrap")
    return counts


def _batch_size(length: float) -> int:
    """Trials per batch, the unit of reproducibility (see the module docstring)."""
    return min(1024, max(1, 2**20 // math.ceil(length)))


def _trial_rng(seed: int, batch: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, batch], dtype=np.uint64)))


def _simulate_chunk(job: tuple[SimConfig, int, int]) -> Counter:
    """Histogram of the counts of batches [first, stop) of a run, from the job
    ``(config, first, stop)``."""
    config, first, stop = job
    size = _batch_size(config.length)
    hist: Counter = Counter()
    for batch in range(first, stop):
        counts = _saturation_counts(config.lam, config.length,
                                    min(size, config.trials - batch * size),
                                    _trial_rng(config.seed, batch))
        hist.update(counts.tolist())
    return hist


def _default_sigterm() -> None:
    """Pool initializer: let SIGTERM kill a worker outright.

    Forked workers inherit the parent's Python handler; one that raises can
    leave a worker blocked when ``Pool.terminate()`` signals it.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _resolve_workers(threads: int | None, work: int,
                     min_work_per_worker: int = _MIN_TRIAL_LENGTHS_PER_WORKER) -> int:
    """Worker processes for ``work`` units, each worker taking at least
    ``min_work_per_worker`` of them; at least 1.

    The one rule for every pool parklab starts.  A pool worker (a daemonic
    process, which may start no children) gets 1.  Else threads caps the
    count: None reads PARKLAB_THREADS, 0 means one per CPU this process may
    run on.  The simulator counts a set's trial-lengths, trials * ceil(length)
    summed over its configs (the default minimum is its own), and the halving
    delta counts the fine report's M2 product panels.
    """
    if multiprocessing.current_process().daemon:
        return 1
    if threads is None:
        raw = os.environ.get(THREADS_ENV_VAR, "0")
        try:
            threads = int(raw)
        except ValueError:
            raise DomainError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}")
    if threads < 0:
        raise DomainError(f"thread count must be >= 0, got {threads}")
    if threads == 0:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
    return max(1, min(threads, work // min_work_per_worker or 1))


def _pool(workers: int) -> multiprocessing.pool.Pool:
    """The one pool parklab builds: ``workers`` processes that SIGTERM kills."""
    return multiprocessing.Pool(workers, initializer=_default_sigterm)


def _jobs(config: SimConfig, workers: int) -> list[tuple[SimConfig, int, int]]:
    """``_simulate_chunk`` jobs ``(config, first, stop)`` covering config's
    batches in 4*workers chunks of consecutive batches."""
    batches = -(-config.trials // _batch_size(config.length))
    edges = np.linspace(0, batches, 4 * workers + 1).astype(int)
    return [(config, int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if a < b]


# Runs registered by ``_started_runs``: config -> (perf_counter() at
# submission, or None for an in-process run; a callable returning the run's
# chunk histograms, which an in-process run simulates as they are read).
# None outside the block.
_STARTED: contextvars.ContextVar[Optional[dict]] = contextvars.ContextVar("_STARTED", default=None)


@contextlib.contextmanager
def _started_runs(configs: Iterable[SimConfig], threads: int | None = None) -> Iterator[None]:
    """Register ``configs`` for ``run_mc`` to collect for the length of the block.

    The one simulation path.  ``_resolve_workers`` gives the whole set one
    worker count, from its total work in trial-lengths.  With two or more,
    every config's chunks are submitted on entry, in order, to one pool that
    runs them in the background; with one, each config simulates in-process
    when ``run_mc`` collects it.  The pool is terminated when the block exits,
    also on an exception.

    The minimum work per worker keeps ``validate --quick``'s set (4.0e6
    trial-lengths) in a pool.  Running its three simulations inline instead
    made each 1.3-3x faster in-process, but ``bench/run.py --workload
    validate`` (5 alternating pairs) read wall_s 0.423 -> 0.449 s and
    peak_rss_mb 32.7 -> 37.9 MB: the first Philox draw imports numpy.random
    (about 6 MB) into the main process, and this early fork keeps that import
    in the workers.
    """
    configs = list(configs)
    work = sum(c.trials * math.ceil(c.length) for c in configs)
    workers = _resolve_workers(threads, work, _MIN_TRIAL_LENGTHS_PER_WORKER) if configs else 1
    with _pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        token = _STARTED.set({
            c: (time.perf_counter(), pool.map_async(_simulate_chunk, _jobs(c, workers)).get)
            if workers > 1 else (None, functools.partial(map, _simulate_chunk, _jobs(c, workers)))
            for c in configs})
        try:
            yield
        finally:
            _STARTED.reset(token)


def _submitted_at(config: SimConfig) -> float:
    """perf_counter() time at which a pooled run of config was submitted; now
    for every other run."""
    run = (_STARTED.get() or {}).get(config)
    return run[0] if run and run[0] is not None else time.perf_counter()


def run_mc(config: SimConfig, threads: int | None = None) -> SimStats:
    """Simulate config.trials independent saturations and summarize them.

    A config registered by ``_started_runs`` is collected; any other runs in a
    one-config block of its own, where threads caps the workers (None reads
    PARKLAB_THREADS, 0 means one per usable CPU, and a pool worker uses none).
    Workers take whole batches of trials.  The summary is bit-identical for
    any worker count because each batch's stream depends only on (seed, batch
    index), the batches are fixed by config.trials and the batch-size rule,
    and the reduction is exact integer arithmetic.
    """
    started = config in (_STARTED.get() or {})
    with contextlib.nullcontext() if started else _started_runs([config], threads):
        return _summarize(config, _STARTED.get()[config][1]())


def _summarize(config: SimConfig, parts: Iterable[Counter]) -> SimStats:
    """SimStats of a run from its chunks' count histograms."""
    hist = dict(sorted(sum(parts, Counter()).items()))
    s1, s2, s3, s4 = (sum(f * k**p for k, f in hist.items()) for p in range(1, 5))

    n = config.trials
    lo, hi = lower_count_bound(config.length), upper_count_bound(config.length)
    if hist and (min(hist) < lo or max(hist) > hi):
        raise RuntimeError(
            f"simulated count escaped the certified range [{lo}, {hi}]: "
            f"observed [{min(hist)}, {max(hist)}]")

    mean = s1 / n
    # exact integer numerators of the central power sums
    num2 = n * s2 - s1 * s1
    num3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
    num4 = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4
    variance = num2 / (n * (n - 1)) if n > 1 else 0.0
    m2 = num2 / n**2
    if m2 > 0.0:
        skew = (num3 / n**3) / m2**1.5
        exkurt = (num4 / n**4) / m2**2 - 3.0
    else:
        skew = 0.0
        exkurt = 0.0
    return SimStats(
        trials=n,
        mean=mean,
        variance=variance,
        stderr_mean=math.sqrt(variance / n),
        skewness=skew,
        excess_kurtosis=exkurt,
        histogram=hist,
    )


def z_diagnostics(
    config: SimConfig,
    mean_ref: float,
    var_ref: float,
) -> tuple[float, float]:
    """Skewness and excess kurtosis of (count - mean_ref)/sqrt(var_ref).

    Standardizing against external references (solver values, or the sample
    moments themselves) makes this a direct check of asymptotic normality.
    This simulates ``config`` afresh; to standardize a run already made, call
    ``_standardized_moments`` on its histogram.
    """
    if not (var_ref > 0.0):
        raise DomainError(f"var_ref must be > 0, got {var_ref!r}")
    stats = run_mc(config)
    return _standardized_moments(stats.histogram, config.trials, mean_ref, var_ref)


def _standardized_moments(
    histogram: dict[int, int],
    trials: int,
    mean_ref: float,
    var_ref: float,
) -> tuple[float, float]:
    """Skewness and excess kurtosis of a count histogram; var_ref must be > 0."""
    scale = math.sqrt(var_ref)
    z3 = z4 = 0.0
    for k, freq in sorted(histogram.items()):
        z = (k - mean_ref) / scale
        z3 += freq * z**3
        z4 += freq * z**4
    return z3 / trials, z4 / trials - 3.0
