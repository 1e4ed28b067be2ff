"""Fixtures shared by the test modules."""

import multiprocessing

import pytest

from parklab import montecarlo


@pytest.fixture
def made_pools(monkeypatch) -> list:
    """Every ``multiprocessing.Pool`` constructed during the test, in order."""
    made = []
    real = multiprocessing.Pool

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    return made


@pytest.fixture
def small_sets_pool(monkeypatch) -> None:
    """Lets a set of simulations start a pool from 10,000 trial-lengths per
    worker, so that short test runs still exercise the pooled path."""
    monkeypatch.setattr(montecarlo, "_MIN_TRIAL_LENGTHS_PER_WORKER", 10_000)
