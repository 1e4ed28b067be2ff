"""Fixtures shared by the test modules."""

import multiprocessing

import pytest


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
