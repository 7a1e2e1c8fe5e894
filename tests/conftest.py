"""Fixtures shared across test modules."""

import time

import pytest

from qs4.extremizer import IterationConfig, run_iteration
from qs4.functional import TimeWindow, el_map
from qs4.grid import make_grid


@pytest.fixture(scope="session")
def extremal_run():
    """Converged Gaussian-seed ascent at the frozen full-scale configuration,
    with its wall time: (report, elapsed seconds).

    The acceptance suite and test_extremizer.py both need this run; one
    session-scoped ascent serves both.
    """
    cfg = IterationConfig(grid=make_grid(128, 128.0), window=TimeWindow(2.0, 257),
                          max_iters=500, seed_width=1.05)
    start = time.monotonic()
    report = run_iteration(cfg)
    return report, time.monotonic() - start


@pytest.fixture
def shrinking_el_map(monkeypatch):
    """Make the ascent's el_map return 0.5^k el_map(f, w) on its k-th call
    (from 0), and return the list of calls.  Every step keeps its direction,
    but each quotient is 11% below the last, so the first plain step fails.
    """
    calls = []

    def shrinking(f, w):
        calls.append(None)
        return 0.5 ** (len(calls) - 1) * el_map(f, w)

    monkeypatch.setattr("qs4.extremizer.el_map", shrinking)
    return calls
