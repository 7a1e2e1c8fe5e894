"""Fixtures shared across test modules."""

import time

import pytest

from qs4.extremizer import IterationConfig, run_iteration
from qs4.functional import TimeWindow
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
