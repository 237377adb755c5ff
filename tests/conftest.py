"""Shared test fixtures and helpers."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import Schedule
from repro.core.log import Transfer, TransferLog


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG for tests that need one."""
    return random.Random(0xC0FFEE)


def log_from(entries: list[tuple[int, int, int, int]]) -> TransferLog:
    """Build a TransferLog from (tick, src, dst, block) tuples."""
    return TransferLog(Transfer(*e) for e in sorted(entries))


def schedule_from(
    n: int, k: int, entries: list[tuple[int, int, int, int]]
) -> Schedule:
    """Build a Schedule from (tick, src, dst, block) tuples."""
    s = Schedule(n, k)
    for tick, src, dst, block in entries:
        s.add(tick, src, dst, block)
    return s


@pytest.fixture(scope="session")
def scenario_ci():
    """Each scenario experiment's ``ci`` run, made once per session.

    Returns ``run(name) -> (FigureResult, executed task count)``; every
    run goes through a fresh :class:`SerialExecutor`, so the count is
    the number of simulations the experiment scheduled.
    """
    from repro.campaign import SerialExecutor, configured
    from repro.experiments.runner import EXPERIMENTS

    runs = {}

    def run(name):
        if name not in runs:
            executor = SerialExecutor()
            with configured(executor=executor):
                result = EXPERIMENTS[name](scale="ci")
            runs[name] = (result, executor.last_stats.executed)
        return runs[name]

    return run
