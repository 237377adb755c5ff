"""``AsyncEngine`` forwards every kernel run option through ``AsyncKernelRun``."""

from __future__ import annotations

import pytest

from repro.asynchronous import AsyncEngine, AsyncRandom
from repro.workloads import WorkloadSpec


def test_workload_reaches_an_async_engine_run() -> None:
    workload = WorkloadSpec(initial_fraction=0.5, arrival_trace=((5, 2),))
    r = AsyncEngine(12, 5, AsyncRandom(), rng=3, workload=workload).run()
    assert r.meta["workload"] == workload.describe()
    late = [v for v, tick in r.meta["joined_at"].items() if tick == 5]
    assert len(late) == 2
    assert set(late) <= set(r.client_completions)
    assert r.completed


def test_keep_log_defaults_off_and_can_be_armed() -> None:
    plain = AsyncEngine(10, 4, AsyncRandom(), rng=2)
    logged = AsyncEngine(10, 4, AsyncRandom(), rng=2, keep_log=True)
    assert not plain.kernel.keep_log
    assert logged.kernel.keep_log
    assert plain.run().transfers == logged.run().transfers
    assert len(logged.kernel.log) > 0


def test_max_ticks_comes_from_max_time() -> None:
    assert AsyncEngine(10, 4, AsyncRandom(), max_time=2.5).kernel.max_ticks == 3
    with pytest.raises(TypeError):
        AsyncEngine(10, 4, AsyncRandom(), max_ticks=5)
