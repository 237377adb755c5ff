"""Tests for swarm progress analysis."""

from __future__ import annotations

import pytest

from repro.analysis.progress import (
    completion_cdf,
    median_completion,
    per_node_progress,
    swarm_progress,
)
from repro.core.engine import execute_schedule
from repro.core.errors import ConfigError
from repro.core.log import RunResult, TransferLog
from repro.randomized.cooperative import randomized_cooperative_run
from repro.schedules.hypercube import hypercube_schedule


@pytest.fixture(scope="module")
def optimal_run():
    return execute_schedule(hypercube_schedule(16, 8))


@pytest.fixture(scope="module")
def random_run():
    return randomized_cooperative_run(24, 12, rng=0)


class TestSwarmProgress:
    def test_monotone_and_totals(self, optimal_run):
        curve = swarm_progress(optimal_run)
        assert curve == sorted(curve)
        assert curve[-1] == 8 * 15  # k blocks to every client
        assert len(curve) == optimal_run.completion_time

    def test_empty_run_rejected(self):
        empty = RunResult(2, 1, None, {}, TransferLog())
        with pytest.raises(ConfigError):
            swarm_progress(empty)


class TestCompletionCdf:
    def test_reaches_one_and_monotone(self, random_run):
        cdf = completion_cdf(random_run)
        assert cdf == sorted(cdf)
        assert cdf[-1] == pytest.approx(1.0)
        assert all(0 <= f <= 1 for f in cdf)

    def test_optimal_run_finishes_together(self, optimal_run):
        # For k >= h all clients of the binomial pipeline finish at once:
        # the CDF jumps 0 -> 1 at the final tick.
        cdf = completion_cdf(optimal_run)
        assert cdf[-2] == 0.0
        assert cdf[-1] == 1.0

    def test_median_before_last(self, random_run):
        median = median_completion(random_run)
        assert median is not None
        assert median <= random_run.completion_time

    def test_median_none_when_under_half(self):
        # Only one of three clients ever completes.
        log = TransferLog()
        log.record(1, 0, 1, 0)
        result = RunResult.from_log(4, 1, log)
        assert median_completion(result) is None


class TestPerNodeProgress:
    def test_curves_monotone_and_end_full(self, random_run):
        curves = per_node_progress(random_run)
        assert set(curves) == set(range(1, 24))
        for curve in curves.values():
            assert curve == sorted(curve)
            assert curve[-1] == 12

    def test_subset_selection(self, random_run):
        curves = per_node_progress(random_run, nodes=[3, 7])
        assert set(curves) == {3, 7}

    def test_free_rider_flatlines_under_credit(self):
        from repro.adversary import AdversaryPlan
        from repro.core.mechanisms import CreditLimitedBarter
        from repro.overlays.random_regular import random_regular_graph
        from repro.randomized.engine import RandomizedEngine

        n, k = 48, 48
        g = random_regular_graph(n, 8, rng=0)
        r = RandomizedEngine(
            n,
            k,
            overlay=g,
            mechanism=CreditLimitedBarter(1),
            rng=1,
            adversary=AdversaryPlan(free_riders=(1,)),
            max_ticks=1500,
        ).run()
        curves = per_node_progress(r, nodes=[1])
        # The free-rider's curve saturates well below k (leeches, starves).
        assert curves[1][-1] < k
