"""Tests for replaying deterministic schedules under faults."""

from __future__ import annotations

import pytest

from repro.core.engine import execute_schedule
from repro.core.verify import verify_log
from repro.faults import FaultPlan, RecoveryPolicy, replay_schedule
from repro.schedules.hypercube import hypercube_schedule
from repro.schedules.simple import pipeline_schedule

pytestmark = pytest.mark.faults


class TestExactReplay:
    def test_no_faults_matches_execute_schedule(self):
        schedule = pipeline_schedule(12, 6)
        exact = execute_schedule(schedule)
        replayed = replay_schedule(schedule)
        assert list(replayed.log) == list(exact.log)
        assert replayed.completion_time == exact.completion_time
        assert replayed.meta["abort"] is None
        assert replayed.meta["retries"] == 0

    def test_null_plan_matches_too(self):
        schedule = pipeline_schedule(10, 5)
        assert list(replay_schedule(schedule, faults=FaultPlan()).log) == list(
            execute_schedule(schedule).log
        )


class TestLossyReplay:
    def test_retries_recover_completion(self):
        schedule = pipeline_schedule(12, 6)
        r = replay_schedule(schedule, faults=FaultPlan(loss_rate=0.2), rng=3)
        assert r.completed
        assert r.completion_time > schedule.ticks
        assert r.log.failed_count > 0
        assert r.meta["retries"] > 0
        report = verify_log(r.log, 12, 6)
        assert report.failed_transfers == r.log.failed_count

    def test_hypercube_replay_with_retries_completes(self):
        r = replay_schedule(
            hypercube_schedule(128, 64),
            faults=FaultPlan(loss_rate=0.1),
            recovery=RecoveryPolicy(max_retries=5),
            rng=2,
        )
        assert r.completed
        assert r.meta["retries"] > 0

    def test_deliveries_preserve_schedule_content(self):
        # Whatever the fault realisation, the delivered multiset equals
        # the planned multiset: replay only delays, never reroutes.
        schedule = pipeline_schedule(10, 5)
        r = replay_schedule(schedule, faults=FaultPlan(loss_rate=0.3), rng=5)
        assert r.completed
        planned = sorted((t.src, t.dst, t.block) for t in schedule)
        delivered = sorted((t.src, t.dst, t.block) for t in r.log)
        assert delivered == planned

    def test_no_retry_policy_abandons(self):
        schedule = pipeline_schedule(12, 6)
        r = replay_schedule(
            schedule,
            faults=FaultPlan(loss_rate=0.5),
            recovery=RecoveryPolicy(max_retries=0),
            rng=7,
        )
        assert not r.completed
        assert r.meta["abandoned_transfers"] > 0
        verify_log(r.log, 12, 6, require_completion=False)

    def test_max_ticks_abort(self):
        schedule = pipeline_schedule(12, 6)
        r = replay_schedule(
            schedule,
            faults=FaultPlan(loss_rate=0.9),
            recovery=RecoveryPolicy(max_retries=50, backoff_base=4),
            rng=9,
            max_ticks=schedule.ticks + 2,
        )
        assert not r.completed
        assert r.abort == "max-ticks"

    def test_backoff_spaces_retries(self):
        schedule = pipeline_schedule(8, 4)
        r = replay_schedule(
            schedule,
            faults=FaultPlan(loss_rate=0.4),
            recovery=RecoveryPolicy(backoff_base=3),
            rng=11,
        )
        # Every failed (src, dst, block) reappears (as failure or delivery)
        # no sooner than 3 ticks later.
        seen: dict[tuple[int, int, int], int] = {}
        events = sorted(
            [(t.tick, t.src, t.dst, t.block, True) for t in r.log.failures]
            + [(t.tick, t.src, t.dst, t.block, False) for t in r.log],
        )
        for tick, src, dst, block, failed in events:
            key = (src, dst, block)
            if key in seen:
                assert tick - seen[key] >= 3
            if failed:
                seen[key] = tick
            else:
                seen.pop(key, None)


class TestServerOutageReplay:
    def test_planned_server_sends_burn_their_slot(self):
        schedule = pipeline_schedule(8, 4)
        window = (1, 2)
        r = replay_schedule(
            schedule, faults=FaultPlan(server_outages=(window,)), rng=13
        )
        assert r.completed
        in_window = [
            t for t in r.log.failures
            if t.src == 0 and window[0] <= t.tick <= window[1]
        ]
        assert in_window  # the pipeline schedules server sends at tick 1
        verify_log(r.log, 8, 4)
