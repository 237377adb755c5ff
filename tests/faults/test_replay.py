"""Tests for executing deterministic schedules under faults."""

from __future__ import annotations

import pytest

from repro.core.engine import execute_schedule
from repro.core.verify import verify_log
from repro.faults import FaultPlan, RecoveryPolicy
from repro.schedules.hypercube import hypercube_schedule
from repro.schedules.simple import pipeline_schedule

from ..conftest import schedule_from

pytestmark = pytest.mark.faults


class TestExactReplay:
    def test_no_faults_matches_execute_schedule(self):
        schedule = pipeline_schedule(12, 6)
        exact = execute_schedule(schedule)
        replayed = execute_schedule(schedule)
        assert list(replayed.log) == list(exact.log)
        assert replayed.completion_time == exact.completion_time
        assert replayed.meta["abort"] is None
        assert replayed.meta["retries"] == 0

    def test_null_plan_matches_too(self):
        schedule = pipeline_schedule(10, 5)
        assert list(execute_schedule(schedule, faults=FaultPlan()).log) == list(
            execute_schedule(schedule).log
        )


class TestLossyReplay:
    def test_retries_recover_completion(self):
        schedule = pipeline_schedule(12, 6)
        r = execute_schedule(schedule, faults=FaultPlan(loss_rate=0.2), rng=3)
        assert r.completed
        assert r.completion_time > schedule.ticks
        assert r.log.failed_count > 0
        assert r.meta["retries"] > 0
        report = verify_log(r.log, 12, 6)
        assert report.failed_transfers == r.log.failed_count

    def test_hypercube_replay_with_retries_completes(self):
        r = execute_schedule(
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
        r = execute_schedule(schedule, faults=FaultPlan(loss_rate=0.3), rng=5)
        assert r.completed
        planned = sorted((t.src, t.dst, t.block) for t in schedule)
        delivered = sorted((t.src, t.dst, t.block) for t in r.log)
        assert delivered == planned

    def test_no_retry_policy_abandons(self):
        schedule = pipeline_schedule(12, 6)
        r = execute_schedule(
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
        r = execute_schedule(
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
        r = execute_schedule(
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


class TestDuplicatePlan:
    def test_delivered_duplicate_is_skipped_under_faults(self):
        # Without a fault plan a duplicate raises (usefulness); under one
        # the second copy finds the block delivered and is dropped, so
        # nothing stays pending and the unserved client 2 is a proven
        # deadlock, not a wait for max_ticks.
        s = schedule_from(3, 1, [(1, 0, 1, 0), (2, 0, 1, 0)])
        r = execute_schedule(s, faults=FaultPlan(server_outages=((9, 9),)))
        assert r.abort == "deadlock"
        assert len(r.log) == 1 and r.log.failed_count == 0


class TestServerOutageReplay:
    def test_planned_server_sends_burn_their_slot(self):
        schedule = pipeline_schedule(8, 4)
        window = (1, 2)
        r = execute_schedule(
            schedule, faults=FaultPlan(server_outages=(window,)), rng=13
        )
        assert r.completed
        in_window = [
            t for t in r.log.failures
            if t.src == 0 and window[0] <= t.tick <= window[1]
        ]
        assert in_window  # the pipeline schedules server sends at tick 1
        verify_log(r.log, 8, 4)


class TestCrashReplay:
    def test_crash_plan_applies_and_verifies(self):
        # Crashes and rejoins apply to a schedule like to any engine; a
        # planned transfer to or from an absent node waits for it, and
        # the log verifies against the run's own events.
        r = execute_schedule(
            hypercube_schedule(16, 8),
            faults=FaultPlan(crash_rate=0.2, rejoin_delay=2),
            rng=1,
        )
        assert r.meta["crashes"] > 0
        assert r.meta["rejoins"] > 0
        assert not r.completed
        verify_log(
            r.log,
            16,
            8,
            require_completion=False,
            crash_events=r.meta["crash_events"],
            rejoin_events=r.meta["rejoin_events"],
        )

    def test_retained_blocks_complete_after_a_crash(self):
        # With every block retained a crash only delays the plan.
        r = execute_schedule(
            pipeline_schedule(8, 4),
            faults=FaultPlan(
                crash_rate=0.05, rejoin_delay=2, rejoin_retention=1.0, max_crashes=2
            ),
            rng=2,
        )
        assert r.meta["crashes"] == 2
        assert r.completed
        verify_log(
            r.log,
            8,
            4,
            crash_events=r.meta["crash_events"],
            rejoin_events=r.meta["rejoin_events"],
        )
