"""Tests for Schedule construction and execute_schedule."""

from __future__ import annotations

import pytest

from repro.core.engine import Schedule, execute_schedule
from repro.core.errors import ScheduleViolation
from repro.core.log import Transfer
from repro.core.model import BandwidthModel

from ..conftest import schedule_from


class TestSchedule:
    def test_add_and_makespan(self):
        s = Schedule(3, 2)
        s.add(2, 0, 1, 0)
        s.add(1, 0, 2, 1)
        assert s.ticks == 2
        assert len(s) == 2

    def test_iteration_is_tick_ordered(self):
        s = schedule_from(3, 2, [(2, 0, 1, 0), (1, 0, 2, 1)])
        assert [t.tick for t in s] == [1, 2]

    def test_transfers_at(self):
        s = schedule_from(3, 2, [(1, 0, 1, 0)])
        assert len(s.transfers_at(1)) == 1
        assert s.transfers_at(5) == ()

    def test_extend(self):
        s = Schedule(3, 1)
        s.extend([Transfer(1, 0, 1, 0), Transfer(1, 0, 2, 0)])
        assert len(s) == 2

    def test_to_log(self):
        s = schedule_from(3, 1, [(2, 1, 2, 0), (1, 0, 1, 0)])
        log = s.to_log()
        assert [t.tick for t in log] == [1, 2]

    def test_shifted(self):
        s = schedule_from(2, 1, [(1, 0, 1, 0)])
        moved = s.shifted(5)
        assert moved.ticks == 6
        assert s.ticks == 1  # original untouched

    def test_empty_schedule(self):
        s = Schedule(2, 1)
        assert s.ticks == 0
        result = execute_schedule(s)
        assert not result.completed


class TestExecuteSchedule:
    def test_simple_completion(self):
        s = schedule_from(2, 2, [(1, 0, 1, 0), (2, 0, 1, 1)])
        r = execute_schedule(s)
        assert r.completed and r.completion_time == 2
        assert r.client_completions == {1: 2}

    def test_causality_enforced(self):
        # Client 1 gets block 0 at tick 1 and must not forward it in tick 1.
        s = schedule_from(3, 1, [(1, 0, 1, 0), (1, 1, 2, 0)])
        with pytest.raises(ScheduleViolation) as e:
            execute_schedule(s)
        assert e.value.rule == "causality"

    def test_forwarding_next_tick_ok(self):
        s = schedule_from(3, 1, [(1, 0, 1, 0), (2, 1, 2, 0)])
        assert execute_schedule(s).completed

    def test_upload_capacity(self):
        s = schedule_from(3, 1, [(1, 0, 1, 0), (1, 0, 2, 0)])
        with pytest.raises(ScheduleViolation) as e:
            execute_schedule(s)
        assert e.value.rule == "upload-capacity"

    def test_server_upload_capacity_raised(self):
        s = schedule_from(3, 1, [(1, 0, 1, 0), (1, 0, 2, 0)])
        r = execute_schedule(s, BandwidthModel(server_upload=2))
        assert r.completion_time == 1

    def test_download_capacity(self):
        # Client 3 receives two blocks in one tick at d = 1.
        s = schedule_from(
            4, 2, [(1, 0, 1, 0), (2, 0, 2, 1), (3, 1, 3, 0), (3, 2, 3, 1), (3, 0, 1, 1), (4, 1, 2, 0)]
        )
        with pytest.raises(ScheduleViolation) as e:
            execute_schedule(s, BandwidthModel.symmetric())
        assert e.value.rule == "download-capacity"
        r = execute_schedule(s, BandwidthModel.double_download())
        assert r.completed

    def test_redundant_strict_raises(self):
        s = schedule_from(2, 1, [(1, 0, 1, 0), (2, 0, 1, 0)])
        with pytest.raises(ScheduleViolation) as e:
            execute_schedule(s)
        assert e.value.rule == "usefulness"

    def test_meta_flows_through(self):
        s = Schedule(2, 1, meta={"algorithm": "demo"})
        s.add(1, 0, 1, 0)
        r = execute_schedule(s)
        assert r.meta["algorithm"] == "demo"
        assert "model" in r.meta
