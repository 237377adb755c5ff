"""Tests for churn (arrivals and departures) in the randomized engine."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError
from repro.core.mechanisms import CreditLimitedBarter
from repro.core.verify import verify_log
from repro.overlays.random_regular import random_regular_graph
from repro.randomized.churn import ChurnEngine, churn_run
from repro.randomized.cooperative import randomized_cooperative_run


class TestChurnValidation:
    def test_rejects_server_churn(self):
        with pytest.raises(ConfigError):
            ChurnEngine(8, 4, arrivals={0: 3})
        with pytest.raises(ConfigError):
            ChurnEngine(8, 4, departures={0: 3})

    def test_rejects_unknown_client(self):
        with pytest.raises(ConfigError):
            ChurnEngine(8, 4, arrivals={9: 3})

    def test_rejects_bad_ticks(self):
        with pytest.raises(ConfigError):
            ChurnEngine(8, 4, arrivals={1: 0})

    def test_rejects_depart_before_arrival(self):
        with pytest.raises(ConfigError):
            ChurnEngine(8, 4, arrivals={1: 5}, departures={1: 5})


class TestChurnEdgeCases:
    """Regression tests for the churn table's corner cases: each is
    either refused with a clear ConfigError or has one documented
    behavior (see the ChurnEngine docstring)."""

    def test_tick_zero_arrival_refused(self):
        # Tick 0 is the initial state: a client "arriving" there is
        # really an initial-cohort member and the table must say so.
        with pytest.raises(ConfigError, match="1-based"):
            ChurnEngine(8, 4, arrivals={2: 0})

    def test_tick_zero_departure_refused(self):
        with pytest.raises(ConfigError, match="1-based"):
            ChurnEngine(8, 4, departures={2: 0})

    def test_arrival_after_max_ticks_refused(self):
        # It could never join; the run would burn its whole tick budget
        # waiting for the goal to close.
        with pytest.raises(ConfigError, match="max_ticks"):
            ChurnEngine(8, 4, arrivals={2: 501}, max_ticks=500)

    def test_arrival_exactly_at_max_ticks_allowed(self):
        engine = ChurnEngine(8, 4, arrivals={2: 500}, max_ticks=500)
        assert engine.arrivals == {2: 500}

    def test_departure_after_max_ticks_never_happens(self):
        # Documented behavior: the run ends first, so the client simply
        # stays — and completes like everyone else.
        r = churn_run(8, 4, departures={2: 400}, rng=0, max_ticks=200)
        assert r.completed
        assert 2 in r.client_completions

    def test_depart_same_tick_as_arrival_refused(self):
        with pytest.raises(ConfigError, match="before or at"):
            ChurnEngine(8, 4, arrivals={2: 7}, departures={2: 7})

    def test_departure_without_arrival_leaves_initial_cohort(self):
        # Documented behavior: a client with no arrival entry is present
        # from tick 0, so its departure just removes an initial member.
        r = churn_run(8, 4, departures={2: 3}, rng=0)
        engine_departed = r.meta["departed"]
        assert 2 in engine_departed
        assert 2 not in r.client_completions


class TestArrivals:
    def test_late_arrival_completes(self):
        r = churn_run(16, 8, arrivals={3: 20}, rng=0)
        assert r.completed
        assert r.client_completions[3] > 20

    def test_no_transfers_to_absent_nodes(self):
        r = churn_run(16, 8, arrivals={3: 20}, rng=1)
        for t in r.log:
            assert t.dst != 3 or t.tick >= 20

    def test_flash_crowd_all_late(self):
        arrivals = {c: 5 + c for c in range(2, 12)}
        r = churn_run(16, 8, arrivals=arrivals, rng=2)
        assert r.completed
        verify_log(r.log, 16, 8)

    def test_arrival_on_explicit_overlay(self):
        g = random_regular_graph(24, 6, rng=0)
        r = churn_run(24, 8, arrivals={5: 15}, overlay=g, rng=3)
        assert r.completed
        for t in r.log:
            assert t.dst != 5 or t.tick >= 15


class TestDepartures:
    def test_departed_node_not_required_for_completion(self):
        r = churn_run(16, 16, departures={4: 3}, rng=4)
        assert r.completed
        assert 4 not in r.client_completions
        assert r.meta["final_holdings"][4] == 0

    def test_no_transfers_involving_departed(self):
        r = churn_run(16, 16, departures={4: 3}, rng=5)
        for t in r.log:
            if t.tick >= 3:
                assert 4 not in (t.src, t.dst)

    def test_departure_removes_copies_from_frequency(self):
        engine = ChurnEngine(8, 4, departures={2: 10}, rng=6)
        result = engine.run()
        assert result.completed
        # Final frequencies count only survivors (+ the server).
        for b in range(4):
            holders = sum(
                1 for v in range(8) if engine.kernel.state.masks[v] >> b & 1
            )
            assert engine.kernel.state.freq[b] == holders

    def test_mass_departure_still_completes(self):
        departures = {c: 6 for c in range(8, 16)}
        r = churn_run(16, 12, departures=departures, rng=7)
        assert r.completed
        assert len(r.client_completions) == 7  # clients 1..7


class TestChurnInteractions:
    def test_arrive_then_depart(self):
        r = churn_run(12, 6, arrivals={2: 4}, departures={2: 8}, rng=8)
        assert r.completed
        assert 2 not in r.client_completions

    def test_completion_waits_for_pending_arrivals(self):
        # Swarm of 3 clients where one arrives long after the others done.
        r = churn_run(4, 2, arrivals={3: 50}, rng=9)
        assert r.completed
        assert r.completion_time > 50

    def test_churn_under_credit_limit(self):
        g = random_regular_graph(32, 16, rng=1)
        r = churn_run(
            32,
            16,
            departures={5: 10, 6: 12},
            overlay=g,
            mechanism=CreditLimitedBarter(1),
            rng=10,
            max_ticks=2000,
        )
        # Either completes or aborts cleanly — never spins to max_ticks
        # on a provable deadlock.
        assert r.completed or r.meta["deadlocked"]

    def test_no_churn_matches_plain_engine(self):
        plain = randomized_cooperative_run(16, 8, rng=11)
        churned = churn_run(16, 8, rng=11)
        assert plain.completion_time == churned.completion_time
        assert list(plain.log) == list(churned.log)


class TestStallTickDepartures:
    """Regression: a departure at the start of a zero-transfer tick used
    to read as a deadlock even though it completed the run.

    Client 2 is unreachable (no overlay edges), so the first tick after
    client 1 finishes has zero attempts. If client 2's scheduled
    departure lands exactly on that tick, the run IS complete — the goal
    must be checked before the deadlock guard."""

    def _overlay(self):
        from repro.overlays.graph import ExplicitGraph

        return ExplicitGraph(3, edges=[(0, 1)])

    def test_departure_at_stall_tick_completes(self):
        # Client 1 completes at tick k=2 (it is the server's only
        # neighbor); tick 3 is the first zero-attempt tick.
        r = churn_run(3, 2, departures={2: 3}, overlay=self._overlay(), rng=0)
        assert r.completed
        assert not r.deadlocked
        assert r.abort is None
        assert 2 not in r.client_completions

    def test_departure_after_stall_tick_defers_the_verdict(self):
        # With the departure one tick later, the zero-attempt tick 3 must
        # not be called conclusive either: the scheduled departure will
        # shrink the goal, so the engine waits and completes at tick 4.
        r = churn_run(3, 2, departures={2: 4}, overlay=self._overlay(), rng=0)
        assert r.completed
        assert not r.deadlocked
        assert r.completion_time == 4
        assert 2 not in r.client_completions

    def test_unreachable_client_without_churn_deadlocks(self):
        r = churn_run(3, 2, overlay=self._overlay(), rng=0)
        assert not r.completed
        assert r.deadlocked

    def test_arrival_exactly_at_stall_tick_revives_the_swarm(self):
        # A client arriving on the very tick the swarm would otherwise
        # stall must be enrolled before the deadlock verdict: here client
        # 2 is server-reachable and arrives at tick 3 (the first
        # zero-attempt tick of the 2-client swarm), so the run completes.
        from repro.overlays.graph import ExplicitGraph

        g = ExplicitGraph(3, edges=[(0, 1), (0, 2)])
        r = churn_run(3, 2, arrivals={2: 3}, overlay=g, rng=0)
        assert r.completed
        assert not r.deadlocked
        assert r.client_completions[2] >= 3

    def test_pending_arrival_defers_the_verdict(self):
        # The same stalled swarm with an arrival still pending must not
        # call the stall conclusive; client 2's arrival (even though it
        # can never download) keeps the goal open until it happens.
        engine = ChurnEngine(
            3, 2, arrivals={2: 6}, overlay=self._overlay(), rng=0,
            max_ticks=50,
        )
        r = engine.run()
        assert not r.completed
        assert r.deadlocked
        # The verdict comes at-or-after the arrival tick, not during the
        # pre-arrival stall (ticks 3-5 are also zero-attempt).
        assert engine.kernel.tick >= 6
        assert r.log.last_tick <= 2  # no transfers ever reach client 2
