"""Compiler determinism: same spec + seed => byte-identical timelines."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError
from repro.workloads import (
    AvailabilityProfile,
    FlashCrowd,
    WorkloadSpec,
    child_seed,
    compile_workload,
)


class TestValidation:
    def test_rejects_tiny_swarm(self):
        with pytest.raises(ConfigError):
            compile_workload(WorkloadSpec(), 1, seed=0, horizon=10)

    def test_rejects_zero_horizon(self):
        with pytest.raises(ConfigError):
            compile_workload(WorkloadSpec(), 4, seed=0, horizon=0)

    @pytest.mark.parametrize(
        "spec, match",
        [
            (WorkloadSpec(arrivals=((9, 3),)), "unknown client"),
            (WorkloadSpec(departures=((9, 3),)), "unknown client"),
            (WorkloadSpec(arrivals=((2, 11),)), "max_ticks"),
            (WorkloadSpec(arrivals=((2, 5),), departures=((2, 5),)), "before or at"),
            # Ids above the initial cohort belong to the generated arrivals.
            (WorkloadSpec(initial_fraction=0.5, arrivals=((6, 3),)), "arrival pool"),
            (WorkloadSpec(initial_fraction=0.5, departures=((6, 3),)), "never joins"),
            (
                WorkloadSpec(
                    initial_fraction=0.5, arrival_trace=((4, 1),), departures=((5, 4),)
                ),
                "before or at",
            ),
        ],
    )
    def test_rejects_tables_the_run_cannot_honor(self, spec, match):
        with pytest.raises(ConfigError, match=match):
            compile_workload(spec, 8, seed=0, horizon=10)


class TestTables:
    def test_explicit_arrivals_lead_the_schedule_in_table_order(self):
        spec = WorkloadSpec(
            initial_fraction=0.5,
            arrival_trace=((2, 2),),
            arrivals=((3, 4), (1, 2)),
            departures=((2, 6), (5, 3)),
        )
        compiled = compile_workload(spec, 9, seed=1, horizon=20)
        assert compiled.arrivals == ((3, 4), (1, 2), (5, 2), (6, 2))
        assert compiled.departures == ((2, 6), (5, 3))

    def test_availability_windows_clip_to_an_explicit_join(self):
        spec = WorkloadSpec(
            arrivals=((2, 10),),
            availability=(AvailabilityProfile("nap", 1.0, 4, 0.5),),
        )
        compiled = compile_workload(spec, 4, seed=3, horizon=40)
        windows = dict(compiled.downtime)[2]
        assert windows and all(start > 10 for start, _ in windows)


class TestChildStreams:
    """Namespaced child seeds: pinned, platform-stable values.

    ``random.Random`` seeds strings via SHA-512, so these constants hold
    on every platform; a change here means every cached workload in
    existence silently re-rolls — bump deliberately.
    """

    def test_pinned_values(self):
        assert child_seed(7, "arrivals") == 7266920829199678545
        assert child_seed(7, "profiles") == 7033896731807345126
        assert child_seed(7, "avail", 3) == 39936244758941309

    def test_namespaces_are_independent(self):
        assert child_seed(7, "arrivals") != child_seed(7, "profiles")
        assert child_seed(7, "avail", 3) != child_seed(7, "avail", 4)
        assert child_seed(7, "arrivals") != child_seed(8, "arrivals")


SPEC = WorkloadSpec(initial_fraction=0.5, arrival_rate=0.4, arrival_stop=15)


class TestDeterminism:
    def test_same_inputs_byte_identical(self):
        a = compile_workload(SPEC, 12, seed=42, horizon=30)
        b = compile_workload(SPEC, 12, seed=42, horizon=30)
        assert a.to_json() == b.to_json()
        assert a == b

    def test_pinned_poisson_schedule(self):
        c = compile_workload(SPEC, 12, seed=42, horizon=30)
        assert c.initial == 6  # round(0.5 * 11)
        assert c.arrivals == ((7, 9), (8, 12), (9, 13), (10, 14))
        assert c.dropped_arrivals == 0

    def test_different_seed_different_schedule(self):
        a = compile_workload(SPEC, 12, seed=42, horizon=30)
        b = compile_workload(SPEC, 12, seed=43, horizon=30)
        assert a.arrivals != b.arrivals

    def test_availability_does_not_perturb_arrivals(self):
        # Profiles draw from their own child streams, so layering them
        # on must leave the arrival schedule untouched.
        layered = WorkloadSpec(
            initial_fraction=0.5,
            arrival_rate=0.4,
            arrival_stop=15,
            availability=(AvailabilityProfile("nap", 0.5, 8, 0.75),),
        )
        a = compile_workload(SPEC, 12, seed=42, horizon=30)
        b = compile_workload(layered, 12, seed=42, horizon=30)
        assert b.arrivals == a.arrivals

    def test_pinned_availability_assignment(self):
        layered = WorkloadSpec(
            initial_fraction=0.5,
            arrival_rate=0.4,
            arrival_stop=15,
            availability=(AvailabilityProfile("nap", 0.5, 8, 0.75),),
        )
        c = compile_workload(layered, 12, seed=42, horizon=30)
        assert c.profile_of == (
            (1, "nap"), (2, "nap"), (3, "nap"), (4, "nap"), (5, "nap"),
            (8, "nap"), (9, "nap"), (10, "nap"),
        )
        by_node = dict(c.downtime)
        # offline = round(8 * 0.25) = 2 ticks per cycle, phase-staggered.
        assert by_node[4] == ((3, 4), (11, 12), (19, 20), (27, 28))
        # Node 10 arrives at tick 14: its first window is clipped to
        # start strictly after the join.
        assert by_node[10][0] == (15, 15)


class TestArrivalPool:
    def test_trace_ids_assigned_chronologically(self):
        spec = WorkloadSpec(
            initial_fraction=0.5, arrival_trace=((9, 1), (3, 2))
        )
        c = compile_workload(spec, 10, seed=0, horizon=20)
        # Ids go to earlier ticks first regardless of trace order.
        assert c.arrivals == (
            (c.initial + 1, 3),
            (c.initial + 2, 3),
            (c.initial + 3, 9),
        )

    def test_overflow_arrivals_dropped_and_counted(self):
        spec = WorkloadSpec(initial_fraction=0.5, arrival_trace=((2, 50),))
        c = compile_workload(spec, 10, seed=0, horizon=20)
        pool = 9 - c.initial
        assert len(c.arrivals) == pool
        assert c.dropped_arrivals == 50 - pool

    def test_flash_crowd_spread_over_width(self):
        spec = WorkloadSpec(
            initial_fraction=0.0, flash_crowds=(FlashCrowd(5, 10, 4),)
        )
        c = compile_workload(spec, 20, seed=0, horizon=40)
        ticks = [t for _, t in c.arrivals]
        # divmod(10, 4): 3, 3, 2, 2 across ticks 5-8.
        assert ticks == [5, 5, 5, 6, 6, 6, 7, 7, 8, 8]

    def test_arrivals_past_horizon_discarded(self):
        spec = WorkloadSpec(
            initial_fraction=0.5, arrival_trace=((99, 3), (2, 1))
        )
        c = compile_workload(spec, 10, seed=0, horizon=20)
        assert [t for _, t in c.arrivals] == [2]
