"""WorkloadSpec validation, null-normalization, and hashability."""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import ConfigError
from repro.workloads import AvailabilityProfile, FlashCrowd, WorkloadSpec


class TestFlashCrowd:
    def test_rejects_tick_zero(self):
        with pytest.raises(ConfigError):
            FlashCrowd(0, 5)

    def test_rejects_negative_count(self):
        with pytest.raises(ConfigError):
            FlashCrowd(3, -1)

    def test_rejects_zero_width(self):
        with pytest.raises(ConfigError):
            FlashCrowd(3, 5, width=0)


class TestAvailabilityProfile:
    def test_rejects_empty_name(self):
        with pytest.raises(ConfigError):
            AvailabilityProfile("", 0.5, 10, 0.8)

    def test_rejects_share_out_of_range(self):
        with pytest.raises(ConfigError):
            AvailabilityProfile("p", 0.0, 10, 0.8)
        with pytest.raises(ConfigError):
            AvailabilityProfile("p", 1.5, 10, 0.8)

    def test_rejects_tiny_period(self):
        with pytest.raises(ConfigError):
            AvailabilityProfile("p", 0.5, 1, 0.8)

    def test_rejects_uptime_out_of_range(self):
        with pytest.raises(ConfigError):
            AvailabilityProfile("p", 0.5, 10, 0.0)
        with pytest.raises(ConfigError):
            AvailabilityProfile("p", 0.5, 10, 1.1)


class TestWorkloadSpecValidation:
    def test_rejects_initial_fraction_out_of_range(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(initial_fraction=-0.1)
        with pytest.raises(ConfigError):
            WorkloadSpec(initial_fraction=1.1)

    def test_rejects_negative_rate(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(arrival_rate=-1.0)

    def test_rejects_tick_zero_start(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(arrival_start=0)

    def test_rejects_stop_before_start(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(arrival_rate=1.0, arrival_start=5, arrival_stop=4)

    def test_rejects_negative_holdover(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(seed_holdover=-1)

    def test_rejects_tick_zero_trace(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(arrival_trace=((0, 3),))

    def test_rejects_negative_trace_count(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(arrival_trace=((3, -1),))

    @pytest.mark.parametrize(
        "tables",
        [
            {"arrivals": ((0, 3),)},  # the server
            {"departures": ((-1, 3),)},  # not a client
            {"arrivals": ((2, 0),)},  # ticks are 1-based
            {"arrivals": ((2, 3), (2, 5))},  # listed twice
            {"departures": ((4, 3), (4, 6))},
        ],
    )
    def test_rejects_bad_tables(self, tables):
        with pytest.raises(ConfigError):
            WorkloadSpec(**tables)

    def test_tables_normalised_to_int_tuples(self):
        spec = WorkloadSpec(arrivals=[[2, 3]], departures=[(4.0, 6)])  # type: ignore[list-item]
        assert spec.arrivals == ((2, 3),)
        assert spec.departures == ((4, 6),)
        assert spec.describe() == {"arrivals": [[2, 3]], "departures": [[4, 6]]}

    def test_rejects_raw_tuples_for_crowds(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(flash_crowds=((5, 10),))  # type: ignore[arg-type]

    def test_rejects_duplicate_profile_names(self):
        p = AvailabilityProfile("p", 0.3, 10, 0.8)
        with pytest.raises(ConfigError):
            WorkloadSpec(availability=(p, p))

    def test_rejects_oversubscribed_shares(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(
                availability=(
                    AvailabilityProfile("a", 0.6, 10, 0.8),
                    AvailabilityProfile("b", 0.6, 10, 0.8),
                )
            )


class TestNullSpec:
    def test_default_spec_is_null(self):
        assert WorkloadSpec().is_null

    def test_each_axis_breaks_nullness(self):
        assert not WorkloadSpec(initial_fraction=0.5).is_null
        assert not WorkloadSpec(arrival_rate=0.5).is_null
        assert not WorkloadSpec(arrival_trace=((3, 1),)).is_null
        assert not WorkloadSpec(flash_crowds=(FlashCrowd(3, 5),)).is_null
        assert not WorkloadSpec(
            availability=(AvailabilityProfile("p", 0.5, 10, 0.8),)
        ).is_null
        assert not WorkloadSpec(depart_after_complete=True).is_null
        assert not WorkloadSpec(arrivals=((2, 3),)).is_null
        assert not WorkloadSpec(departures=((2, 3),)).is_null

    def test_only_the_tables_skip_the_seed_draw(self):
        tables = {"arrivals": ((2, 3),), "departures": ((4, 5),)}
        assert not WorkloadSpec(**tables).needs_rng
        assert WorkloadSpec(initial_fraction=0.5, **tables).needs_rng
        assert WorkloadSpec(depart_after_complete=True, **tables).needs_rng
        assert WorkloadSpec(arrival_trace=((3, 1),)).needs_rng

    def test_holdover_alone_stays_null(self):
        # seed_holdover only matters with depart_after_complete.
        assert WorkloadSpec(seed_holdover=5).is_null


class TestSpecAsFingerprint:
    """The spec must be usable inside frozen campaign factories."""

    def _spec(self):
        return WorkloadSpec(
            initial_fraction=0.25,
            arrival_rate=0.5,
            arrival_stop=30,
            arrival_trace=[(3, 2)],  # type: ignore[arg-type]  # list input
            flash_crowds=(FlashCrowd(8, 6, 2),),
            availability=(AvailabilityProfile("d", 0.5, 12, 0.75),),
            depart_after_complete=True,
            seed_holdover=4,
        )

    def test_hashable_and_equal(self):
        assert hash(self._spec()) == hash(self._spec())
        assert self._spec() == self._spec()

    def test_trace_normalised_to_tuples(self):
        assert self._spec().arrival_trace == ((3, 2),)

    def test_repr_round_trips(self):
        spec = self._spec()
        namespace = {
            "WorkloadSpec": WorkloadSpec,
            "FlashCrowd": FlashCrowd,
            "AvailabilityProfile": AvailabilityProfile,
        }
        assert eval(repr(spec), namespace) == spec

    def test_picklable(self):
        spec = self._spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_describe_lists_non_defaults_only(self):
        d = self._spec().describe()
        assert d["initial_fraction"] == 0.25
        assert d["arrival_trace"] == [[3, 2]]
        assert d["flash_crowds"] == [{"tick": 8, "count": 6, "width": 2}]
        assert d["availability"] == [
            {"name": "d", "share": 0.5, "period": 12, "uptime": 0.75}
        ]
        assert "arrival_start" not in d  # default
        assert WorkloadSpec().describe() == {}
