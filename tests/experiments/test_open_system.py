"""The open-system experiment: end-to-end smoke and the barter gap."""

from __future__ import annotations

import pytest

from repro.experiments.open_system import GRIDS, MECHANISMS, SCENARIOS
from repro.workloads import WorkloadSpec


@pytest.fixture(scope="module")
def result(scenario_ci):
    return scenario_ci("open-system")[0]


class TestOpenSystemSmoke:
    def test_covers_full_grid(self, result):
        assert len(result.rows) == len(MECHANISMS) * len(GRIDS["ci"].rates) * len(
            SCENARIOS
        )
        seen = {(r["mechanism"], r["scenario"]) for r in result.rows}
        assert seen == {(m, sc) for m in MECHANISMS for sc in SCENARIOS}

    def test_all_mechanisms_serve_clients(self, result):
        # Every mechanism x scenario cell must have completed sojourns
        # (tiny ci swarms finish well inside the tick budget).
        for row in result.rows:
            assert row["p50 soj"] is not None, row
            assert row["served"] is not None and row["served"] > 0, row

    def test_percentiles_are_ordered(self, result):
        for row in result.rows:
            assert row["p50 soj"] <= row["p95 soj"], row

    def test_flash_series_present_with_ci(self, result):
        # Swarm-size drain-out curves for the flash scenario, one per
        # mechanism, plus a CI column on every row.
        for mech in MECHANISMS:
            assert f"{mech} swarm" in result.series
        assert any(row["ci95"] is not None for row in result.rows)

    def test_renders(self, result):
        text = result.render(plot=False)
        assert "Open system" in text
        assert "strict" in text


class TestBarterGap:
    def test_flash_crowd_punishes_strict_barter(self, result):
        """The experiment's headline claim: under a flash crowd, strict
        barter's sojourn times are well above cooperative's (arrivals
        have nothing to trade), at the default seed and every rate."""
        by = {
            (r["mechanism"], r["rate"], r["scenario"]): r
            for r in result.rows
        }
        for rate in GRIDS["ci"].rates:
            strict = by[("strict", rate, "flash")]
            coop = by[("cooperative", rate, "flash")]
            assert strict["p50 soj"] > coop["p50 soj"], rate
            assert strict["p95 soj"] > coop["p95 soj"], rate

    def test_gap_noted(self, result):
        assert any("price of barter" in note for note in result.notes)


class TestFactorySpecs:
    def test_specs_are_deterministic_and_non_null(self):
        factory = GRIDS["ci"]
        for scenario in SCENARIOS:
            a = factory.spec_for(0.6, scenario)
            b = factory.spec_for(0.6, scenario)
            assert a == b
            assert isinstance(a, WorkloadSpec)
            assert not a.is_null

    def test_scenarios_differ(self):
        factory = GRIDS["ci"]
        specs = {factory.spec_for(0.6, sc) for sc in SCENARIOS}
        assert len(specs) == len(SCENARIOS)

    def test_unknown_scenario_refused(self):
        factory = GRIDS["ci"]
        with pytest.raises(ValueError):
            factory.spec_for(0.6, "weekend")
        with pytest.raises(ValueError):
            factory(("gift-economy", 0.6, "flash"), 1)
