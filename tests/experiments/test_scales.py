"""Tests for the scale presets and their campaign task accounting."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError
from repro.experiments.scale import SCALES, resolve_scale, sweep_task_counts


class TestPresets:
    def test_all_presets_present(self):
        assert set(SCALES) == {"full", "xl", "lite", "ci"}

    def test_xl_sits_between_lite_and_full(self):
        lite, xl, full = SCALES["lite"], SCALES["xl"], SCALES["full"]
        assert lite.fig3_k < xl.fig3_k <= full.fig3_k
        assert lite.fig67_n < xl.fig67_n <= full.fig67_n
        assert lite.replicates < xl.replicates <= full.replicates
        assert max(lite.fig4_ks) < max(xl.fig4_ks) <= max(full.fig4_ks)

    def test_resolve_by_name(self):
        assert resolve_scale("xl").name == "xl"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError):
            resolve_scale("gigantic")


class TestTaskCounts:
    """Pinned task counts: one task = one (experiment, point, replicate)
    simulation job as scheduled by the campaign executors. Edits to a
    preset must update these numbers deliberately."""

    def test_ci_task_counts(self):
        assert sweep_task_counts("ci") == {
            "fig3": 8,
            "fig4": 8,
            "fit": 18,
            "fig5": 36,
            "fig6": 28,
            "fig7": 28,
            "resilience": 72,
            "open-system": 72,
            "adversary": 24,
            "heterogeneity": 28,
        }

    def test_xl_task_counts(self):
        assert sweep_task_counts("xl") == {
            "fig3": 28,
            "fig4": 24,
            "fit": 64,
            "fig5": 96,
            "fig6": 72,
            "fig7": 72,
            "resilience": 288,
            "open-system": 288,
            "adversary": 96,
            "heterogeneity": 88,
        }

    def test_xl_offers_enough_parallel_width(self):
        # The xl preset exists for the parallel executor: every figure
        # must fan out over at least 16 workers' worth of tasks.
        assert all(count >= 16 for count in sweep_task_counts("xl").values())

    @pytest.mark.parametrize(
        "name", ["resilience", "open-system", "adversary", "heterogeneity"]
    )
    def test_count_matches_executed_runs(self, scenario_ci, name):
        _, executed = scenario_ci(name)
        assert executed == sweep_task_counts("ci")[name]
