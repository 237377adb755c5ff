"""The heterogeneity experiment: end-to-end smoke and the tiered barter tax."""

from __future__ import annotations

import pytest

from repro.experiments.heterogeneity import (
    GRIDS,
    MECHANISMS,
    MIXES,
    POLICIES,
    mix_spec,
)
from repro.experiments.scale import resolve_scale, sweep_task_counts


@pytest.fixture(scope="module")
def result(scenario_ci):
    return scenario_ci("heterogeneity")[0]


class TestHeterogeneitySmoke:
    def test_covers_full_grid(self, result):
        g = GRIDS["ci"]
        cells = {(r["mechanism"], r["mix"], r["policy"]) for r in result.rows}
        expected = {
            (mech, mix, "equal") for mech in MECHANISMS for mix in g.mixes
        } | {
            (mech, mix, policy)
            for policy, mech in POLICIES.items()
            for mix in g.mixes
            if mix != "uniform"
        }
        assert cells == expected
        # Row count is pinned through the campaign task accounting.
        assert sweep_task_counts("ci")["heterogeneity"] == len(expected) * (
            resolve_scale("ci").replicates
        )

    def test_uniform_rows_have_single_default_tier(self, result):
        tiers = {
            r["tier"] for r in result.rows if r["mix"] == "uniform"
        }
        assert tiers == {"default"}

    def test_tiered_rows_cover_every_tier(self, result):
        for mix in GRIDS["ci"].mixes:
            if mix == "uniform":
                continue
            names = {name for name, *_ in MIXES[mix]}
            seen = {r["tier"] for r in result.rows if r["mix"] == mix}
            # Populations are sampled; at ci sizes every tier of the
            # named mixes should be drawn at least once in some replica.
            assert seen == names, mix

    def test_every_cell_completes_with_telemetry(self, result):
        for row in result.rows:
            assert row["p50 T"] is not None, row
            assert row["done"] and row["done"] > 0, row
            assert row["srv util"] is not None and row["srv util"] > 0, row

    def test_percentiles_are_ordered(self, result):
        for row in result.rows:
            assert row["p50 T"] <= row["p90 T"], row

    def test_ci_and_series_present(self, result):
        assert any(row["ci95"] is not None for row in result.rows)
        # Drain-rate curves for the headline mix, cooperative vs strict.
        assert any(key.startswith("cooperative/") for key in result.series)
        assert any(key.startswith("strict/") for key in result.series)

    def test_renders(self, result):
        text = result.render(plot=False)
        assert "Heterogeneity" in text
        assert "strict" in text


class TestTieredBarterTax:
    def test_strict_barter_taxes_the_slow_tier(self, result):
        """Headline: under the first non-uniform mix at equal service,
        strict barter's slow-tier p50 completion sits above
        cooperative's (slow nodes must pay in kind at a rate their own
        download starves)."""
        mix = next(m for m in GRIDS["ci"].mixes if m != "uniform")
        by = {
            (r["mechanism"], r["tier"]): r
            for r in result.rows
            if r["mix"] == mix and r["policy"] == "equal"
        }
        slow = next(name for name, *_ in MIXES[mix] if name == "dsl")
        assert by[("strict", slow)]["p50 T"] > by[("cooperative", slow)]["p50 T"]

    def test_tax_noted(self, result):
        assert any("price of barter" in note for note in result.notes)


class TestMixSpecs:
    def test_specs_are_deterministic(self):
        for name in MIXES:
            assert mix_spec(name) == mix_spec(name)
            assert repr(mix_spec(name)) == repr(mix_spec(name))

    def test_uniform_mix_is_null(self):
        assert mix_spec("uniform").is_null

    def test_base_variant_pins_uploads_to_one(self):
        for name in MIXES:
            assert all(t.upload == 1 for t in mix_spec(name).tiers)

    def test_upload_variant_differs_only_for_priority_tiers(self):
        spec = mix_spec("broadband", uploads=True)
        by_name = {t.name: t for t in spec.tiers}
        assert by_name["fast"].upload == 2
        assert by_name["dsl"].upload == 1

    def test_unknown_mix_refused(self):
        with pytest.raises(KeyError):
            mix_spec("satellite")
