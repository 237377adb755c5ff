"""The adversary experiment: ci-scale smoke of its grid and headline."""

from __future__ import annotations

import pytest

from repro.experiments.adversary import GRIDS, MECHANISMS

pytestmark = pytest.mark.adversary


@pytest.fixture(scope="module")
def result(scenario_ci):
    return scenario_ci("adversary")[0]


class TestAdversarySmoke:
    def test_rows_cover_mechanisms_by_fractions(self, result):
        cells = [(r["mechanism"], r["fraction"]) for r in result.rows]
        assert cells == [
            (mech, frac) for mech in MECHANISMS for frac in GRIDS["ci"].fractions
        ]

    def test_clean_rows_are_clean(self, result):
        # Fraction 0 is a null plan: every charged attempt is a real
        # delivery (no polluted or phantom transfers), nobody is banned
        # and there are no free-riders to compare against.
        clean = [r for r in result.rows if r["fraction"] == 0.0]
        assert len(clean) == len(MECHANISMS)
        for row in clean:
            assert row["goodput"] == 1.0, row
            assert row["isolate"] is None, row
            assert row["rider gap"] is None, row
            assert row["overhead"] is None, row

    def test_robustness_gap_noted(self, result):
        top = max(GRIDS["ci"].fractions)
        assert any(
            note.startswith(f"robustness gap at fraction {top}: strict barter")
            for note in result.notes
        )
