"""The scenario experiments' shared mechanism table and dispatch."""

from __future__ import annotations

import pytest

from repro.core.mechanisms import CreditLimitedBarter
from repro.experiments import mechanisms
from repro.experiments.mechanisms import MECHANISMS, run_mechanism


@pytest.fixture
def calls(monkeypatch):
    seen = []

    def fake_run_engine(name, n, k, **options):
        seen.append((name, n, k, options))

    monkeypatch.setattr(mechanisms, "run_engine", fake_run_engine)
    return seen


class TestRunMechanism:
    def test_rows_map_to_registry_engines_in_row_order(self):
        assert list(MECHANISMS) == [
            "cooperative", "credit", "strict", "bittorrent", "coding", "async",
        ]
        assert MECHANISMS["strict"] == "exchange"

    def test_credit_arm_caps_at_the_given_credit(self, calls):
        run_mechanism("credit", 8, 4, 7, 3, max_ticks=50)
        [(name, n, k, options)] = calls
        assert (name, n, k) == ("randomized", 8, 4)
        assert options["rng"] == 7 and options["max_ticks"] == 50
        assert isinstance(options["mechanism"], CreditLimitedBarter)
        assert options["mechanism"].credit_limit == 3

    def test_options_mechanism_wins_on_the_credit_arm(self, calls):
        # Heterogeneity's paid policy brings its own tiered ledger.
        paid = CreditLimitedBarter(2, tier_multipliers={"fast": 3})
        run_mechanism("credit", 8, 4, 7, 2, mechanism=paid)
        assert calls[0][3]["mechanism"] is paid

    def test_other_arms_get_the_options_verbatim(self, calls):
        for name in MECHANISMS:
            if name != "credit":
                run_mechanism(name, 8, 4, 7, 2, keep_log=False)
        assert [c[0] for c in calls] == [
            "randomized", "exchange", "bittorrent", "coding", "async",
        ]
        assert all(c[3] == {"rng": 7, "keep_log": False} for c in calls)

    def test_unknown_mechanism_refused(self, calls):
        with pytest.raises(ValueError, match="gift-economy"):
            run_mechanism("gift-economy", 8, 4, 7, 2)
        assert not calls
