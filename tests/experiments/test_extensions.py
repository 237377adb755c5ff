"""CI-scale tests for the extension experiments."""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.extensions import (
    extension_asynchrony,
    extension_bittorrent,
    extension_coding,
    extension_embedding,
    extension_freerider,
    extension_incentives,
    extension_multiserver,
    extension_triangular,
)
from repro.experiments.scale import resolve_scale

pytestmark = pytest.mark.slow


class TestMultiServerExperiment:
    def test_monotone_and_predicted(self):
        result = extension_multiserver(scale="ci")
        ts = [row["T"] for row in result.rows]
        assert ts == sorted(ts, reverse=True)
        for row in result.rows:
            assert row["T"] == row["predicted"]


class TestAsynchronyExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return extension_asynchrony(scale="ci")

    def test_homogeneous_hypercube_is_optimal(self, result):
        row = next(
            r
            for r in result.rows
            if r["strategy"] == "hypercube round-robin" and r["rate spread"] == "±0%"
        )
        assert row["T/opt"] == pytest.approx(1.0, abs=0.02)

    def test_heterogeneity_hurts_hypercube_more(self, result):
        def ratio(strategy, spread):
            return next(
                r["T/opt"]
                for r in result.rows
                if r["strategy"] == strategy and r["rate spread"] == spread
            )

        assert ratio("hypercube round-robin", "±40%") > ratio(
            "hypercube round-robin", "±0%"
        )
        # The randomized strategy is the robust one at high spread.
        assert ratio("randomized", "±40%") <= ratio("hypercube round-robin", "±40%") * 1.2


class TestBitTorrentExperiment:
    def test_all_bt_configs_worse_than_optimal(self):
        result = extension_bittorrent(scale="ci")
        for row in result.rows:
            if str(row["algorithm"]).startswith("BT") and row["mean T"]:
                assert row["T/opt"] > 1.3  # the paper's ">30% worse"

    def test_randomized_beats_bt(self):
        result = extension_bittorrent(scale="ci")
        bt = min(
            row["T/opt"]
            for row in result.rows
            if str(row["algorithm"]).startswith("BT") and row["T/opt"]
        )
        rand = next(
            row["T/opt"] for row in result.rows if row["algorithm"] == "randomized (paper)"
        )
        assert rand < bt


class TestFreeRiderExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return extension_freerider(scale="ci")

    def _row(self, result, name):
        return next(r for r in result.rows if r["mechanism"] == name)

    def test_cooperative_feeds_free_riders(self, result):
        row = self._row(result, "cooperative")
        assert row["mean blocks obtained"] == row["of k"]

    def test_credit_limit_starves_free_riders(self, result):
        k = result.rows[0]["of k"]
        s1 = self._row(result, "credit-limited s=1")
        s3 = self._row(result, "credit-limited s=3")
        assert s1["mean blocks obtained"] < k
        # More credit, more leeched — but still capped by s * degree.
        assert s1["mean blocks obtained"] <= s3["mean blocks obtained"]

    def test_bittorrent_feeds_free_riders(self, result):
        row = self._row(result, "bittorrent tit-for-tat")
        assert row["mean blocks obtained"] >= 0.9 * row["of k"]


class TestChurnExperiment:
    def test_static_is_fastest_and_all_complete(self):
        from repro.experiments.extensions import extension_churn

        result = extension_churn(scale="ci")
        static = next(r for r in result.rows if r["pattern"] == "static")
        assert static["mean T"] is not None
        for row in result.rows:
            assert row["mean T"] is not None
            assert row["mean T"] >= static["mean T"] * 0.95


class TestEmbeddingExperiment:
    def test_optimizer_always_saves(self):
        result = extension_embedding(scale="ci")
        for row in result.rows:
            assert row["optimized"] <= row["base cost"]
            assert 0 <= row["saved"] < 1
        uniform_saved = [r["saved"] for r in result.rows if r["topology"] == "uniform"]
        assert max(uniform_saved) > 0.15


class TestRowShapes:
    """Every mode of the remaining extensions reports a row. Triangular
    and incentives run a shrunken Figure 6-7 grid; their engines have
    their own suites (tests/randomized, tests/incentives)."""

    @pytest.fixture(scope="class")
    def tiny(self):
        return dataclasses.replace(
            resolve_scale("ci"),
            name="tiny",
            replicates=1,
            fig67_n=24,
            fig67_k=12,
            fig67_degrees=(4, 8),
            fig67_max_ticks=400,
        )

    def test_coding_reports_both_fields(self):
        result = extension_coding(scale="ci")
        modes = {row["mode"] for row in result.rows}
        assert "coding GF(2)" in modes and "coding ideal" in modes

    def test_triangular_reports_every_mode(self, tiny):
        result = extension_triangular(scale=tiny)
        assert {row["mode"] for row in result.rows} == {
            "exchange + credit",
            "cycles + credit",
            "one-way credit (fig 6)",
        }

    def test_incentives_reports_every_mechanism(self, tiny):
        result = extension_incentives(scale=tiny)
        assert {row["mechanism"] for row in result.rows} == {
            "cooperative",
            "credit-limited s=1",
            "bittorrent",
        }
