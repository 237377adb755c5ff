"""CI-scale smoke and shape tests for every figure runner.

These run each reproduction experiment end-to-end at the tiny ``ci``
scale and assert the paper's *qualitative* claims hold: linearity in k,
slow growth in n, degree thresholds, and the rarest-first advantage.
"""

from __future__ import annotations

import pytest

from repro.experiments.figures import (
    completion_fit,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
)

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def fig3():
    return figure3(scale="ci")


@pytest.fixture(scope="module")
def fig4():
    return figure4(scale="ci")


@pytest.fixture(scope="module")
def fig6():
    return figure6(scale="ci")


@pytest.fixture(scope="module")
def fig7():
    return figure7(scale="ci")


class TestFigure3:
    def test_all_points_complete(self, fig3):
        assert all(row["timeouts"] == 0 for row in fig3.rows)

    def test_growth_in_n_is_slow(self, fig3):
        # Paper: T grows ~linearly in log n, staying near k. Doubling n
        # several times should cost far less than doubling k would.
        ts = [row["mean T"] for row in fig3.rows]
        assert ts[-1] < 2.0 * ts[0]

    def test_near_optimal(self, fig3):
        assert all(row["T/opt"] < 2.2 for row in fig3.rows)

    def test_render_includes_plot(self, fig3):
        out = fig3.render()
        assert "Figure 3" in out and "log x" in out


class TestFigure4:
    def test_linear_in_k(self, fig4):
        rows = fig4.rows
        # T/k should be roughly constant across a 16x range of k
        ratios = [row["T/k"] for row in rows]
        assert max(ratios) < 3.0 * min(ratios)

    def test_monotone_in_k(self, fig4):
        ts = [row["mean T"] for row in fig4.rows]
        assert ts == sorted(ts)


class TestCompletionFit:
    def test_fit_coefficients_shape(self):
        result = completion_fit(scale="ci")
        fit = result.fit
        assert fit is not None
        # Paper: slope on k near 1 (allowing small-scale fuzz), positive
        # log-n coefficient, decent fit quality.
        assert 0.9 < fit.a < 1.8
        assert fit.b > 0
        assert fit.r_squared > 0.97


class TestFigure5:
    def test_degree_effect_and_convergence(self):
        result = figure5(scale="ci")
        assert result.series
        for k_label in {row["k"] for row in result.rows}:
            numeric = [
                row
                for row in result.rows
                if row["k"] == k_label and isinstance(row["degree"], int)
            ]
            ts = [row["mean T"] for row in numeric if row["mean T"]]
            # Steep drop: lowest degree clearly worse than highest (at
            # paper scale the gap is multiples; at ci scale it shrinks).
            assert ts[0] > 1.1 * ts[-1]
            # Convergence: last two degrees within a few percent.
            assert abs(ts[-1] - ts[-2]) < 0.12 * ts[-1]


class TestFigures6And7:
    @staticmethod
    def _s1_rows(result):
        return [r for r in result.rows if r["curve"] == "s=1"]

    def test_fig6_low_degree_fails_high_degree_works(self, fig6):
        rows = self._s1_rows(fig6)
        assert rows[0]["timeouts"] > 0  # lowest degree: off the charts
        assert rows[-1]["timeouts"] == 0  # highest degree: converges

    def test_fig6_sd_product_does_not_rescue_low_degree(self, fig6):
        sd_rows = [r for r in fig6.rows if r["curve"] != "s=1"]
        assert sd_rows[0]["timeouts"] > 0

    def test_fig7_threshold_below_fig6(self, fig6, fig7):
        def threshold(result):
            for row in self._s1_rows(result):
                if row["timeouts"] == 0 and row["mean T"] is not None:
                    return row["degree"]
            return float("inf")

        assert threshold(fig7) <= threshold(fig6)

    def test_fig7_rarest_first_converges_where_random_fails(self, fig6, fig7):
        fails6 = {
            r["degree"] for r in self._s1_rows(fig6) if r["timeouts"] == 2
        }
        ok7 = {
            r["degree"]
            for r in self._s1_rows(fig7)
            if r["timeouts"] == 0 and r["mean T"] is not None
        }
        assert fails6 & ok7, "rarest-first should rescue some failing degree"
