"""Tests for the CLI runner."""

from __future__ import annotations

import json

import pytest

from repro.campaign import current_config
from repro.campaign.checkpointing import DEFAULT_INTERVAL
from repro.experiments import runner as runner_module
from repro.experiments.figures import FigureResult
from repro.experiments.runner import (
    DEFAULT_CHECKPOINT_DIR,
    EXPERIMENTS,
    main,
)


def stub_result(name: str) -> FigureResult:
    return FigureResult(
        name=name,
        title=f"stub {name}",
        scale="ci",
        columns=("x",),
        rows=[{"x": 1}],
        series={},
    )


class TestCli:
    def test_experiment_registry_complete(self):
        expected = {
            "fig1", "fig2",
            "fig3", "fig4", "fig5", "fig6", "fig7", "fit", "table", "price",
            "ablation-stride", "ablation-efficiency",
            "ablation-estimated-rarest", "ablation-rotation",
            "ext-multiserver", "ext-asynchrony", "ext-bittorrent",
            "ext-freerider", "ext-embedding", "ext-churn", "ext-triangular", "ext-coding", "ext-incentives",
            "resilience", "open-system", "adversary", "heterogeneity",
        }
        assert set(EXPERIMENTS) == expected

    @pytest.mark.slow
    def test_run_price_table(self, capsys):
        assert main(["price", "--scale", "ci", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "Price of barter" in out
        assert "finished in" in out

    @pytest.mark.slow
    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        assert main(["table", "--scale", "ci", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data[0]["name"] == "Table A"
        assert data[0]["rows"]

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["price", "--scale", "gigantic"])

    def test_engines_table_reads_the_policy_classes(self, capsys):
        from repro.sim.registry import ENGINES

        assert main(["engines"]) == 0
        header, rule, *rows = capsys.readouterr().out.splitlines()
        assert header.split()[:3] == ["engine", "adversary", "bandwidth"]
        assert set(rule) == {"-"}
        assert [row.split()[0] for row in rows] == list(ENGINES)
        for row in rows:
            name, adversary, bandwidth = row.split()[:3]
            policy = ENGINES[name].policy_class
            assert (adversary, bandwidth) == (
                policy.adversary_support,
                policy.bandwidth_support,
            )


class TestSeedFlag:
    def test_seed_overrides_base_seed(self, monkeypatch, capsys):
        seen = {}

        def fake(scale=None, base_seed=3):
            seen["base_seed"] = base_seed
            return stub_result("fake")

        monkeypatch.setattr(runner_module, "EXPERIMENTS", {"fake": fake})
        assert main(["fake", "--seed", "99", "--no-plot"]) == 0
        assert seen["base_seed"] == 99

    def test_default_seed_untouched(self, monkeypatch, capsys):
        seen = {}

        def fake(scale=None, base_seed=3):
            seen["base_seed"] = base_seed
            return stub_result("fake")

        monkeypatch.setattr(runner_module, "EXPERIMENTS", {"fake": fake})
        assert main(["fake", "--no-plot"]) == 0
        assert seen["base_seed"] == 3

    def test_seed_skipped_for_seedless_experiments(self, monkeypatch, capsys):
        def seedless(scale=None):
            return stub_result("seedless")

        monkeypatch.setattr(runner_module, "EXPERIMENTS", {"seedless": seedless})
        assert main(["seedless", "--seed", "99", "--no-plot"]) == 0


class TestCheckpointFlags:
    def _spy(self, monkeypatch):
        seen = {}

        def fake(scale=None):
            seen["checkpoint"] = current_config().executor.checkpoint
            return stub_result("fake")

        monkeypatch.setattr(runner_module, "EXPERIMENTS", {"fake": fake})
        return seen

    def test_off_by_default(self, monkeypatch, capsys):
        seen = self._spy(monkeypatch)
        assert main(["fake", "--no-plot"]) == 0
        assert seen["checkpoint"] is None

    def test_interval_enables_default_directory(self, monkeypatch, capsys):
        seen = self._spy(monkeypatch)
        assert main(["fake", "--no-plot", "--checkpoint-interval", "25"]) == 0
        spec = seen["checkpoint"]
        assert spec.interval == 25
        assert spec.root == DEFAULT_CHECKPOINT_DIR

    def test_resume_run_implies_default_interval(
        self, monkeypatch, capsys, tmp_path
    ):
        seen = self._spy(monkeypatch)
        target = str(tmp_path / "ckpts")
        assert main(["fake", "--no-plot", "--resume-run", target]) == 0
        spec = seen["checkpoint"]
        assert spec.root == target
        assert spec.interval == DEFAULT_INTERVAL

    def test_both_flags_compose(self, monkeypatch, capsys, tmp_path):
        seen = self._spy(monkeypatch)
        target = str(tmp_path / "ckpts")
        assert (
            main(
                [
                    "fake", "--no-plot",
                    "--checkpoint-interval", "7",
                    "--resume-run", target,
                ]
            )
            == 0
        )
        assert seen["checkpoint"].root == target
        assert seen["checkpoint"].interval == 7

    def test_rejects_nonpositive_interval(self, capsys):
        with pytest.raises(SystemExit):
            main(["price", "--checkpoint-interval", "0"])


class TestRunAll:
    def test_all_keeps_going_after_failure(self, monkeypatch, capsys):
        ran = []

        def ok(name):
            def fn(scale=None):
                ran.append(name)
                return stub_result(name)

            return fn

        def boom(scale=None):
            ran.append("boom")
            raise RuntimeError("simulated explosion")

        monkeypatch.setattr(
            runner_module,
            "EXPERIMENTS",
            {"first": ok("first"), "boom": boom, "last": ok("last")},
        )
        assert main(["all", "--no-plot"]) == 1
        out = capsys.readouterr().out
        # The failure neither stops the run nor hides the summary.
        assert ran == ["first", "boom", "last"]
        assert "boom FAILED" in out
        assert "== summary ==" in out
        assert "2 passed, 1 failed" in out
        assert "RuntimeError: simulated explosion" in out

    def test_all_green_exits_zero(self, monkeypatch, capsys):
        def fn(scale=None):
            return stub_result("only")

        monkeypatch.setattr(runner_module, "EXPERIMENTS", {"only": fn})
        assert main(["all", "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "1 passed, 0 failed" in out

    def test_single_experiment_failure_still_raises(self, monkeypatch, capsys):
        def boom(scale=None):
            raise RuntimeError("simulated explosion")

        monkeypatch.setattr(runner_module, "EXPERIMENTS", {"boom": boom})
        with pytest.raises(RuntimeError):
            main(["boom"])
