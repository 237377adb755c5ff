"""Tests for resilience metrics and the resilience experiment."""

from __future__ import annotations

import pytest

from repro.analysis import (
    abort_breakdown,
    completion_probability,
    overhead_ratio,
    wasted_upload_fraction,
)
from repro.campaign import ParallelExecutor, configured
from repro.core.errors import ConfigError
from repro.core.log import RunResult, TransferLog
from repro.experiments.resilience import GRIDS, MECHANISMS, resilience
from repro.faults import FaultPlan
from repro.randomized.cooperative import randomized_cooperative_run

pytestmark = pytest.mark.faults


def _result(completed_at, *, failures=0, transfers=0, meta=None):
    log = TransferLog()
    for i in range(transfers):
        log.record(1, 0, 1 + i % 2, i % 2)
    for i in range(failures):
        log.record_failure(1, 0, 1, 0)
    return RunResult(
        n=4,
        k=2,
        completion_time=completed_at,
        client_completions={},
        log=log,
        meta=dict(meta or {}),
    )


class TestMetrics:
    def test_completion_probability(self):
        runs = [_result(10), _result(None), _result(12), _result(None)]
        assert completion_probability(runs) == 0.5
        with pytest.raises(ConfigError):
            completion_probability([])

    def test_overhead_ratio_against_float_baseline(self):
        runs = [_result(20), _result(40)]
        assert overhead_ratio(runs, 10.0) == 3.0

    def test_overhead_ratio_against_baseline_runs(self):
        runs = [_result(30)]
        baseline = [_result(10), _result(20)]
        assert overhead_ratio(runs, baseline) == 2.0

    def test_overhead_none_when_nothing_completed(self):
        assert overhead_ratio([_result(None)], 10.0) is None

    def test_wasted_upload_fraction_from_logs(self):
        runs = [_result(5, transfers=6, failures=2)]
        assert wasted_upload_fraction(runs) == 0.25

    def test_wasted_upload_fraction_from_meta_fallback(self):
        # Cache-served results carry empty logs; the metric falls back to
        # telemetry meta.
        runs = [
            _result(
                5,
                meta={
                    "failed_transfers": 3,
                    "uploads_per_tick": [4, 5],
                },
            )
        ]
        assert wasted_upload_fraction(runs) == 0.25

    def test_abort_breakdown(self):
        runs = [
            _result(5),
            _result(None, meta={"abort": "deadlock", "deadlocked": True}),
            _result(None, meta={"abort": "stall"}),
            _result(None),
        ]
        assert abort_breakdown(runs) == {
            "completed": 1,
            "deadlock": 1,
            "stall": 1,
            "max-ticks": 1,
        }


class TestResilienceExperiment:
    def test_ci_rows_and_headline_shape(self):
        result = resilience(scale="ci")
        g = GRIDS["ci"]
        expected_rows = (
            len(MECHANISMS) * len(g.loss_rates) * len(g.crash_rates)
        )
        assert len(result.rows) == expected_rows
        by_mech = {
            mech: [r for r in result.rows if r["mechanism"] == mech]
            for mech in MECHANISMS
        }
        # Every registry mechanism contributes rows for the full grid.
        assert set(by_mech) == set(MECHANISMS)
        for rows in by_mech.values():
            assert len(rows) == len(g.loss_rates) * len(g.crash_rates)
        # Fault-free baselines complete for every mechanism.
        for rows in by_mech.values():
            base = [r for r in rows if r["loss"] == 0 and r["crash"] == 0]
            assert base[0]["P(complete)"] == 1.0
            assert base[0]["overhead"] == 1.0
        # Headline: under sustained crashes strict barter's completion
        # probability falls below cooperative's, while credit-limited
        # stays at least as available as strict and close to cooperative.
        crash = max(g.crash_rates)

        def mean_p(mech):
            rows = [r for r in by_mech[mech] if r["crash"] == crash]
            return sum(r["P(complete)"] for r in rows) / len(rows)

        assert mean_p("strict") < mean_p("cooperative")
        assert mean_p("credit") >= mean_p("strict")
        assert mean_p("credit") >= mean_p("cooperative") - 0.35

    def test_loss_increases_wasted_fraction(self):
        result = resilience(scale="ci")
        for mech in ("cooperative", "credit", "strict"):
            rows = [
                r
                for r in result.rows
                if r["mechanism"] == mech and r["crash"] == 0
            ]
            rows.sort(key=lambda r: r["loss"])
            wasted = [r["wasted"] for r in rows]
            assert wasted == sorted(wasted)
            assert wasted[0] == 0.0 and wasted[-1] > 0.1

    def test_serial_and_parallel_agree(self):
        serial = resilience(scale="ci")
        with configured(executor=ParallelExecutor(jobs=2)):
            parallel = resilience(scale="ci")
        assert serial.rows == parallel.rows
        assert serial.series == parallel.series
