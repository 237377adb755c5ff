"""Tests for the independent log verifier."""

from __future__ import annotations

import sys
import tracemalloc

import pytest

from repro.core import verify as verify_module
from repro.core.engine import execute_schedule
from repro.core.errors import ScheduleViolation
from repro.core.log import Transfer
from repro.core.mechanisms import CreditLimitedBarter, StrictBarter
from repro.core.model import BandwidthModel
from repro.core.verify import verify_log
from repro.overlays.paths import chain
from repro.schedules.hypercube import hypercube_schedule

from ..conftest import log_from


class TestVerifyBasics:
    def test_valid_log_passes(self):
        log = log_from(
            [(1, 0, 1, 0), (2, 0, 2, 1), (2, 1, 3, 0), (3, 0, 1, 1), (3, 2, 3, 1), (4, 1, 2, 0)]
        )
        report = verify_log(log, 4, 2)
        assert report.all_complete
        assert report.transfers == 6
        assert report.ticks == 4

    def test_efficiency_computed(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 2, 0), (2, 1, 3, 0)])
        report = verify_log(log, 4, 1)
        # 3 transfers over 2 ticks * 4 units of upload capacity.
        assert report.upload_efficiency == pytest.approx(3 / 8)

    def test_incomplete_raises_by_default(self):
        log = log_from([(1, 0, 1, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 3, 1)
        assert e.value.rule == "completion"

    def test_incomplete_allowed_when_disabled(self):
        log = log_from([(1, 0, 1, 0)])
        report = verify_log(log, 3, 1, require_completion=False)
        assert not report.all_complete


class TestVerifyRuleChecks:
    def test_causality(self):
        log = log_from([(1, 1, 2, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 3, 1, require_completion=False)
        assert e.value.rule == "causality"

    def test_same_tick_forwarding_rejected(self):
        log = log_from([(1, 0, 1, 0), (1, 1, 2, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 3, 1, require_completion=False)
        assert e.value.rule == "causality"

    def test_usefulness(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 1, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 2, 1, require_completion=False)
        assert e.value.rule == "usefulness"

    def test_duplicate_delivery_same_tick(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 3, 0), (4, 1, 4, 0), (4, 2, 4, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 5, 1, require_completion=False)
        assert e.value.rule == "usefulness"

    def test_redundant_tolerated_when_allowed(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 1, 0)])
        report = verify_log(log, 2, 1, allow_redundant=True)
        assert report.redundant_transfers == 1

    def test_upload_capacity(self):
        log = log_from([(1, 0, 1, 0), (1, 0, 2, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 3, 1, require_completion=False)
        assert e.value.rule == "upload-capacity"

    def test_server_upload_capacity(self):
        log = log_from([(1, 0, 1, 0), (1, 0, 2, 0)])
        report = verify_log(
            log, 3, 1, BandwidthModel(server_upload=2)
        )
        assert report.server_uploads == 2

    def test_download_capacity(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 1, 1)])
        verify_log(log, 2, 2)  # one per tick: fine
        bad = log_from([(1, 0, 1, 0), (2, 0, 2, 1), (2, 0, 2, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(
                bad, 3, 2, BandwidthModel(server_upload=2), require_completion=False
            )
        assert e.value.rule == "download-capacity"

    def test_self_transfer(self):
        log = log_from([(1, 1, 1, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 2, 1, require_completion=False)
        assert e.value.rule == "self-transfer"

    def test_node_range(self):
        log = log_from([(1, 0, 7, 0)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 3, 1, require_completion=False)
        assert e.value.rule == "node-range"

    def test_block_range(self):
        log = log_from([(1, 0, 1, 5)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 2, 2, require_completion=False)
        assert e.value.rule == "block-range"

    def test_overlay_confinement(self):
        log = log_from([(1, 0, 2, 0)])  # 0-2 is not a chain edge
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 3, 1, overlay=chain(3), require_completion=False)
        assert e.value.rule == "overlay"
        ok = log_from([(1, 0, 1, 0), (2, 1, 2, 0)])
        verify_log(ok, 3, 1, overlay=chain(3))


class TestVerifyHeterogeneous:
    """Per-node capacity charging against a realized tier model."""

    def _model(self):
        from repro.core.bandwidth import HeterogeneousModel

        # Client 1: u=2, d=4; client 2: u=1, d=1; client 3: u=1, d=2.
        return HeterogeneousModel(
            uploads=(1, 2, 1, 1),
            downloads=(1, 4, 1, 2),
            server_upload=2,
            tier_names=("fast", "dsl", "cable"),
            tier_of=(-1, 0, 1, 2),
        )

    def test_per_node_upload_capacity_honored(self):
        # Client 1 (u=2) uploads twice in tick 2: legal under its tier.
        log = log_from(
            [(1, 0, 1, 0), (1, 0, 1, 1), (2, 1, 2, 0), (2, 1, 3, 1)]
        )
        report = verify_log(
            log, 4, 2, self._model(), require_completion=False
        )
        assert report.transfers == 4

    def test_per_node_upload_violation_caught(self):
        # Client 2 (u=1) uploading twice in one tick must be rejected.
        log = log_from(
            [(1, 0, 2, 0), (2, 0, 2, 1), (3, 2, 1, 0), (3, 2, 3, 1)]
        )
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 4, 2, self._model(), require_completion=False)
        assert e.value.rule == "upload-capacity"
        assert "node 2" in str(e.value)

    def test_per_node_download_capacity_is_receiver_specific(self):
        # Two blocks land on client 1 (d=4) in one tick: fine.
        ok = log_from([(1, 0, 1, 0), (1, 0, 1, 1)])
        verify_log(ok, 4, 2, self._model(), require_completion=False)
        # The same burst on client 2 (d=1) breaches its own cap.
        bad = log_from([(1, 0, 2, 0), (1, 0, 2, 1)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(bad, 4, 2, self._model(), require_completion=False)
        assert e.value.rule == "download-capacity"
        assert "node 2" in str(e.value)

    def test_engine_run_verifies_under_tiers(self):
        from repro.core.bandwidth import BandwidthClasses, BandwidthTier
        from repro.randomized.engine import RandomizedEngine

        spec = BandwidthClasses(
            tiers=(
                BandwidthTier("fast", 0.3, upload=2, download=4),
                BandwidthTier("dsl", 0.7, upload=1, download=1),
            )
        )
        eng = RandomizedEngine(20, 8, rng=5, bandwidth=spec)
        result = eng.run()
        report = verify_log(
            eng.kernel.log, 20, 8, model=eng.kernel.model
        )
        assert report.all_complete
        assert result.completed


class TestVerifyMechanisms:
    def test_strict_barter_pass_and_fail(self):
        # Seed both clients, then have them exchange.
        good = log_from([(1, 0, 1, 0), (2, 0, 2, 1), (3, 1, 2, 0), (3, 2, 1, 1)])
        report = verify_log(good, 3, 2, mechanism=StrictBarter())
        assert report.all_complete
        bad = log_from([(1, 0, 1, 0), (2, 0, 2, 1), (3, 1, 2, 0), (4, 2, 1, 1)])
        with pytest.raises(ScheduleViolation) as e:
            verify_log(bad, 3, 2, mechanism=StrictBarter())
        assert e.value.rule == "strict-barter"

    def test_server_transfers_exempt_from_barter(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 2, 0)])
        verify_log(log, 3, 1, mechanism=StrictBarter())

    def test_credit_limit_checked(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 1, 1), (2, 1, 2, 0), (3, 1, 2, 1)])
        verify_log(log, 3, 2, BandwidthModel.double_download(), CreditLimitedBarter(2))
        with pytest.raises(ScheduleViolation):
            verify_log(
                log, 3, 2, BandwidthModel.double_download(), CreditLimitedBarter(1)
            )

    def test_mechanism_reset_between_calls(self):
        log = log_from([(1, 0, 1, 0), (2, 1, 2, 0), (3, 0, 2, 1), (4, 2, 1, 1)])
        mech = CreditLimitedBarter(1)
        verify_log(log, 3, 2, BandwidthModel.double_download(), mech)
        # Re-verifying with the same mechanism instance must not accumulate.
        verify_log(log, 3, 2, BandwidthModel.double_download(), mech)


class TestVerifyStreaming:
    def test_interleaved_streams_replay_in_tick_order(self):
        # Streams active at disjoint and shared ticks merge into one
        # tick-ordered replay: the failure at tick 2 consumes node 0's
        # upload slot, so the tick-2 delivery from node 0 breaches it.
        log = log_from([(1, 0, 1, 0), (2, 0, 2, 0)])
        log.record_failure(2, 0, 3, 0)
        with pytest.raises(ScheduleViolation) as e:
            verify_log(log, 4, 1, require_completion=False)
        assert (e.value.rule, e.value.tick) == ("upload-capacity", 2)
        log = log_from([(1, 0, 1, 0), (3, 0, 2, 0)])
        log.record_failure(2, 0, 3, 0)
        log.record_phantom(4, 1, 3, 0)
        report = verify_log(log, 4, 1, require_completion=False)
        assert (report.busy_ticks, report.ticks) == (4, 4)
        assert report.peak_downloads_per_tick == 1

    def test_replay_never_materialises_the_whole_log(self):
        # verify_log walks the log one tick at a time: its peak traced
        # allocation stays far below what every row as a Transfer costs.
        n, k = 256, 64
        log = execute_schedule(hypercube_schedule(n, k)).log
        tracemalloc.start()
        try:
            verify_log(log, n, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        row_bytes = sys.getsizeof(Transfer(1, 2, 3, 4))
        assert peak < len(log) * row_bytes / 4


def verify_both(log, n, k, model=None, mechanism=None, **options):
    """``verify_log`` checked against the scalar replay on one log.

    Both must raise the same violation (rule, tick and message) or
    return equal reports; where the arguments admit the whole-array
    proof, it must accept exactly when the replay does, with an equal
    report. Raises or returns what the replay does.
    """
    args = (log, n, k, model, mechanism)
    proof = None
    provable = verify_module._provable(
        mechanism or verify_module.Cooperative(),
        options.get("overlay"),
        options.get("crash_events"),
        options.get("rejoin_events"),
        options.get("strike_threshold"),
    )
    if provable:
        proof = verify_module._prove(
            log,
            n,
            k,
            model or BandwidthModel.symmetric(),
            strict=type(mechanism) is StrictBarter,
            require_completion=options.get("require_completion", True),
            allow_redundant=options.get("allow_redundant", False),
        )
    try:
        expected = verify_module._replay(*args, **options)
    except ScheduleViolation as err:
        assert proof is None, f"the proof accepted a log the replay rejects: {err}"
        with pytest.raises(ScheduleViolation) as got:
            verify_module.verify_log(*args, **options)
        assert (got.value.rule, got.value.tick, str(got.value)) == (
            err.rule,
            err.tick,
            str(err),
        )
        raise
    assert verify_module.verify_log(*args, **options) == expected
    if provable:
        assert proof == expected, "the proof rejected a log the replay accepts"
    return expected


@pytest.fixture
def differential(monkeypatch):
    """Route this module's ``verify_log`` calls through :func:`verify_both`."""
    monkeypatch.setattr(sys.modules[__name__], "verify_log", verify_both)


# The rule, tier, mechanism and streaming cases again, each run on both
# verification paths: the public ``verify_log`` (whole-array proof with
# scalar fallback) and the scalar replay.


@pytest.mark.usefixtures("differential")
class TestRuleChecksBothPaths(TestVerifyRuleChecks):
    pass


@pytest.mark.usefixtures("differential")
class TestHeterogeneousBothPaths(TestVerifyHeterogeneous):
    pass


@pytest.mark.usefixtures("differential")
class TestMechanismsBothPaths(TestVerifyMechanisms):
    pass


@pytest.mark.usefixtures("differential")
class TestStreamingBothPaths(TestVerifyStreaming):
    pass
