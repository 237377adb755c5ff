"""Tests for the vector-level coding verifier's capacity checks."""

from __future__ import annotations

import pytest

from repro.coding.verify import verify_coding_log
from repro.core.errors import ScheduleViolation
from repro.experiments.heterogeneity import mix_spec
from repro.sim.registry import create_engine


def _tiered_run():
    engine = create_engine(
        "coding", 64, 32, rng=3, keep_log=True, bandwidth=mix_spec("broadband")
    )
    return engine, engine.run()


def test_heterogeneous_downloads_checked_per_node():
    # Faster tiers legitimately download several vectors per tick; the
    # check must use each node's own capacity, not the tightest tier.
    engine, result = _tiered_run()
    summary = verify_coding_log(result, 64, 32, model=engine.kernel.model)
    assert summary["transfers"] == len(result.log)


def test_download_capacity_still_enforced():
    # The same run judged against the uniform one-download model breaks it.
    _, result = _tiered_run()
    with pytest.raises(ScheduleViolation) as excinfo:
        verify_coding_log(result, 64, 32)
    assert excinfo.value.rule == "download-capacity"
