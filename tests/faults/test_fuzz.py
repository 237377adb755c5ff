"""Seeded fuzz smoke: random fault plans against every engine.

Each case draws a random (but seeded — failures reproduce) FaultPlan and
drives an engine with it; whatever happens, the produced log must
re-verify under the model rules with the run's own crash/rejoin events.
All six registry engines are covered, including the three graduates
(bittorrent, coding, async) across ``rejoin_retention`` in {0, 0.5, 1}.
Selected via ``pytest -m faults``.
"""

from __future__ import annotations

import random

import pytest

from repro.coding import network_coding_run, verify_coding_log
from repro.core.engine import execute_schedule
from repro.core.verify import verify_log
from repro.faults import FaultPlan
from repro.randomized.barter import randomized_barter_run
from repro.randomized.bittorrent import bittorrent_run
from repro.randomized.cooperative import randomized_cooperative_run
from repro.randomized.exchange import randomized_exchange_run
from repro.schedules.simple import pipeline_schedule
from repro.sim.registry import run_engine

pytestmark = pytest.mark.faults

RETENTIONS = (0.0, 0.5, 1.0)


def _random_plan(
    rng: random.Random, retention: float | None = None
) -> FaultPlan:
    return FaultPlan(
        loss_rate=rng.choice([0.0, 0.05, 0.2, 0.5]),
        outage_rate=rng.choice([0.0, 0.0, 0.02]),
        outage_duration=rng.randint(1, 6),
        crash_rate=rng.choice([0.0, 0.0, 0.01, 0.05]),
        rejoin_delay=rng.choice([0, 2, 5]),
        rejoin_retention=(
            retention
            if retention is not None
            else rng.choice([0.0, 0.25, 0.75, 1.0])
        ),
        server_outages=rng.choice([(), ((3, 6),), ((2, 4), (9, 12))]),
        max_crashes=rng.choice([None, 2, 6]),
    )


def _random_crash_plan(
    rng: random.Random, retention: float
) -> FaultPlan:
    """Like :func:`_random_plan` but guaranteed to arm the crash axis."""
    return FaultPlan(
        loss_rate=rng.choice([0.0, 0.05, 0.2]),
        crash_rate=rng.choice([0.01, 0.03, 0.05]),
        rejoin_delay=rng.choice([0, 2, 5]),
        rejoin_retention=retention,
        max_crashes=rng.choice([None, 6]),
    )


def _verify_run(r, n, k, **kwargs):
    report = verify_log(
        r.log,
        n,
        k,
        require_completion=False,
        crash_events=r.meta.get("crash_events"),
        rejoin_events=r.meta.get("rejoin_events"),
        **kwargs,
    )
    assert report.failed_transfers == r.log.failed_count
    if r.completed:
        assert r.abort is None


@pytest.mark.parametrize("seed", range(12))
def test_fuzz_randomized(seed):
    rng = random.Random(1000 + seed)
    plan = _random_plan(rng)
    r = randomized_cooperative_run(
        14, 7, rng=seed, faults=plan, max_ticks=800
    )
    _verify_run(r, 14, 7)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_barter(seed):
    rng = random.Random(2000 + seed)
    plan = _random_plan(rng)
    r = randomized_barter_run(
        12, 6, credit_limit=2, rng=seed, faults=plan, max_ticks=800
    )
    _verify_run(r, 12, 6)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_exchange(seed):
    rng = random.Random(3000 + seed)
    plan = _random_plan(rng)
    r = randomized_exchange_run(12, 6, rng=seed, faults=plan, max_ticks=800)
    _verify_run(r, 12, 6)


@pytest.mark.parametrize("retention", RETENTIONS)
@pytest.mark.parametrize("seed", range(4))
def test_fuzz_bittorrent(seed, retention):
    rng = random.Random(5000 + seed)
    plan = _random_crash_plan(rng, retention)
    r = bittorrent_run(14, 6, rng=seed, faults=plan, max_ticks=3000)
    _verify_run(r, 14, 6)


@pytest.mark.parametrize("retention", RETENTIONS)
@pytest.mark.parametrize("seed", range(4))
def test_fuzz_coding(seed, retention):
    rng = random.Random(6000 + seed)
    plan = _random_crash_plan(rng, retention)
    r = network_coding_run(14, 6, rng=seed, faults=plan, max_ticks=3000)
    report = verify_coding_log(r, 14, 6, require_completion=False)
    assert report["failed_transfers"] == r.log.failed_count
    if r.completed:
        assert r.abort is None


@pytest.mark.parametrize("retention", RETENTIONS)
@pytest.mark.parametrize("seed", range(4))
def test_fuzz_async(seed, retention):
    rng = random.Random(7000 + seed)
    plan = _random_crash_plan(rng, retention)
    r = run_engine(
        "async", 14, 6, rng=seed, faults=plan, max_ticks=3000
    )
    _verify_run(r, 14, 6)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_replay(seed):
    rng = random.Random(4000 + seed)
    plan = FaultPlan(
        loss_rate=rng.choice([0.0, 0.1, 0.4]),
        outage_rate=rng.choice([0.0, 0.05]),
        outage_duration=rng.randint(1, 4),
        server_outages=rng.choice([(), ((1, 3),)]),
    )
    schedule = pipeline_schedule(10, 5)
    r = execute_schedule(schedule, faults=plan, rng=seed)
    report = verify_log(r.log, 10, 5, require_completion=False)
    assert report.failed_transfers == r.log.failed_count
