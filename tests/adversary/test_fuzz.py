"""Seeded fuzz smoke: random adversary plans against every engine.

Each case draws a random (but seeded — failures reproduce) AdversaryPlan
and drives an engine with it; whatever happens, the produced log must
re-verify under the model rules with the verifier's independent
blacklist replay. Mirrors ``tests/faults/test_fuzz.py``; selected via
``pytest -m adversary``.
"""

from __future__ import annotations

import random

import pytest

from repro.adversary import AdversaryPlan
from repro.core.verify import verify_log
from repro.sim.registry import run_engine

pytestmark = pytest.mark.adversary


def _random_plan(rng: random.Random, *, riders_only: bool = False) -> AdversaryPlan:
    pollution = 0.0 if riders_only else rng.choice([0.0, 0.3, 0.7])
    lies = 0.0 if riders_only else rng.choice([0.0, 0.4])
    active_from = rng.choice([1, 1, 4])
    return AdversaryPlan(
        free_riders=tuple(rng.sample(range(1, 8), rng.randint(0, 2))),
        free_rider_fraction=rng.choice([0.0, 0.15]),
        polluters=tuple(rng.sample(range(8, 12), 2)) if pollution else (),
        pollution_rate=pollution,
        liars=(7,) if lies else (),
        lie_rate=lies,
        active_from=active_from,
        active_until=rng.choice([None, active_from + 20]),
        strike_threshold=rng.choice([0, 2, 4]),
    )


def _verify_run(r, plan, n, k, *, slack=0):
    report = verify_log(
        r.log,
        n,
        k,
        require_completion=False,
        crash_events=r.meta.get("crash_events"),
        rejoin_events=r.meta.get("rejoin_events"),
        strike_threshold=plan.strike_threshold or None,
    )
    assert report.polluted_transfers == r.log.polluted_count
    assert report.phantom_transfers == r.log.phantom_count
    if r.completed:
        assert r.abort is None
    # Free-riders never upload inside the activation window, on any
    # stream (delivered, failed, polluted or phantom). ``slack`` covers
    # the async engine, which judges refusal at transfer *start* time
    # but stamps the row in the window the transfer ends in.
    riders = set(
        r.meta.get("adversary_realized", {}).get("free_riders", ())
    )
    if riders:
        until = plan.active_until
        for t in (*r.log, *r.log.failures, *r.log.polluted, *r.log.phantoms):
            if t.src in riders and t.tick >= plan.active_from + slack:
                assert until is not None and t.tick > until


@pytest.mark.parametrize("engine", ["randomized", "exchange", "bittorrent", "async"])
@pytest.mark.parametrize("seed", range(4))
def test_fuzz_full_support_engines(engine, seed):
    rng = random.Random(9000 + seed)
    plan = _random_plan(rng)
    if plan.is_null:
        plan = AdversaryPlan(free_riders=(2,))
    r = run_engine(engine, 12, 6, adversary=plan, rng=seed, max_ticks=2000)
    _verify_run(r, plan, 12, 6, slack=1 if engine == "async" else 0)


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_coding_riders(seed):
    rng = random.Random(9500 + seed)
    plan = _random_plan(rng, riders_only=True)
    if plan.is_null:
        plan = AdversaryPlan(free_riders=(2,))
    r = run_engine("coding", 12, 6, adversary=plan, rng=seed, max_ticks=2000)
    assert r.log.polluted_count == 0
    if r.completed:
        assert r.abort is None
