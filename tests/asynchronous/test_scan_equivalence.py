"""Differential tests of the async engine's destination search.

The filtered complete-graph scan: ``_AsyncRandomBase`` skips sources
whose blocks all lie in the policy's ``covered_mask`` and walks the
smaller of the free-downlink set and the pool. The reference subclasses
below keep the original per-receiver scan: every pool node in pool
order, gated by ``downlink_free`` and a bit-by-bit ``useful_mask`` built
from ``incoming``. Both must make the same decisions and RNG draws, so
the runs must produce identical transfer lists under every scenario
axis the async engine carries.

The narrowed retry rounds: after a finish, ``AsyncTickPolicy._retry_idle``
tries only the idle nodes that finish can wake. The reference forces a
full round after every finish; transfers, failures, completion and the
final RNG state must match, including across a checkpoint/resume, and a
try-count guard fails if the rounds slide back to full.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import AdversaryPlan
from repro.asynchronous import AsyncHypercube, AsyncRandom, AsyncRarest
from repro.asynchronous.policy import AsyncTickPolicy
from repro.core.model import SERVER
from repro.experiments.heterogeneity import mix_spec
from repro.faults.plan import FaultPlan
from repro.sim.registry import create_engine
from repro.workloads.spec import FlashCrowd, WorkloadSpec


def _reference_candidates(engine, src: int) -> list[tuple[int, int]]:
    masks = engine.masks
    candidates = []
    for dst in [v for v in engine.incomplete_nodes if v != src]:
        if dst == SERVER or not engine.downlink_free(dst):
            continue
        useful = masks[src] & ~masks[dst]
        for block in range(engine.k):
            if useful >> block & 1 and engine.incoming(dst, block):
                useful &= ~(1 << block)
        if useful:
            candidates.append((dst, useful))
    return candidates


class ReferenceRandom(AsyncRandom):
    def _candidates(self, engine, src):
        return _reference_candidates(engine, src)


class ReferenceRarest(AsyncRarest):
    def _candidates(self, engine, src):
        return _reference_candidates(engine, src)


SCENARIOS = {
    "crash-loss": dict(
        faults=FaultPlan(
            loss_rate=0.1,
            crash_rate=0.03,
            rejoin_delay=3,
            rejoin_retention=0.5,
            max_crashes=8,
        ),
    ),
    "flash-crowd-free-riders": dict(
        workload=WorkloadSpec(
            initial_fraction=0.4, flash_crowds=(FlashCrowd(2, 18, 3),)
        ),
        adversary=AdversaryPlan(free_rider_fraction=0.2),
    ),
    "tiers": dict(bandwidth=mix_spec("broadband")),
    "parallel-downloads": dict(
        parallel_downloads=2,
        upload_rates=[1.0 + 0.25 * (v % 3) for v in range(40)],
    ),
}


def _run(strategy, scenario: str, seed: int):
    engine = create_engine(
        "async", 40, 20, rng=seed, strategy=strategy, **SCENARIOS[scenario]
    )
    result = engine.run()
    policy = engine.policy
    return (
        [(t.tick, t.src, t.dst, t.block) for t in result.log],
        [(t.tick, t.src, t.dst, t.block) for t in result.log.failures],
        list(policy.transfers),
        list(policy.failed),
        result.completion_time,
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize(
    "fast, reference",
    [(AsyncRandom, ReferenceRandom), (AsyncRarest, ReferenceRarest)],
    ids=["random", "rarest"],
)
def test_filtered_scan_matches_reference(fast, reference, scenario, seed):
    expected = _run(reference(), scenario, seed)
    assert expected[0], "scenario delivered nothing"
    assert _run(fast(), scenario, seed) == expected


ROUND_SCENARIOS = {
    **SCENARIOS,
    "server-outage": dict(faults=FaultPlan(server_outages=((2, 5), (9, 14)))),
    "rider-window": dict(
        adversary=AdversaryPlan(free_rider_fraction=0.25, active_until=10)
    ),
}

STRATEGIES = {
    "random": AsyncRandom,
    "rarest": AsyncRarest,
    "hypercube": lambda: AsyncHypercube(40),
}


def _build(strategy: str, scenario: str, seed: int):
    return create_engine(
        "async",
        40,
        20,
        rng=seed,
        keep_log=True,
        strategy=STRATEGIES[strategy](),
        **ROUND_SCENARIOS[scenario],
    )


def _outcome(engine):
    result = engine.run()
    policy = engine.policy
    return (
        [(t.tick, t.src, t.dst, t.block) for t in result.log],
        [(t.tick, t.src, t.dst, t.block) for t in result.log.failures],
        list(policy.transfers),
        list(policy.failed),
        result.completion_time,
        engine.kernel.tick,
        engine.kernel.rng.getstate(),
    )


def _full_rounds(monkeypatch) -> None:
    """Reference: every retry round tries every idle node."""
    retry = AsyncTickPolicy._retry_idle
    monkeypatch.setattr(
        AsyncTickPolicy, "_retry_idle", lambda self, finished=None: retry(self)
    )


@pytest.mark.parametrize("scenario", sorted(ROUND_SCENARIOS))
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_narrowed_rounds_match_full_rounds(strategy, scenario, monkeypatch):
    with monkeypatch.context() as patch:
        _full_rounds(patch)
        expected = _outcome(_build(strategy, scenario, 3))
    assert expected[0], "scenario delivered nothing"
    assert _outcome(_build(strategy, scenario, 3)) == expected


@pytest.mark.parametrize("strategy", ["random", "rarest"])
def test_narrowed_rounds_resume_from_every_tick(strategy, monkeypatch):
    # The first-round flag is not checkpointed: a resumed run starts
    # with a full round and must still match the full-round reference.
    with monkeypatch.context() as patch:
        _full_rounds(patch)
        expected = _outcome(_build(strategy, "crash-loss", 4))
    payloads: dict[int, dict] = {}
    engine = _build(strategy, "crash-loss", 4)
    engine.kernel.arm_checkpoints(1, sink=lambda p: payloads.setdefault(p["tick"], p))
    assert _outcome(engine) == expected
    assert len(payloads) > 10
    for tick, payload in sorted(payloads.items()):
        resumed = _build(strategy, "crash-loss", 4)
        resumed.kernel.restore_checkpoint(json.loads(json.dumps(payload)))
        assert _outcome(resumed) == expected, f"resume from tick {tick} diverged"


def test_retry_rounds_stay_narrow(monkeypatch):
    # Trying every idle node after every finish makes 214,693 tries for
    # these 8,128 finishes; narrowed rounds make 16,602 (about 2 per
    # finish). A slide back to full rounds fails here, not only in the
    # benchmark.
    tries = 0
    try_start = AsyncTickPolicy._try_start

    def counting(self, src):
        nonlocal tries
        tries += 1
        return try_start(self, src)

    monkeypatch.setattr(AsyncTickPolicy, "_try_start", counting)
    engine = create_engine("async", 128, 64, rng=7)
    assert engine.run().completed
    finishes = len(engine.policy.transfers) + len(engine.policy.failed)
    assert finishes == 127 * 64
    assert tries <= 3 * finishes
