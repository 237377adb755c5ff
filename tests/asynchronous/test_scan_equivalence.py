"""Differential test: the filtered complete-graph scan of the randomized
async strategies against a reference that scans every receiver.

``_AsyncRandomBase`` skips sources whose blocks all lie in the policy's
``covered_mask`` and walks the smaller of the free-downlink set and the
pool. The reference subclasses below keep the original per-receiver
scan: every pool node in pool order, gated by ``downlink_free`` and a
bit-by-bit ``useful_mask`` built from ``incoming``. Both must make the
same decisions and RNG draws, so the runs must produce identical
transfer lists under every scenario axis the async engine carries.
"""

from __future__ import annotations

import pytest

from repro.adversary import AdversaryPlan
from repro.asynchronous import AsyncRandom, AsyncRarest
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
