"""Randomized triangular barter on the shared kernel: the scenario axes.

``TriangularTickPolicy`` carries the fault model and open-system
workloads like every kernel policy, and refuses what it cannot honor
(adversaries, bandwidth tiers) instead of ignoring it. The pinned
fault-free runs live in the golden suite (``tests/sim/golden/triangular*``).
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import AdversaryPlan
from repro.core.errors import ConfigError
from repro.core.mechanisms import TriangularBarter
from repro.core.verify import verify_log
from repro.experiments.heterogeneity import mix_spec
from repro.faults import FaultPlan
from repro.overlays.graph import CompleteGraph
from repro.overlays.random_regular import random_regular_graph
from repro.randomized.policies import RandomPolicy
from repro.randomized.triangular import TriangularTickPolicy, randomized_triangular_run
from repro.sim.kernel import TickKernel
from repro.workloads import WorkloadSpec

from ..sim.capture_golden import result_fingerprint

pytestmark = pytest.mark.faults

_CRASH_LOSS = FaultPlan(
    loss_rate=0.1,
    crash_rate=0.02,
    rejoin_delay=4,
    rejoin_retention=0.5,
    max_crashes=4,
)


def test_crash_and_loss_run_verifies() -> None:
    r = randomized_triangular_run(20, 8, rng=1, faults=_CRASH_LOSS)
    assert r.meta["crashes"] > 0 and r.meta["rejoins"] > 0
    assert r.log.failed_count > 0
    # Lost hops stay in the tick's cycles, so cycles still cancel and
    # every lost gift was charged against the credit line.
    verify_log(
        r.log,
        20,
        8,
        mechanism=TriangularBarter(1),
        require_completion=r.completed,
        crash_events=r.meta["crash_events"],
        rejoin_events=r.meta["rejoin_events"],
    )


def test_crash_and_loss_run_resumes_bit_identically() -> None:
    def build() -> TickKernel:
        policy = TriangularTickPolicy(CompleteGraph(20), RandomPolicy())
        return TickKernel(20, 8, policy, rng=1, faults=_CRASH_LOSS)

    payloads: dict[int, dict] = {}
    reference = build()
    reference.arm_checkpoints(7, sink=lambda p: payloads.setdefault(p["tick"], p))
    baseline = reference.run()
    assert payloads
    for payload in payloads.values():
        resumed = build()
        resumed.restore_checkpoint(json.loads(json.dumps(payload)))
        result = resumed.run()
        assert result_fingerprint(result) == result_fingerprint(baseline)
        assert result.meta == baseline.meta


def _sparse_stall() -> TickKernel:
    graph = random_regular_graph(24, 4, rng=0)
    return TickKernel(24, 12, TriangularTickPolicy(graph, RandomPolicy()), rng=50)


def test_stall_verdict_lands_eight_quiet_ticks_after_the_last_delivery() -> None:
    kernel = _sparse_stall()
    r = kernel.run()
    assert r.abort == "stall" and not r.deadlocked
    assert kernel.tick == max(t.tick for t in r.log) + 8


def test_resume_mid_lull_keeps_the_stall_tick() -> None:
    # The golden fingerprint does not record the final tick, so check
    # here that a checkpoint inside the quiet stretch carries the count.
    payloads: dict[int, dict] = {}
    reference = _sparse_stall()
    reference.arm_checkpoints(1, sink=lambda p: payloads.setdefault(p["tick"], p))
    reference.run()
    quiet = [tick for tick in payloads if tick > reference.tick - 8]
    assert quiet
    for tick in quiet:
        resumed = _sparse_stall()
        resumed.restore_checkpoint(json.loads(json.dumps(payloads[tick])))
        resumed.run()
        assert resumed.tick == reference.tick


def test_server_sits_out_its_outage() -> None:
    plan = FaultPlan(server_outages=((1, 5),))
    r = randomized_triangular_run(12, 6, rng=15, faults=plan)
    assert r.completed
    assert min(t.tick for t in r.log if t.src == 0) > 5
    verify_log(r.log, 12, 6, mechanism=TriangularBarter(1))


def test_late_arrivals_after_a_long_lull_are_not_a_stall() -> None:
    # The initial clients finish by tick ~6; nothing moves until the
    # arrivals at tick 40 — far more than the 8 quiet ticks that end a
    # run as a stall. Pending arrivals hold the stall count off.
    workload = WorkloadSpec(initial_fraction=0.3, arrival_trace=((40, 3),))
    r = randomized_triangular_run(12, 4, rng=1, workload=workload)
    ticks = sorted({t.tick for t in r.log})
    assert max(t for t in ticks if t < 40) < 40 - 8
    assert r.abort is None
    assert r.completed
    assert max(r.client_completions.values()) > 40


def test_free_riders_are_refused() -> None:
    with pytest.raises(ConfigError, match="adversar"):
        randomized_triangular_run(
            12, 6, rng=0, adversary=AdversaryPlan(free_riders=(3,))
        )


def test_bandwidth_tiers_are_refused() -> None:
    with pytest.raises(ConfigError, match="bandwidth"):
        randomized_triangular_run(12, 6, rng=0, bandwidth=mix_spec("broadband"))
