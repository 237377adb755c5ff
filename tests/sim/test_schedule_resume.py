"""Every-tick checkpoint resume of deterministic schedules on the kernel.

A schedule run under faults carries state the kernel does not own: the
heap of deferred and retried transfers and the abandoned and retry
counters. :class:`~repro.sim.schedule.ScheduleTickPolicy` checkpoints
them, so a run resumed from any tick boundary must end byte for byte
like the straight run: log, verdict, completions, meta and final tick.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.heterogeneity import mix_spec
from repro.faults import FaultPlan, RecoveryPolicy
from repro.schedules.hypercube import hypercube_schedule
from repro.sim.schedule import schedule_kernel
from repro.workloads.spec import WorkloadSpec

from .capture_golden import result_fingerprint

pytestmark = pytest.mark.faults

_LOSS = FaultPlan(loss_rate=0.15)

FACTORIES = {
    "hypercube-loss": lambda: schedule_kernel(
        hypercube_schedule(16, 8),
        faults=_LOSS,
        recovery=RecoveryPolicy(backoff_base=2, max_retries=4),
        rng=3,
    ),
    "hypercube-loss-workload": lambda: schedule_kernel(
        hypercube_schedule(16, 8),
        faults=_LOSS,
        workload=WorkloadSpec(arrivals=((5, 4), (11, 7)), departures=((9, 30),)),
        rng=4,
    ),
    "hypercube-loss-tiers": lambda: schedule_kernel(
        hypercube_schedule(16, 8),
        faults=_LOSS,
        bandwidth=mix_spec("dsl-heavy", uploads=True),
        rng=5,
    ),
}


def _finish(kernel):
    result = kernel.run()
    return result_fingerprint(result), kernel.tick, result.meta


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_resume_is_bit_identical_from_every_tick(name: str) -> None:
    factory = FACTORIES[name]
    payloads: dict[int, dict] = {}
    kernel = factory()
    kernel.arm_checkpoints(1, sink=lambda p: payloads.setdefault(p["tick"], p))
    baseline = _finish(kernel)
    assert len(payloads) > 10
    # The runs must exercise the heap the checkpoint carries.
    assert any(p["policy"]["pending"] for p in payloads.values())
    for tick, payload in sorted(payloads.items()):
        resumed = factory()
        resumed.restore_checkpoint(json.loads(json.dumps(payload)))
        assert _finish(resumed) == baseline, f"{name}: resume from tick {tick} diverged"
