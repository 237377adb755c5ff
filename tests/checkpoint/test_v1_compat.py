"""``repro/checkpoint/v1`` documents keep loading.

``v1-randomized-n16.ckpt`` was written by the v1 writer (rows inline in
the JSON document) at tick 10 of the run ``_build`` makes, with every log
stream non-empty: loss failures, a polluter and a liar. It is a pinned
fixture: never recapture it. Resuming it must continue to exactly the
straight run's result and final tick.
"""

from __future__ import annotations

import json
import os

from repro.adversary import AdversaryPlan
from repro.checkpoint import resume_engine
from repro.faults import FaultPlan
from repro.randomized.engine import RandomizedEngine

from ..sim.capture_golden import result_fingerprint

FIXTURE = os.path.join(os.path.dirname(__file__), "v1-randomized-n16.ckpt")


def _build() -> RandomizedEngine:
    return RandomizedEngine(
        16, 8, rng=5,
        faults=FaultPlan(loss_rate=0.1),
        adversary=AdversaryPlan(
            polluters=(3,), pollution_rate=0.5, liars=(4,), lie_rate=0.5,
            strike_threshold=3,
        ),
    )


def test_fixture_is_v1_with_every_stream() -> None:
    with open(FIXTURE, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["format"] == "repro/checkpoint/v1"
    assert document["tick"] == 10
    assert all(document["log"][name] for name in (
        "transfers", "failures", "polluted", "phantoms"
    ))


def test_v1_resume_matches_the_straight_run() -> None:
    straight = _build()
    expected = result_fingerprint(straight.run()), straight.kernel.tick
    resumed = resume_engine(FIXTURE, _build)
    assert resumed.kernel.tick == 10
    assert (result_fingerprint(resumed.run()), resumed.kernel.tick) == expected
