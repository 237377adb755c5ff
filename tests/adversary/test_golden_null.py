"""Null-plan conformance and the explicit free-rider plan.

Two bit-identity guarantees pin the adversary layer's zero-cost paths:

* attaching a **null** :class:`AdversaryPlan` to any golden fixture
  reproduces the stored fingerprint byte for byte — arming the layer
  without declaring adversaries costs nothing, on every engine family;
* an explicit free-rider plan draws no RNG: the selfish golden fixture,
  captured from the engines' former ``selfish=`` flag, replays
  identically through ``AdversaryPlan(free_riders=...)``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.adversary import AdversaryPlan
from repro.core.mechanisms import CreditLimitedBarter
from repro.randomized.engine import RandomizedEngine

from ..sim.capture_golden import result_fingerprint
from ..sim.golden_specs import ARRAY_CAPABLE_SPECS, GOLDEN_SPECS

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "..", "sim", "golden")


def _load(name: str) -> dict:
    with open(os.path.join(_GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as f:
        return json.load(f)


def _compare(actual: dict, expected: dict) -> None:
    for key in ("completion_time", "abort", "deadlocked",
                "client_completions", "transfers", "failures"):
        assert actual[key] == expected[key]
    for key in ("crash_events", "rejoin_events"):
        if key in expected:
            assert actual[key] == expected[key]


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_null_plan_replays_every_golden_fixture(name: str) -> None:
    actual = result_fingerprint(GOLDEN_SPECS[name](adversary=AdversaryPlan()))
    _compare(actual, _load(name))


@pytest.mark.parametrize(
    "name", [n for n in sorted(GOLDEN_SPECS) if n in ARRAY_CAPABLE_SPECS]
)
def test_null_plan_is_free_on_the_array_backend_too(name: str) -> None:
    actual = result_fingerprint(
        GOLDEN_SPECS[name](adversary=AdversaryPlan(), backend="array")
    )
    _compare(actual, _load(name))


class TestSelfishShim:
    def test_selfish_golden_fixture_replays_through_a_plan(self):
        # The stored randomized-selfish-barter fixture was captured from
        # the former ``selfish={3}`` flag; the explicit free-rider plan
        # must reproduce it byte for byte (the plan draws zero RNG).
        r = RandomizedEngine(
            12, 6,
            mechanism=CreditLimitedBarter(1),
            adversary=AdversaryPlan(free_riders=(3,)),
            rng=3,
        ).run()
        _compare(
            result_fingerprint(r), _load("randomized-selfish-barter")
        )
