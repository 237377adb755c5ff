"""Array-backend golden conformance: two backends, one set of numbers.

The array backend (:mod:`repro.sim.array`) keeps every decision draw in
the policy and vectorizes only the deterministic work between draws, so
an array-backed run must be *byte-identical* to the loop-backed run it
replaces. This suite holds it to the strongest available standard: every
golden fixture whose engine is array-capable (the randomized and
exchange families — sparse-overlay, fault and churn fixtures included) is
replayed with ``backend="array"`` against the same pinned JSON the loop
backend must match.
"""

from __future__ import annotations

import json
import os

import pytest

from .capture_golden import result_fingerprint
from .golden_specs import ARRAY_CAPABLE_SPECS, GOLDEN_SPECS

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _load(name: str) -> dict:
    with open(os.path.join(_GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(ARRAY_CAPABLE_SPECS))
def test_array_backend_matches_golden_log(name: str) -> None:
    expected = _load(name)
    actual = result_fingerprint(GOLDEN_SPECS[name](backend="array"))
    assert actual["completion_time"] == expected["completion_time"]
    assert actual["abort"] == expected["abort"]
    assert actual["deadlocked"] == expected["deadlocked"]
    assert actual["client_completions"] == expected["client_completions"]
    assert actual["transfers"] == expected["transfers"]
    assert actual["failures"] == expected["failures"]
    for key in ("crash_events", "rejoin_events"):
        if key in expected:
            assert actual[key] == expected[key]


def test_array_capable_specs_cover_all_array_engines() -> None:
    # Every registered array-capable engine appears in the replayed
    # subset, and the subset never silently shrinks.
    from repro.sim import ENGINES

    capable = {s.name for s in ENGINES.values() if s.array_backend}
    assert capable == {"randomized", "exchange"}
    assert len(ARRAY_CAPABLE_SPECS) == 11
    assert set(ARRAY_CAPABLE_SPECS) <= set(GOLDEN_SPECS)
