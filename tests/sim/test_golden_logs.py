"""Golden-log conformance: the kernel refactor moved code, not numbers.

Each fixture under ``golden/`` was captured from the pre-kernel engines
at a pinned seed (see ``golden_specs.py``). Replaying the same spec on
the refactored engines must reproduce the transfer log (deliveries *and*
failures), the completion time, per-client completions and the abort
verdict byte for byte, and end on the pinned final tick — any drift here
would move the paper figures.
"""

from __future__ import annotations

import json
import os

import pytest

from .capture_golden import result_fingerprint
from .golden_specs import ARRAY_CAPABLE_SPECS, GOLDEN_ENGINE_FACTORIES, GOLDEN_SPECS

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: The tick each fixture's run ends on. The stored fixtures carry no
#: tick, so a stall or max-ticks verdict landing on another tick would
#: pass the identity test; this table was captured from the same specs
#: (loop and array backends agree) without recapturing any fixture.
FINAL_TICKS = {
    "async-crash": 26,
    "async-kernel": 15,
    "bittorrent-crash": 57,
    "churn": 16,
    "churn-faults": 16,
    "coding-crash": 20,
    "exchange": 44,
    "exchange-faults": 28,
    "exchange-overlay": 29,
    "randomized-barter-rarest": 15,
    "randomized-cooperative": 23,
    "randomized-faults": 21,
    "randomized-overlay-throttle": 16,
    "randomized-selfish-barter": 14,
    "randomized-server-outage": 22,
    "triangular": 18,
    "triangular-exchange-overlay": 29,
    "triangular-sparse-stall": 45,
}


def _load(name: str) -> dict:
    with open(os.path.join(_GOLDEN_DIR, f"{name}.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_log_identity(name: str) -> None:
    expected = _load(name)
    actual = result_fingerprint(GOLDEN_SPECS[name]())
    assert actual["completion_time"] == expected["completion_time"]
    assert actual["abort"] == expected["abort"]
    assert actual["deadlocked"] == expected["deadlocked"]
    assert actual["client_completions"] == expected["client_completions"]
    assert actual["transfers"] == expected["transfers"]
    assert actual["failures"] == expected["failures"]
    # Crash/rejoin event streams are pinned for fixtures captured since
    # the engines graduated to full fault support; older fixtures predate
    # the surface and simply lack the keys.
    for key in ("crash_events", "rejoin_events"):
        if key in expected:
            assert actual[key] == expected[key]


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_golden_specs_are_seed_stable(name: str) -> None:
    # The spec itself must be deterministic: two fresh constructions give
    # identical fingerprints (guards against hidden shared state).
    assert result_fingerprint(GOLDEN_SPECS[name]()) == result_fingerprint(
        GOLDEN_SPECS[name]()
    )


@pytest.mark.parametrize("name", sorted(GOLDEN_ENGINE_FACTORIES))
def test_golden_final_tick(name: str) -> None:
    assert sorted(FINAL_TICKS) == sorted(GOLDEN_ENGINE_FACTORIES)
    backends = ("loop", "array") if name in ARRAY_CAPABLE_SPECS else ("loop",)
    for backend in backends:
        engine = GOLDEN_ENGINE_FACTORIES[name](backend=backend)
        engine.run()
        assert getattr(engine, "kernel", engine).tick == FINAL_TICKS[name], backend
