"""Checkpoint/restore exactness: the golden resume sweep.

For every pinned golden configuration (all six engine families, credit
barter, overlays, throttles, fault plans with crashes and outages,
churn), the suite arms a checkpoint at *every* tick of a reference run,
then — for each captured boundary — rebuilds an identically-configured
engine, restores the checkpoint (through a JSON round-trip, exactly what
the on-disk format does) and runs it to completion. The resumed run must
reproduce the reference **byte for byte**: transfer log, failure stream,
completion ticks, verdicts, crash/rejoin events and the tick it ends on.

This is the contract that makes preemption recovery trustworthy: a
killed-and-resumed campaign job is indistinguishable from one that never
died. ``repro.checkpoint`` documents it; this suite enforces it.
"""

from __future__ import annotations

import json

import pytest

from repro.checkpoint import resume_engine, save_checkpoint
from repro.core.errors import CheckpointError

from .capture_golden import result_fingerprint
from .golden_specs import ARRAY_CAPABLE_SPECS, GOLDEN_ENGINE_FACTORIES


def _kernel(engine):
    return getattr(engine, "kernel", engine)


def _finish(engine):
    """Run to the end: the byte-identity surface plus the final tick, so
    a stall or max-ticks verdict landing on another tick shows too."""
    return result_fingerprint(engine.run()), _kernel(engine).tick


def _reference_run(factory):
    """Run the spec once, capturing the boundary state at every tick."""
    payloads: dict[int, dict] = {}
    engine = factory()
    _kernel(engine).arm_checkpoints(
        1, sink=lambda p: payloads.setdefault(p["tick"], p)
    )
    return _finish(engine), payloads


@pytest.mark.parametrize("name", sorted(GOLDEN_ENGINE_FACTORIES))
def test_resume_is_bit_identical_from_every_tick(name: str) -> None:
    factory = GOLDEN_ENGINE_FACTORIES[name]
    baseline, payloads = _reference_run(factory)
    assert payloads, "run ended before the first checkpoint boundary"
    for tick, payload in sorted(payloads.items()):
        # The JSON round-trip is load-bearing: it is what the file format
        # does to tuples, dict keys and large ints.
        document = json.loads(json.dumps(payload))
        resumed = factory()
        _kernel(resumed).restore_checkpoint(document)
        assert _finish(resumed) == baseline, (
            f"{name}: resume from tick {tick} diverged"
        )


@pytest.mark.parametrize("name", ["randomized-faults", "async-crash"])
def test_resume_engine_from_file(name: str, tmp_path) -> None:
    """The full disk round-trip: save_checkpoint -> resume_engine."""
    factory = GOLDEN_ENGINE_FACTORIES[name]
    baseline, payloads = _reference_run(factory)
    tick = sorted(payloads)[len(payloads) // 2]
    path = tmp_path / "run.ckpt"
    save_checkpoint(path, payloads[tick])
    resumed = resume_engine(path, factory)
    assert _kernel(resumed).tick == tick
    assert _finish(resumed) == baseline


@pytest.mark.parametrize("name", ["randomized-barter-rarest", "exchange-faults"])
def test_cross_backend_resume(name: str) -> None:
    """A loop-backend checkpoint restores into an array-backend engine
    (and vice versa): the config fingerprint deliberately excludes the
    execution backend because the two are byte-identical."""
    assert name in ARRAY_CAPABLE_SPECS
    factory = GOLDEN_ENGINE_FACTORIES[name]
    baseline, payloads = _reference_run(factory)
    tick = sorted(payloads)[len(payloads) // 2]
    document = json.loads(json.dumps(payloads[tick]))
    resumed = factory(backend="array")
    _kernel(resumed).restore_checkpoint(document)
    assert _finish(resumed) == baseline
    # And back: an array-run checkpoint resumes on the loop backend.
    arr_baseline, arr_payloads = _reference_run(
        lambda: factory(backend="array")
    )
    assert arr_baseline == baseline
    tick = sorted(arr_payloads)[len(arr_payloads) // 2]
    document = json.loads(json.dumps(arr_payloads[tick]))
    resumed = factory()
    _kernel(resumed).restore_checkpoint(document)
    assert _finish(resumed) == baseline


def test_restore_refuses_config_mismatch() -> None:
    factory = GOLDEN_ENGINE_FACTORIES["randomized-cooperative"]
    _, payloads = _reference_run(factory)
    document = json.loads(json.dumps(payloads[min(payloads)]))
    other = GOLDEN_ENGINE_FACTORIES["randomized-barter-rarest"]()
    with pytest.raises(CheckpointError, match="differently-configured"):
        _kernel(other).restore_checkpoint(document)


def test_restore_refuses_stepped_kernel() -> None:
    factory = GOLDEN_ENGINE_FACTORIES["randomized-cooperative"]
    _, payloads = _reference_run(factory)
    document = json.loads(json.dumps(payloads[min(payloads)]))
    engine = factory()
    _kernel(engine).step()
    with pytest.raises(CheckpointError, match="freshly constructed"):
        _kernel(engine).restore_checkpoint(document)
