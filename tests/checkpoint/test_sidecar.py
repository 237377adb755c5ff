"""The v2 row sidecar: appends, growth, torn appends and corruption.

A v2 checkpoint is a JSON document plus ``<path>.rows``, an append-only
file of int32 log rows. The reader must cut a torn append (rows past the
document's counts) off with a warning, refuse a sidecar that is short,
missing, altered or another run's, and a killed writer must leave a
checkpoint that resumes bit-identically.
"""

from __future__ import annotations

import json
import os
import shutil
import warnings

import numpy as np
import pytest

import repro.checkpoint as checkpoint_module
from repro.adversary import AdversaryPlan
from repro.campaign.checkpointing import JobCheckpoint
from repro.campaign.factories import _checkpointed_engine
from repro.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    load_checkpoint,
    remove_checkpoint,
    resume_engine,
    save_checkpoint,
)
from repro.core.log import STREAMS
from repro.faults import FaultPlan
from repro.randomized.engine import RandomizedEngine

from ..sim.capture_golden import result_fingerprint

ROW, HEADER = 16, 16


def _build(rng: int = 3, **options) -> RandomizedEngine:
    return RandomizedEngine(
        24, 12, rng=rng,
        faults=FaultPlan(loss_rate=0.1),
        adversary=AdversaryPlan(
            polluters=(3,), pollution_rate=0.5, liars=(4,), lie_rate=0.5,
            strike_threshold=3,
        ),
        **options,
    )


def _straight(rng: int = 3):
    engine = _build(rng)
    return result_fingerprint(engine.run()), engine.kernel.tick


def _sidecar(path) -> str:
    return f"{path}.rows"


def _rows(log) -> dict[str, list]:
    return {name: np.column_stack(log.columns(name)).tolist() for name in STREAMS}


def _prefix_rows(log, counts: dict) -> dict[str, list]:
    return {
        name: np.column_stack(log.columns(name, 0, counts.get(name, 0))).tolist()
        for name in STREAMS
    }


@pytest.fixture
def two_saves(tmp_path):
    """A run saved at tick 5 and tick 9 to one path; returns the path,
    the live kernel, the tick-5 document's bytes and row counts, and the
    sidecar's length after each save."""
    kernel = _build().kernel
    path = tmp_path / "run.ckpt"
    for _ in range(5):
        kernel.step()
    save_checkpoint(path, kernel.checkpoint())
    first_doc = path.read_bytes()
    first_counts = json.loads(first_doc)["log"]["rows"]
    first_len = os.path.getsize(_sidecar(path))
    for _ in range(4):
        kernel.step()
    save_checkpoint(path, kernel.checkpoint())
    second_len = os.path.getsize(_sidecar(path))
    assert second_len > first_len + HEADER
    return path, kernel, first_doc, first_counts, first_len, second_len


def test_document_records_the_sidecar(two_saves) -> None:
    path, kernel, *_ = two_saves
    document = json.loads(path.read_bytes())
    assert document["format"] == CHECKPOINT_FORMAT
    entry = document["log"]
    assert entry["sidecar"] == os.path.basename(_sidecar(path))
    assert entry["bytes"] == os.path.getsize(_sidecar(path))
    assert entry["rows"] == {
        "transfers": len(kernel.log),
        "failures": kernel.log.failed_count,
        "polluted": kernel.log.polluted_count,
        "phantoms": kernel.log.phantom_count,
    }
    assert _rows(load_checkpoint(path)["log"].log) == _rows(kernel.log)


def test_torn_append_is_cut_off_with_a_warning(two_saves) -> None:
    path, kernel, first_doc, first_counts, first_len, second_len = two_saves
    path.write_bytes(first_doc)  # the writer died before the replace
    full = open(_sidecar(path), "rb").read()
    expected = _prefix_rows(kernel.log, first_counts)
    for cut in range(first_len + 1, second_len + 1):
        with open(_sidecar(path), "wb") as handle:
            handle.write(full[:cut])
        with pytest.warns(UserWarning, match="torn append"):
            document = load_checkpoint(path)
        assert _rows(document["log"].log) == expected, cut


def test_a_cut_inside_the_prefix_raises(two_saves) -> None:
    path, _, first_doc, _, first_len, _ = two_saves
    path.write_bytes(first_doc)
    full = open(_sidecar(path), "rb").read()
    for cut in range(first_len):
        with open(_sidecar(path), "wb") as handle:
            handle.write(full[:cut])
        with pytest.raises(CheckpointError, match="records"):
            load_checkpoint(path)


def test_a_flipped_prefix_byte_raises(two_saves) -> None:
    path, *_ , second_len = two_saves
    full = open(_sidecar(path), "rb").read()
    for at in range(0, second_len, 7):
        flipped = bytearray(full)
        flipped[at] ^= 0x01
        with open(_sidecar(path), "wb") as handle:
            handle.write(bytes(flipped))
        with pytest.raises(CheckpointError, match="integrity"):
            load_checkpoint(path)


def test_a_missing_sidecar_raises(two_saves) -> None:
    path, *_ = two_saves
    os.remove(_sidecar(path))
    with pytest.raises(CheckpointError, match="cannot read the row sidecar"):
        load_checkpoint(path)


def test_another_runs_sidecar_raises(two_saves, tmp_path) -> None:
    path, *_ = two_saves
    other = _build(rng=4).kernel
    for _ in range(9):
        other.step()
    other_path = tmp_path / "other.ckpt"
    save_checkpoint(other_path, other.checkpoint())
    shutil.copyfile(_sidecar(other_path), _sidecar(path))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_a_kill_before_the_replace_resumes_the_previous_checkpoint(
    tmp_path, monkeypatch
) -> None:
    """The writer appends and fsyncs the sidecar, then dies before the
    document replace: the previous checkpoint still resumes, and a
    writer armed on the resumed kernel continues the same sidecar."""
    expected = _straight()
    path = tmp_path / "run.ckpt"
    kernel = _build().kernel
    for _ in range(5):
        kernel.step()
    save_checkpoint(path, kernel.checkpoint())
    for _ in range(4):
        kernel.step()

    def killed(src, dst):
        raise KeyboardInterrupt("killed between the fsync and the replace")

    monkeypatch.setattr(checkpoint_module.os, "replace", killed)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(path, kernel.checkpoint())
    monkeypatch.undo()
    torn_size = os.path.getsize(_sidecar(path))

    with pytest.warns(UserWarning, match="torn append"):
        resumed = resume_engine(path, _build)
    assert resumed.kernel.tick == 5
    resumed.kernel.arm_checkpoints(3, path=str(path))
    assert (result_fingerprint(resumed.run()), resumed.kernel.tick) == expected

    # The resumed writer cut the torn bytes and appended after them.
    document = json.loads(path.read_bytes())
    assert document["tick"] > 5
    assert document["log"]["bytes"] == os.path.getsize(_sidecar(path))
    assert os.path.getsize(_sidecar(path)) != torn_size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = resume_engine(path, _build)
    assert (result_fingerprint(again.run()), again.kernel.tick) == expected


def test_a_bad_sidecar_makes_the_campaign_start_fresh(tmp_path) -> None:
    path = str(tmp_path / "job.ckpt")
    job = JobCheckpoint(path=path, heartbeat=str(tmp_path / "job.hb"), interval=4)
    kernel = _build().kernel
    for _ in range(6):
        kernel.step()
    save_checkpoint(path, kernel.checkpoint())
    with open(_sidecar(path), "r+b") as handle:
        handle.write(b"\xff" * 8)
    with pytest.warns(UserWarning, match="ignoring unusable checkpoint"):
        engine, resumed_from = _checkpointed_engine(_build, job)
    assert resumed_from is None and engine.kernel.tick == 0
    assert (result_fingerprint(engine.run()), engine.kernel.tick) == _straight()


def test_a_fresh_run_starts_a_new_sidecar(tmp_path) -> None:
    """A run that does not continue the checkpoint at its path replaces
    document and sidecar: no row of the old run survives."""
    path = tmp_path / "run.ckpt"
    old = _build(rng=4).kernel
    for _ in range(9):
        old.step()
    save_checkpoint(path, old.checkpoint())
    kernel = _build().kernel
    for _ in range(3):
        kernel.step()
    save_checkpoint(path, kernel.checkpoint())
    assert _rows(load_checkpoint(path)["log"].log) == _rows(kernel.log)
    remove_checkpoint(path)
    assert not os.path.exists(path) and not os.path.exists(_sidecar(path))


def test_growth_is_the_new_rows_only(tmp_path, monkeypatch) -> None:
    """Across one keep_log=True run's checkpoints the document does not
    grow with the log, and the sidecar grows by 16 bytes a new row plus
    one 16-byte header per append."""
    path = str(tmp_path / "run.ckpt")
    seen: list[tuple[int, int, int]] = []
    save = checkpoint_module.save_checkpoint

    def recording(where, payload):
        save(where, payload)
        rows = sum(payload["log"]["rows"].values())
        seen.append(
            (rows, os.path.getsize(where), os.path.getsize(_sidecar(where)))
        )

    monkeypatch.setattr(checkpoint_module, "save_checkpoint", recording)
    engine = RandomizedEngine(64, 32, rng=1, keep_log=True)
    engine.kernel.arm_checkpoints(3, path=path)
    engine.run()
    assert len(seen) >= 10
    (rows0, doc0, side0), (rows1, doc1, side1) = seen[0], seen[-1]
    assert rows1 - rows0 > 1000
    # Inline JSON rows would add ~10 bytes a row; the document adds < 1.
    assert max(doc for _, doc, _ in seen) - doc0 < rows1 - rows0
    assert side0 == HEADER + ROW * rows0
    for (rows_a, _, side_a), (rows_b, _, side_b) in zip(seen, seen[1:]):
        added = rows_b - rows_a
        assert side_b - side_a == (HEADER + ROW * added if added else 0)
