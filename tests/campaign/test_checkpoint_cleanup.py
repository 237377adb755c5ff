"""A finished checkpointed job leaves no checkpoint file behind.

A v2 checkpoint is a document plus its ``.rows`` sidecar; the campaign
factories remove both (``repro.checkpoint.remove_checkpoint``) when a
job or a batch replica finishes.
"""

from __future__ import annotations

import os

import pytest

import repro.checkpoint as checkpoint_module
from repro.campaign import BatchEngineRun, CheckpointSpec, EngineRun


@pytest.fixture
def saved(monkeypatch) -> list[str]:
    """Every checkpoint file that existed right after a save."""
    seen: list[str] = []
    save = checkpoint_module.save_checkpoint

    def recording(path, payload):
        save(path, payload)
        seen.extend(name for name in (path, f"{path}.rows") if os.path.exists(name))

    monkeypatch.setattr(checkpoint_module, "save_checkpoint", recording)
    return seen


def _leftovers(root: str) -> list[str]:
    return sorted(name for name in os.listdir(root) if ".ckpt" in name)


def test_engine_run_removes_document_and_sidecar(tmp_path, saved) -> None:
    spec = CheckpointSpec(str(tmp_path / "ckpts"), interval=2)
    factory = EngineRun.configure("randomized", 16, 8, keep_log=True)
    result = factory(None, 5, checkpoint=spec.for_job("job"))
    assert result.completed
    assert any(name.endswith(".rows") for name in saved), "no sidecar written"
    assert _leftovers(spec.root) == []


def test_batch_engine_run_removes_its_checkpoints(tmp_path, saved) -> None:
    # Batch replicas run with keep_log=False, so their checkpoints have
    # no sidecar; the progress file and documents must still go.
    spec = CheckpointSpec(str(tmp_path / "ckpts"), interval=2)
    factory = BatchEngineRun.configure("randomized", 16, 8)
    batch = factory(None, [5, 6, 7], checkpoint=spec.for_job("batch"))
    assert len(batch) == 3
    assert saved, "no replica wrote a checkpoint"
    assert _leftovers(spec.root) == []
