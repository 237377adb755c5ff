"""Preemption-tolerant campaign execution: checkpoint specs and heartbeats.

The simulation side of crash tolerance lives in :mod:`repro.checkpoint`
(deterministic kernel snapshots, bit-identical resume). This module is
the campaign side: how a fleet of worker processes uses those snapshots
so that a killed, preempted or hung worker costs at most one checkpoint
interval of work instead of the whole task.

* :class:`CheckpointSpec` — campaign-level policy (directory + tick
  interval), handed to an executor;
* :class:`JobCheckpoint` — one job's file assignment (checkpoint path,
  heartbeat path, interval), derived from the job's cache key so a
  resubmitted job finds exactly its own checkpoint; picklable, because
  it rides into worker processes;
* :class:`HeartbeatWriter` — the per-tick liveness beacon a worker
  installs via ``kernel.arm_checkpoints(heartbeat=...)``; time-gated so
  fast ticks don't turn into an fsync storm;
* :func:`read_heartbeat` — the executor watchdog's side of the beacon.

A run factory opts in by exposing ``supports_checkpoint = True`` and
accepting ``fn(point, seed, checkpoint=JobCheckpoint)``; factories
without the attribute are simply run without checkpointing (retry
semantics unchanged). :class:`~repro.campaign.factories.EngineRun`
implements the protocol for every registry engine.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

from ..core.errors import ConfigError

__all__ = [
    "DEFAULT_INTERVAL",
    "CheckpointSpec",
    "HeartbeatWriter",
    "JobCheckpoint",
    "read_heartbeat",
]

#: Default checkpoint cadence in ticks; the checkpoint arm of
#: ``benchmarks/bench_overhead.py`` pins the overhead at this
#: interval under 5% per tick at n = k = 1000.
DEFAULT_INTERVAL = 50


@dataclass(frozen=True)
class CheckpointSpec:
    """Campaign-level checkpoint policy: where and how often.

    ``root`` holds one ``<cache-key>.ckpt`` (atomic, self-verifying —
    see :mod:`repro.checkpoint`) and one ``<cache-key>.hb`` heartbeat
    file per in-flight job. The directory outlives individual executor
    runs on purpose: re-running an interrupted campaign against the same
    root resumes every unfinished job from its last checkpoint.
    """

    root: str
    interval: int = DEFAULT_INTERVAL

    def __post_init__(self) -> None:
        if self.interval < 1:
            raise ConfigError(
                f"checkpoint interval must be >= 1 tick, got {self.interval}"
            )

    def for_job(self, key: str) -> "JobCheckpoint":
        """The file assignment for the job with cache key ``key``."""
        os.makedirs(self.root, exist_ok=True)
        return JobCheckpoint(
            path=os.path.join(self.root, f"{key}.ckpt"),
            heartbeat=os.path.join(self.root, f"{key}.hb"),
            interval=self.interval,
        )


@dataclass(frozen=True)
class JobCheckpoint:
    """One job's checkpoint/heartbeat file assignment (picklable)."""

    path: str
    heartbeat: str
    interval: int

    @property
    def progress(self) -> str:
        """The *batch* checkpoint: a replica-granular progress file.

        Batch factories (:class:`~repro.campaign.factories.
        BatchEngineRun` and friends) write the columnar summaries of
        every completed replica here (atomic replace after each one)
        plus an in-flight marker, while ``path`` holds the in-flight
        replica's ordinary kernel checkpoint. A killed batch worker
        therefore loses at most one checkpoint interval of one replica:
        finished replicas reload from this file and the interrupted one
        resumes from its kernel checkpoint.
        """
        return f"{self.path}.batch"


class HeartbeatWriter:
    """Write ``{pid, tick, time}`` to a liveness file, rate-limited.

    Installed as the kernel's per-tick heartbeat hook. Writes go through
    an atomic replace so the watchdog never reads a torn file, and are
    gated to at most one per ``min_period`` seconds — a heartbeat is a
    liveness signal, not a progress log.
    """

    def __init__(self, path: str, min_period: float = 1.0) -> None:
        self.path = path
        self.min_period = min_period
        self._last = 0.0

    def __call__(self, tick: int) -> None:
        now = time.time()
        if now - self._last < self.min_period:
            return
        self._last = now
        beat = {"pid": os.getpid(), "tick": tick, "time": now}
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(beat, handle)
        os.replace(tmp, self.path)


def read_heartbeat(path: str) -> dict[str, object] | None:
    """The last heartbeat written to ``path``, or ``None`` if there is
    none (missing file, or a write raced the read on a non-atomic
    filesystem)."""
    try:
        with open(path, encoding="utf-8") as handle:
            beat = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    return beat if isinstance(beat, dict) else None
