"""Generic campaign run factories built on the engine registry.

A sweep needs a picklable ``fn(point, seed) -> RunResult`` (see
:class:`~repro.campaign.model.Job`); before the :mod:`repro.sim`
registry, every experiment hand-wrote one frozen dataclass per engine.
:class:`EngineRun` is the generic form: the engine is named, fixed
options are baked into the (cache-fingerprinted, picklable) factory, and
mapping-shaped sweep points contribute per-point engine options::

    from repro.campaign.factories import EngineRun

    factory = EngineRun.configure("randomized", n=200, k=100, keep_log=False)
    sweep([{"mechanism": CreditLimitedBarter(1)}, {}], factory, ...)

Non-mapping points (plain labels like ``(n, degree)``) are treated as
labels only — whatever varies must then be baked into the factory, as
the hand-written experiment factories do.

The *batched* counterparts make replica batches the unit of work (see
:class:`~repro.campaign.model.BatchJob`): :class:`BatchEngineRun` runs a
whole seed-batch through :class:`~repro.sim.array.montecarlo.BatchRunner`
on the vectorized array backend inside one worker, and
:class:`BatchedRuns` adapts *any* scalar factory (non-array engines,
hand-written experiment factories) to the batch protocol by looping the
scalar runs in one worker. Both return columnar
:class:`~repro.campaign.summaries.SummaryBatch` payloads — no transfer
logs ever cross the process boundary — and both join the checkpoint
protocol at *batch* granularity: completed replicas land in a progress
file (``JobCheckpoint.progress``) after every replica, the in-flight
replica writes ordinary kernel checkpoints, and a SIGKILLed batch worker
resumes with finished replicas reloaded and the interrupted one resumed
from its last checkpoint tick.
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from ..checkpoint import remove_checkpoint, resume_engine
from ..core.errors import CheckpointError, ConfigError
from ..core.log import RunResult
from ..sim.registry import create_engine, run_engine
from .checkpointing import HeartbeatWriter, JobCheckpoint
from .summaries import (
    ReplicaSummary,
    SummaryBatch,
    masks_from_words,
    summarize_result,
)

__all__ = ["BatchEngineRun", "BatchedRuns", "EngineRun"]


@dataclass(frozen=True)
class EngineRun:
    """Picklable run factory: one registry engine, constructed by name.

    ``options`` is a sorted tuple of ``(key, value)`` pairs rather than a
    dict so the dataclass stays frozen and its ``repr`` — which the
    result cache uses as the factory fingerprint — is deterministic.
    Every engine keyword lives there, ``backend`` and the scenario specs
    (``workload``, ``adversary``, ``bandwidth``, ``telemetry``)
    included: their frozen-dataclass reprs pin every parameter, so a
    cached result is never served for a run configured differently —
    not even one that differs only in the byte-identical backend.
    """

    engine: str
    n: int
    k: int
    options: tuple[tuple[str, object], ...] = ()

    @classmethod
    def configure(cls, engine: str, n: int, k: int, **options: object) -> "EngineRun":
        """Build a factory with ``options`` baked in (keyword-friendly form)."""
        return cls(engine, n, k, tuple(sorted(options.items())))

    #: Checkpoint protocol marker (see :mod:`repro.campaign.checkpointing`):
    #: executors with an armed :class:`CheckpointSpec` pass
    #: ``checkpoint=JobCheckpoint`` only to factories that declare it. A
    #: class attribute, not a dataclass field — the repr *is* the cache
    #: fingerprint, and checkpointing never changes a run's outcome.
    supports_checkpoint = True

    def _engine_kwargs(self, point: object) -> dict[str, object]:
        kwargs = dict(self.options)
        if isinstance(point, Mapping):
            kwargs.update(point)
        return kwargs

    def __call__(
        self,
        point: object,
        seed: int,
        checkpoint: JobCheckpoint | None = None,
    ) -> RunResult:
        kwargs = self._engine_kwargs(point)
        if checkpoint is None:
            return run_engine(self.engine, self.n, self.k, rng=seed, **kwargs)

        def build():
            return create_engine(self.engine, self.n, self.k, rng=seed, **kwargs)

        engine, resumed_from = _checkpointed_engine(build, checkpoint)
        try:
            result = engine.run()
        finally:
            # The heartbeat is only meaningful while this process is
            # alive; a stale one would point the watchdog at a pid that
            # may be running a different job by now.
            _remove_quietly(checkpoint.heartbeat)
        if resumed_from is not None:
            result.meta["resumed_from_tick"] = resumed_from
        # The run finished: its checkpoint is spent. (On a crash this
        # line never executes, which is the point.)
        remove_checkpoint(checkpoint.path)
        return result


def _checkpointed_engine(build, checkpoint: JobCheckpoint):
    """Build (or resume) an engine with periodic checkpointing armed.

    Returns ``(engine, resumed_from_tick)`` where the tick is ``None``
    for a fresh start. A stale or torn checkpoint never fails the job —
    worst case the run starts over, exactly as if the checkpoint had not
    been written yet.
    """
    engine = None
    resumed_from: int | None = None
    if os.path.exists(checkpoint.path):
        try:
            engine = resume_engine(checkpoint.path, build)
        except CheckpointError as exc:
            warnings.warn(
                f"ignoring unusable checkpoint {checkpoint.path}: {exc}",
                stacklevel=2,
            )
        else:
            resumed_from = getattr(engine, "kernel", engine).tick
    if engine is None:
        engine = build()
    kernel = getattr(engine, "kernel", engine)
    kernel.arm_checkpoints(
        checkpoint.interval,
        path=checkpoint.path,
        heartbeat=HeartbeatWriter(checkpoint.heartbeat),
    )
    return engine, resumed_from


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


class _BatchProgress:
    """Replica-granular batch checkpoint: the driver both batch
    factories share.

    State on disk is one columnar :class:`SummaryBatch` document at
    ``checkpoint.progress`` holding every *completed* replica's summary
    plus an ``in_flight`` marker naming the replica being executed.
    Writes are atomic replaces, one per replica boundary, so a SIGKILL
    at any instant leaves either the previous or the next consistent
    document — never a torn one.

    The in-flight marker doubles as the stale-kernel-checkpoint guard:
    a kernel checkpoint at ``checkpoint.path`` is only trusted when the
    marker says it belongs to the replica about to run; anything else
    (e.g. a checkpoint the previous replica's crash left mid-removal)
    is discarded rather than resumed into the wrong replica.
    """

    def __init__(self, checkpoint: JobCheckpoint) -> None:
        self.checkpoint = checkpoint
        self.summaries: list[ReplicaSummary] = []
        self.in_flight: int | None = None
        if os.path.exists(checkpoint.progress):
            try:
                batch = SummaryBatch.load(checkpoint.progress)
            except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
                warnings.warn(
                    f"ignoring unusable batch checkpoint "
                    f"{checkpoint.progress}: {exc}",
                    stacklevel=3,
                )
            else:
                self.summaries = batch.summaries()
                marker = batch.meta.get("in_flight")
                self.in_flight = int(marker) if marker is not None else None  # type: ignore[arg-type]

    @property
    def completed(self) -> int:
        """Completed replica count — also the next replica to run,
        because replicas execute and persist in positional order."""
        return len(self.summaries)

    def begin(self, replica: int) -> None:
        """Mark ``replica`` in flight; discard any kernel checkpoint
        that belongs to a different replica."""
        if self.in_flight != replica:
            remove_checkpoint(self.checkpoint.path)
        self.in_flight = replica
        self._write()

    def finish(self, summary: ReplicaSummary) -> None:
        """Persist one completed replica and clear the in-flight marker."""
        self.summaries.append(summary)
        self.in_flight = None
        self._write()

    def _write(self) -> None:
        if self.summaries:
            batch = SummaryBatch.from_summaries(
                self.summaries, meta={"in_flight": self.in_flight}
            )
        else:
            batch = SummaryBatch.from_summaries(
                [], n=0, k=0, meta={"in_flight": self.in_flight}
            )
        batch.save(self.checkpoint.progress)

    def cleanup(self) -> None:
        """The batch finished: its progress file is spent."""
        _remove_quietly(self.checkpoint.progress)


@dataclass(frozen=True)
class BatchEngineRun(EngineRun):
    """Batched run factory: one registry engine, ``S`` seeds per call.

    The batch counterpart of :class:`EngineRun` —
    ``fn(point, seeds) -> SummaryBatch`` executes every seed through
    :class:`~repro.sim.array.montecarlo.BatchRunner` (all replicas
    share one packed ownership tensor on the vectorized array backend)
    and returns columnar per-replica summaries, never transfer logs.
    Replica ``j`` runs with exactly ``seeds[j]``, so it is bit-identical
    to the scalar job carrying the same seed; summaries include a
    holdings digest over the final ownership words to prove it.

    Only array-capable engines qualify (``BatchRunner`` raises for the
    rest); wrap a scalar factory in :class:`BatchedRuns` for the others.
    A ``backend`` option must be ``None`` or ``"array"`` — the batch
    path *is* the array backend.

    Checkpointing (``supports_checkpoint``, inherited) happens at batch
    granularity via :class:`_BatchProgress`: completed replicas persist
    to ``checkpoint.progress`` as they finish, while the in-flight
    replica writes ordinary kernel checkpoints to ``checkpoint.path`` —
    a killed worker re-runs at most one checkpoint interval of one
    replica.
    """

    supports_batch = True

    def __post_init__(self) -> None:
        backend = dict(self.options).get("backend")
        if backend not in (None, "array"):
            raise ConfigError(
                f"BatchEngineRun runs on the array backend by construction; "
                f"got backend={backend!r}"
            )

    def __call__(
        self,
        point: object,
        seeds: Sequence[int],
        checkpoint: JobCheckpoint | None = None,
    ) -> SummaryBatch:
        from ..sim.array.montecarlo import BatchRunner

        kwargs = self._engine_kwargs(point)
        # BatchRunner wires each replica's ArrayState itself, and
        # summaries never carry logs — these would collide or be wasted.
        kwargs.pop("backend", None)
        kwargs.pop("keep_log", None)
        runner = BatchRunner(
            self.engine,
            self.n,
            self.k,
            replicas=len(seeds),
            seeds=list(seeds),
            keep_log=False,
            **kwargs,
        )

        def summarize(i: int, seed: int, result: RunResult) -> ReplicaSummary:
            return summarize_result(
                result,
                replicate=i,
                seed=seed,
                masks=masks_from_words(runner.words(i)),
            )

        if checkpoint is None:
            summaries = [
                summarize(i, seed, result)
                for i, seed, result in runner.run_replicas()
            ]
            return SummaryBatch.from_summaries(
                summaries, n=runner.n, k=runner.k
            )

        progress = _BatchProgress(checkpoint)
        resumed_replicas = progress.completed
        pending_resume: int | None = None
        batch_resumed_tick: int | None = None

        def hook(i: int, build):
            nonlocal pending_resume, batch_resumed_tick
            progress.begin(i)
            engine, resumed_from = _checkpointed_engine(build, checkpoint)
            if resumed_from is not None:
                pending_resume = resumed_from
                if batch_resumed_tick is None:
                    batch_resumed_tick = resumed_from
            return engine

        try:
            for i, seed, result in runner.run_replicas(
                start_at=progress.completed, engine_hook=hook
            ):
                # This replica's kernel checkpoint is spent.
                remove_checkpoint(checkpoint.path)
                if pending_resume is not None:
                    result.meta["resumed_from_tick"] = pending_resume
                    pending_resume = None
                progress.finish(summarize(i, seed, result))
        finally:
            _remove_quietly(checkpoint.heartbeat)
        batch = SummaryBatch.from_summaries(
            progress.summaries,
            n=runner.n,
            k=runner.k,
            meta={
                "resumed_replicas": resumed_replicas,
                "resumed_from_tick": batch_resumed_tick,
            },
        )
        progress.cleanup()
        return batch


@dataclass(frozen=True)
class BatchedRuns:
    """Adapt any scalar run factory to the batch protocol.

    ``BatchedRuns(fn)(point, seeds)`` loops ``fn(point, seed)`` over the
    batch inside one worker and returns the columnar
    :class:`SummaryBatch` — trivially bit-identical to the job-per-run
    path (it *is* the same calls), while still amortising per-job pool
    and pickling overhead and shipping summaries instead of full
    results. ``sweep(..., replicas_per_batch=S)`` wraps non-batch
    factories in this adapter automatically, which is how loop-only
    engines (bittorrent, coding, async) and hand-written experiment
    factories ride the batched path.

    Checkpointing is replica-granular via the shared
    :class:`_BatchProgress` protocol; if the *inner* factory itself
    supports the checkpoint protocol (e.g. :class:`EngineRun`), the
    in-flight replica additionally writes kernel checkpoints and
    resumes mid-run.
    """

    fn: object

    supports_batch = True
    supports_checkpoint = True

    def __call__(
        self,
        point: object,
        seeds: Sequence[int],
        checkpoint: JobCheckpoint | None = None,
    ) -> SummaryBatch:
        if checkpoint is None:
            summaries = [
                summarize_result(self.fn(point, seed), replicate=i, seed=seed)
                for i, seed in enumerate(seeds)
            ]
            return SummaryBatch.from_summaries(summaries)

        inner_checkpoint = getattr(self.fn, "supports_checkpoint", False)
        progress = _BatchProgress(checkpoint)
        resumed_replicas = progress.completed
        batch_resumed_tick: int | None = None
        for i in range(progress.completed, len(seeds)):
            seed = seeds[i]
            progress.begin(i)
            if inner_checkpoint:
                result = self.fn(point, seed, checkpoint=checkpoint)
            else:
                result = self.fn(point, seed)
            summary = summarize_result(result, replicate=i, seed=seed)
            if (
                summary.resumed_from_tick is not None
                and batch_resumed_tick is None
            ):
                batch_resumed_tick = summary.resumed_from_tick
            progress.finish(summary)
        batch = SummaryBatch.from_summaries(
            progress.summaries,
            meta={
                "resumed_replicas": resumed_replicas,
                "resumed_from_tick": batch_resumed_tick,
            },
        )
        progress.cleanup()
        return batch
