"""Batched Monte Carlo replicas over one stacked ownership tensor.

The paper's headline figures are distributions — completion time of a
randomized swarm at a given ``(n, k)``, over many seeds. Before this
module a sweep obtained them one scalar run at a time;
:class:`BatchRunner` runs ``S`` seed-replicas of one configuration with
the replica index as an extra array dimension: every replica's
:class:`~repro.sim.array.state.ArrayState` is a view into a single
``(S, n, w)`` packed ownership tensor, so the batch ends with the whole
ensemble's final holdings in one contiguous array and hands
:mod:`repro.analysis` / :mod:`repro.campaign` a whole distribution per
call.

Replica seeds derive from ``(base_seed, label, replica_index)`` through
:func:`repro.campaign.model.derive_seed` — the same derivation the
campaign subsystem uses — so replica ``i`` of a batch is *bit-identical*
to the scalar run with the same derived seed. That makes the validation
contract two-sided: exact per-replica equality against scalar runs on
the same seeds, and distributional agreement (completion-time mean/CI)
against independent scalar replicas on disjoint seeds
(``tests/sim/test_montecarlo.py`` checks both).

Replica trajectories are independent RNG streams, so the runs execute
sequentially — the array dimension batches *state and results*, and each
run individually executes on the vectorized array backend.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ...core.errors import ConfigError
from ...core.log import RunResult
from .state import ArrayState

__all__ = ["BatchResult", "BatchRunner"]

#: Hook applied to each replica's engine between construction and run —
#: ``engine_hook(replica_index, build) -> engine`` where ``build()``
#: constructs the engine fresh. The campaign layer uses it to resume an
#: in-flight replica from a kernel checkpoint and to arm checkpointing.
EngineHook = Callable[[int, Callable[[], object]], object]


@dataclass(slots=True)
class BatchResult:
    """Outcome of ``S`` replicas of one configuration.

    ``ownership`` is the stacked final holdings — ``(S, n, k)`` bool,
    replica-major — unpacked once from the shared word tensor.
    ``completion_times`` is ``(S,)`` float64 with ``NaN`` for replicas
    that did not complete.
    """

    engine: str
    n: int
    k: int
    replicas: int
    base_seed: int
    label: str
    seeds: tuple[int, ...]
    results: tuple[RunResult, ...]
    ownership: np.ndarray
    completion_times: np.ndarray

    @property
    def completed(self) -> np.ndarray:
        """Per-replica completion mask, ``(S,)`` bool."""
        return ~np.isnan(self.completion_times)

    @property
    def aborts(self) -> tuple[str | None, ...]:
        """Per-replica abort verdicts (``None`` for clean completions)."""
        return tuple(r.abort for r in self.results)

    def final_holdings(self) -> np.ndarray:
        """Per-replica, per-node block counts, ``(S, n)`` int64."""
        return self.ownership.sum(axis=2, dtype=np.int64)

    def summaries(self):
        """Compact per-replica summaries (campaign transport format).

        Each :class:`~repro.campaign.summaries.ReplicaSummary` carries
        the replica's completion statistics, metadata and a holdings
        digest computed from the stacked ownership tensor — everything
        the campaign layer ships back from a worker, with no transfer
        logs attached.
        """
        from ...campaign.summaries import summarize_result

        out = []
        for i, result in enumerate(self.results):
            packed = np.packbits(
                self.ownership[i].astype(np.uint8), axis=1, bitorder="little"
            )
            masks = [
                int.from_bytes(row.tobytes(), "little") for row in packed
            ]
            out.append(
                summarize_result(
                    result, replicate=i, seed=self.seeds[i], masks=masks
                )
            )
        return out

    def completion_summary(self):
        """Completion-time distribution as an analysis
        :class:`~repro.analysis.stats.Summary` (mean, spread, 95% CI)
        over the completed replicas."""
        from ...analysis.stats import summarize

        values = self.completion_times[self.completed]
        if values.size == 0:
            raise ConfigError(
                f"no completed replicas to summarize "
                f"(aborts: {sorted(set(self.aborts))})"
            )
        return summarize([float(v) for v in values])


class BatchRunner:
    """Run ``S`` seed-replicas of one engine configuration as a batch.

    Parameters
    ----------
    engine:
        Registry name; must be an array-capable engine (randomized,
        exchange) — others raise
        :class:`~repro.core.errors.ConfigError` naming the engine.
    n, k, **options:
        Forwarded to the engine factory (overlay, mechanism, faults, ...).
    replicas:
        Number of seed-replicas ``S``.
    base_seed, label:
        Replica ``i`` runs with
        ``derive_seed(base_seed, label, i)``; ``label`` defaults to
        ``"{engine}:{n}x{k}"``.
    seeds:
        Explicit per-replica seeds (length ``replicas``), overriding the
        ``derive_seed`` derivation — the campaign layer passes the seeds
        its jobs already carry so batch replica ``i`` is bit-identical
        to the scalar job with the same seed.
    keep_log:
        Keep full transfer logs on every replica (defaults off — batch
        results are distribution-shaped; per-tick counts survive anyway).
    progress:
        Optional ``progress(replica_index, result)`` callback.
    """

    def __init__(
        self,
        engine: str,
        n: int,
        k: int,
        *,
        replicas: int,
        base_seed: int = 0,
        label: str | None = None,
        seeds: Sequence[int] | None = None,
        keep_log: bool = False,
        progress: Callable[[int, RunResult], None] | None = None,
        **options: object,
    ) -> None:
        from ..registry import ENGINES

        spec = ENGINES.get(engine)
        if spec is None:
            raise ConfigError(
                f"unknown engine {engine!r}; registered: {', '.join(ENGINES)}"
            )
        if not spec.array_backend:
            raise ConfigError(
                f"the {engine} engine does not support the array backend; "
                f"BatchRunner needs one of: "
                + ", ".join(s.name for s in ENGINES.values() if s.array_backend)
            )
        if replicas < 1:
            raise ConfigError(f"need at least one replica, got {replicas}")
        if seeds is not None and len(seeds) != replicas:
            raise ConfigError(
                f"got {len(seeds)} explicit seeds for {replicas} replicas"
            )
        self.engine = engine
        self.n = n
        self.k = k
        self.replicas = replicas
        self.base_seed = base_seed
        self.label = label if label is not None else f"{engine}:{n}x{k}"
        self.keep_log = keep_log
        self.progress = progress
        self.options = dict(options)
        self._seeds = (
            tuple(int(s) for s in seeds)
            if seeds is not None
            else None
        )
        # One shared packed tensor; replica i's ArrayState wraps tensor[i].
        self._tensor = np.zeros((replicas, n, (k + 63) >> 6), dtype=np.uint64)

    def seed_for(self, i: int) -> int:
        """The seed replica ``i`` runs with (explicit or derived)."""
        if self._seeds is not None:
            return self._seeds[i]
        from ...campaign.model import derive_seed

        return derive_seed(self.base_seed, self.label, i)

    def words(self, i: int) -> np.ndarray:
        """Replica ``i``'s packed ``(n, w)`` ownership words (a view)."""
        return self._tensor[i]

    def run_one(
        self, i: int, engine_hook: EngineHook | None = None
    ) -> RunResult:
        """Execute replica ``i`` on its tensor slice.

        ``engine_hook(i, build)`` — when given — replaces plain engine
        construction; the campaign layer uses it to resume an in-flight
        replica from a kernel checkpoint and arm periodic checkpoints.
        The hook's engine must be built through ``build()`` (possibly
        via :func:`repro.checkpoint.resume_engine`) so its state stays a
        view into the shared tensor.
        """
        from ..registry import create_engine

        seed = self.seed_for(i)
        state = ArrayState(self.n, self.k, words=self._tensor[i])

        def build():
            return create_engine(
                self.engine,
                self.n,
                self.k,
                backend=state,
                rng=seed,
                keep_log=self.keep_log,
                **self.options,
            )

        engine = engine_hook(i, build) if engine_hook is not None else build()
        result = engine.run()
        if self.progress is not None:
            self.progress(i, result)
        return result

    def run_replicas(
        self,
        start_at: int = 0,
        engine_hook: EngineHook | None = None,
    ) -> Iterator[tuple[int, int, RunResult]]:
        """Yield ``(i, seed, result)`` per replica, from ``start_at``.

        The incremental form of :meth:`run`: the campaign's batch
        factory consumes it so a resumed batch skips already-summarised
        replicas and a batch checkpoint can be written between yields.
        """
        for i in range(start_at, self.replicas):
            yield i, self.seed_for(i), self.run_one(i, engine_hook)

    def run(self) -> BatchResult:
        """Execute all replicas; returns the stacked :class:`BatchResult`."""
        seeds: list[int] = []
        results: list[RunResult] = []
        times = np.full(self.replicas, np.nan, dtype=np.float64)
        for i, seed, result in self.run_replicas():
            seeds.append(seed)
            results.append(result)
            if result.completion_time is not None:
                times[i] = result.completion_time
        return BatchResult(
            engine=self.engine,
            n=self.n,
            k=self.k,
            replicas=self.replicas,
            base_seed=self.base_seed,
            label=self.label,
            seeds=tuple(seeds),
            results=tuple(results),
            ownership=_unpack(self._tensor, self.k),
            completion_times=times,
        )


def _unpack(tensor: np.ndarray, k: int) -> np.ndarray:
    """Unpack an ``(S, n, w)`` word tensor to ``(S, n, k)`` bool."""
    import sys

    S, n, w = tensor.shape
    src = tensor if sys.byteorder == "little" else tensor.astype("<u8")
    raw = np.ascontiguousarray(src).view(np.uint8).reshape(S * n, w * 8)
    bits = np.unpackbits(raw, axis=1, bitorder="little")[:, :k]
    return bits.astype(bool).reshape(S, n, k)
