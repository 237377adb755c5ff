"""Batched campaign execution: bit-identity with the scalar path,
replica-granular caching, streaming aggregation, and batch-checkpoint
resume after hard kills.

Run factories live at module level so the process pool can pickle them.
"""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass

import pytest

from repro.analysis.sweeps import sweep
from repro.campaign import (
    BatchedRuns,
    BatchEngineRun,
    Campaign,
    CheckpointSpec,
    EngineRun,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
    derive_seed,
)
from repro.campaign.model import BatchJob, BatchOutcome
from repro.campaign.summaries import (
    ReplicaSummary,
    SummaryBatch,
    holdings_digest,
    masks_from_words,
    summarize_result,
)
from repro.campaign.telemetry import CampaignStats
from repro.core.errors import ConfigError
from repro.sim.registry import create_engine, run_engine
from repro.workloads import WorkloadSpec

#: Every engine the vectorized array backend supports (BatchEngineRun
#: covers exactly these), plus ``churn``: the randomized engine with
#: arrival/departure tables.
ARRAY_CASES = {
    "randomized": ("randomized", {}),
    "churn": (
        "randomized",
        {"workload": WorkloadSpec(arrivals=((3, 4),), departures=((2, 6),))},
    ),
    "exchange": ("exchange", {}),
}


def _scalar_fingerprint(
    engine_name: str, n: int, k: int, seed: int, **options
) -> tuple:
    """Reference run on the scalar path, including final holdings."""
    engine = create_engine(engine_name, n, k, rng=seed, keep_log=False, **options)
    result = engine.run()
    return (
        result.completion_time,
        result.client_completions,
        result.abort,
        holdings_digest(engine.kernel.state.masks),
    )


def _summary_fingerprint(summary: ReplicaSummary) -> tuple:
    return (
        summary.completion_time,
        summary.client_completions,
        summary.abort,
        summary.holdings_digest,
    )


def _point_fingerprint(point) -> tuple:
    return (
        point.label,
        None if point.completion is None else (
            point.completion.count,
            point.completion.mean,
            point.completion.std,
            point.completion.ci95,
        ),
        point.timeouts,
        point.runs,
        point.mean_client_completion,
    )


@dataclass(frozen=True)
class CrashOnSeed:
    """Scalar factory whose process hard-dies the first time it runs
    ``die_seed`` (the marker file records that the death happened).

    Wrapped in :class:`BatchedRuns` under a parallel executor this
    simulates a worker SIGKILLed mid-batch: replicas before
    ``die_seed`` are already persisted in the batch checkpoint, and the
    retry must resume from there instead of re-running them.
    """

    n: int
    k: int
    die_seed: int
    marker: str

    def __call__(self, point: object, seed: int):
        if seed == self.die_seed and not os.path.exists(self.marker):
            with open(self.marker, "w", encoding="utf-8") as handle:
                handle.write("died")
            os.kill(os.getpid(), signal.SIGKILL)
        return run_engine("randomized", self.n, self.k, rng=seed, keep_log=False)


class TestBatchEngineRunBitIdentity:
    @pytest.mark.parametrize("case", sorted(ARRAY_CASES))
    def test_batch_replicas_match_scalar_runs(self, case):
        engine, options = ARRAY_CASES[case]
        n, k, replicas = 16, 8, 3
        seeds = [derive_seed(11, "pt", i) for i in range(replicas)]
        batch = BatchEngineRun.configure(engine, n, k, **options)({}, seeds)
        assert len(batch) == replicas
        for i, summary in enumerate(batch):
            assert summary.seed == seeds[i]
            assert _summary_fingerprint(summary) == _scalar_fingerprint(
                engine, n, k, seeds[i], **options
            )

    def test_digest_matches_array_words(self):
        factory = BatchEngineRun.configure("randomized", 12, 6)
        seeds = [derive_seed(0, None, i) for i in range(2)]
        # Stop mid-distribution: completed runs all end with full
        # holdings, so only a truncated run makes digests discriminate.
        batch = factory({"max_ticks": 4}, seeds)
        engine = create_engine(
            "randomized", 12, 6, rng=seeds[0], keep_log=False, max_ticks=4
        )
        engine.run()
        assert batch[0].holdings_digest == holdings_digest(engine.kernel.state.masks)
        # Different seeds take different paths through the swarm.
        assert batch[0].holdings_digest != batch[1].holdings_digest

    def test_timeouts_summarised_as_aborts(self):
        factory = BatchEngineRun.configure("randomized", 16, 8)
        batch = factory({"max_ticks": 3}, [derive_seed(0, None, 0)])
        assert not batch[0].completed
        assert batch[0].abort is not None
        assert not batch.completed.any()

    def test_rejects_loop_backend(self):
        with pytest.raises(ConfigError, match="array"):
            BatchEngineRun.configure("randomized", 8, 4, backend="loop")


class TestBatchedRunsAdapter:
    def test_wraps_scalar_factory_bit_identically(self):
        inner = EngineRun.configure("bittorrent", 12, 6, keep_log=False)
        seeds = [derive_seed(3, "x", i) for i in range(3)]
        batch = BatchedRuns(inner)("x", seeds)
        for i, summary in enumerate(batch):
            reference = inner("x", seeds[i])
            assert summary.replicate == i
            assert summary.completion_time == reference.completion_time
            assert summary.client_completions == reference.client_completions
            assert summary.abort == reference.abort
            # The generic adapter has no access to final holdings.
            assert summary.holdings_digest is None

    def test_meta_preserved_for_analysis_readers(self):
        inner = EngineRun.configure("randomized", 12, 6, keep_log=False)
        seed = derive_seed(0, None, 0)
        summary = BatchedRuns(inner)(None, [seed])[0]
        assert summary.meta == inner(None, seed).meta
        rehydrated = summary.as_result()
        assert rehydrated.meta == summary.meta
        assert len(rehydrated.log) == 0


class TestBatchModel:
    def test_batch_job_validates_lengths(self):
        with pytest.raises(ConfigError, match="seeds"):
            BatchJob("e", None, (0, 1), (7,), lambda p, s: None)
        with pytest.raises(ConfigError, match="at least one replica"):
            BatchJob("e", None, (), (), lambda p, s: None)

    def test_from_batched_sweep_chunks_and_reuses_seeds(self):
        fn = BatchedRuns(lambda p, s: None)
        scalar = Campaign.from_sweep("e", ["a", "b"], None, 5, base_seed=9)
        batched = Campaign.from_batched_sweep(
            "e", ["a", "b"], fn, 5, base_seed=9, replicas_per_batch=2
        )
        # ceil(5 / 2) = 3 batches per point.
        assert len(batched.jobs) == 6
        assert [j.replicates for j in batched.jobs[:3]] == [
            (0, 1), (2, 3), (4,)
        ]
        by_rep = {
            (job.point, r): s
            for job in batched.jobs
            for r, s in zip(job.replicates, job.seeds)
        }
        for job in scalar.jobs:
            assert by_rep[(job.point, job.replicate)] == job.seed


class TestSweepEquivalence:
    POINTS = [{}, {"max_ticks": 4}]

    def _factory(self):
        return EngineRun.configure("randomized", 16, 8, keep_log=False)

    def test_batched_serial_matches_scalar(self):
        factory = self._factory()
        scalar = sweep(self.POINTS, factory, replicates=5, base_seed=21)
        for rpb in (1, 2, 5):
            batched = sweep(
                self.POINTS,
                factory,
                replicates=5,
                base_seed=21,
                replicas_per_batch=rpb,
            )
            assert [_point_fingerprint(p) for p in batched] == [
                _point_fingerprint(p) for p in scalar
            ]

    def test_batched_parallel_matches_scalar(self):
        factory = self._factory()
        scalar = sweep(self.POINTS, factory, replicates=4, base_seed=21)
        batched = sweep(
            self.POINTS,
            factory,
            replicates=4,
            base_seed=21,
            replicas_per_batch=2,
            executor=ParallelExecutor(jobs=2),
        )
        assert [_point_fingerprint(p) for p in batched] == [
            _point_fingerprint(p) for p in scalar
        ]

    def test_keep_results_parity(self):
        factory = self._factory()
        scalar = sweep([{}], factory, replicates=3, base_seed=5, keep_results=True)
        batched = sweep(
            [{}],
            factory,
            replicates=3,
            base_seed=5,
            keep_results=True,
            replicas_per_batch=2,
        )
        assert len(batched[0].results) == 3
        for a, b in zip(scalar[0].results, batched[0].results):
            assert a.completion_time == b.completion_time
            assert a.client_completions == b.client_completions
            assert a.meta == b.meta

    def test_progress_sees_global_replicate_indices(self):
        seen: list[int] = []
        sweep(
            [{}],
            self._factory(),
            replicates=4,
            base_seed=5,
            replicas_per_batch=2,
            progress=lambda point, replicate, result: seen.append(replicate),
        )
        assert sorted(seen) == [0, 1, 2, 3]

    def test_batch_factory_used_directly(self):
        scalar = sweep(
            [{}], self._factory(), replicates=3, base_seed=13
        )
        batched = sweep(
            [{}],
            BatchEngineRun.configure("randomized", 16, 8),
            replicates=3,
            base_seed=13,
            replicas_per_batch=3,
            experiment="EngineRun",
        )
        assert _point_fingerprint(batched[0]) == _point_fingerprint(scalar[0])


class TestReplicaCache:
    def _factory(self):
        return EngineRun.configure("randomized", 16, 8, keep_log=False)

    def test_warm_batches_execute_nothing(self, tmp_path):
        factory = self._factory()
        cache = ResultCache(str(tmp_path))
        sweep([{}], factory, replicates=4, base_seed=7,
              replicas_per_batch=2, cache=cache)
        executor = SerialExecutor()
        again = sweep([{}], factory, replicates=4, base_seed=7,
                      replicas_per_batch=2, cache=cache, executor=executor)
        stats = executor.last_stats
        assert stats.executed == 0 and stats.runs == 0
        assert stats.cached == 2 and stats.replicas_cached == 4
        fresh = sweep([{}], factory, replicates=4, base_seed=7)
        assert _point_fingerprint(again[0]) == _point_fingerprint(fresh[0])

    def test_rechunking_still_hits(self, tmp_path):
        factory = self._factory()
        cache = ResultCache(str(tmp_path))
        sweep([{}], factory, replicates=4, base_seed=7,
              replicas_per_batch=2, cache=cache)
        executor = SerialExecutor()
        sweep([{}], factory, replicates=4, base_seed=7,
              replicas_per_batch=4, cache=cache, executor=executor)
        assert executor.last_stats.runs == 0
        assert executor.last_stats.replicas_cached == 4

    def test_partial_batch_executes_only_missing_replicas(self, tmp_path):
        factory = self._factory()
        cache = ResultCache(str(tmp_path))
        sweep([{}], factory, replicates=2, base_seed=7,
              replicas_per_batch=2, cache=cache)
        executor = SerialExecutor()
        widened = sweep([{}], factory, replicates=4, base_seed=7,
                        replicas_per_batch=4, cache=cache, executor=executor)
        stats = executor.last_stats
        assert stats.replicas_cached == 2 and stats.runs == 2
        fresh = sweep([{}], factory, replicates=4, base_seed=7)
        assert _point_fingerprint(widened[0]) == _point_fingerprint(fresh[0])

    def test_summary_records_stay_jsonl_readable(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        sweep([{}], self._factory(), replicates=2, base_seed=7,
              replicas_per_batch=2, cache=cache)
        with open(cache.path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        assert len(records) == 2
        assert all("summary" in r and "key" in r for r in records)

    def test_scalar_and_summary_records_coexist(self, tmp_path):
        factory = self._factory()
        cache = ResultCache(str(tmp_path))
        sweep([{}], factory, replicates=2, base_seed=7, cache=cache)
        sweep([{}], factory, replicates=2, base_seed=7,
              replicas_per_batch=2, cache=cache)
        # Reopen: the lazy index must resolve both record kinds.
        reopened = ResultCache(str(tmp_path))
        executor = SerialExecutor()
        sweep([{}], factory, replicates=2, base_seed=7,
              cache=reopened, executor=executor)
        assert executor.last_stats.cached == 2
        executor = SerialExecutor()
        sweep([{}], factory, replicates=2, base_seed=7,
              replicas_per_batch=2, cache=reopened, executor=executor)
        assert executor.last_stats.replicas_cached == 2


class TestBatchCheckpointResume:
    def test_direct_resume_from_progress_file(self, tmp_path):
        """A pre-existing batch checkpoint skips its completed replicas
        and the merged batch is identical to an uninterrupted one."""
        factory = BatchEngineRun.configure("randomized", 16, 8)
        seeds = [derive_seed(29, None, i) for i in range(3)]
        spec = CheckpointSpec(str(tmp_path / "ckpts"), interval=2)
        full = factory(None, seeds, checkpoint=spec.for_job("whole"))

        interrupted = spec.for_job("resumed")
        SummaryBatch.from_summaries(
            [full[0]], meta={"in_flight": None}
        ).save(interrupted.progress)
        resumed = factory(None, seeds, checkpoint=interrupted)
        assert resumed.meta["resumed_replicas"] == 1
        assert [_summary_fingerprint(s) for s in resumed] == [
            _summary_fingerprint(s) for s in full
        ]
        assert not os.path.exists(interrupted.progress)

    def test_stale_kernel_checkpoint_is_discarded(self, tmp_path):
        """A kernel checkpoint belonging to a *different* replica (left
        behind by a crash mid-removal) must not be resumed into the next
        replica — the in-flight marker guards it."""
        factory = BatchEngineRun.configure("randomized", 16, 8)
        seeds = [derive_seed(31, None, i) for i in range(2)]
        spec = CheckpointSpec(str(tmp_path / "ckpts"), interval=2)
        full = factory(None, seeds, checkpoint=spec.for_job("whole"))

        poisoned = spec.for_job("poisoned")
        SummaryBatch.from_summaries(
            [full[0]], meta={"in_flight": None}
        ).save(poisoned.progress)
        # Plant a mid-run checkpoint from replica 0's seed at the path
        # the next replica would otherwise resume from.
        from repro.checkpoint import save_checkpoint

        payloads: dict[int, dict] = {}
        engine = create_engine("randomized", 16, 8, rng=seeds[0])
        engine.kernel.arm_checkpoints(
            1, sink=lambda p: payloads.setdefault(p["tick"], p)
        )
        engine.run()
        mid = sorted(payloads)[len(payloads) // 2]
        save_checkpoint(poisoned.path, payloads[mid])

        resumed = factory(None, seeds, checkpoint=poisoned)
        assert resumed[1].resumed_from_tick is None
        assert _summary_fingerprint(resumed[1]) == _summary_fingerprint(
            full[1]
        )

    def test_sigkilled_batch_worker_resumes_from_batch_checkpoint(
        self, tmp_path
    ):
        """End-to-end preemption: a worker SIGKILLs itself mid-batch; the
        retry resumes from the batch checkpoint (replicas 0..j-1 are not
        re-run) and the merged batch is bit-identical to scalar runs."""
        n, k, replicates = 16, 8, 4
        base_seed, die_at = 37, 2
        die_seed = derive_seed(base_seed, None, die_at)
        factory = BatchedRuns(
            CrashOnSeed(n, k, die_seed, str(tmp_path / "died"))
        )
        campaign = Campaign.from_batched_sweep(
            "crash", [None], factory, replicates, base_seed,
            replicas_per_batch=replicates,
        )
        spec = CheckpointSpec(str(tmp_path / "ckpts"), interval=5)
        executor = ParallelExecutor(jobs=1, retries=1, checkpoint=spec)
        outcomes = executor.run(campaign)

        assert os.path.exists(str(tmp_path / "died"))  # it really died
        (outcome,) = outcomes
        assert isinstance(outcome, BatchOutcome) and outcome.ok
        assert outcome.attempts == 2
        assert executor.last_stats.retried == 1
        # Replicas before the kill came back from the batch checkpoint.
        assert outcome.resumed_replicas == die_at
        assert executor.last_stats.resumed == die_at
        for i, summary in enumerate(outcome.summaries):
            seed = derive_seed(base_seed, None, i)
            reference = run_engine("randomized", n, k, rng=seed, keep_log=False)
            assert summary.replicate == i
            assert summary.completion_time == reference.completion_time
            assert summary.client_completions == reference.client_completions

    def test_mid_replica_kernel_resume_inside_batch(self, tmp_path):
        """A factory preempted *mid-replica* resumes that replica from
        its kernel checkpoint: the summary records ``resumed_from_tick``
        and still matches an uninterrupted run bit-for-bit."""
        from tests.campaign.test_checkpointing import PreemptedRun

        n, k = 16, 8
        inner = PreemptedRun(n, k, die_at=4, marker=str(tmp_path / "boom"))
        campaign = Campaign.from_batched_sweep(
            "preempt", [None], BatchedRuns(inner), 2, base_seed=41,
            replicas_per_batch=2,
        )
        spec = CheckpointSpec(str(tmp_path / "ckpts"), interval=2)
        executor = ParallelExecutor(jobs=1, retries=1, checkpoint=spec)
        (outcome,) = executor.run(campaign)

        assert outcome.ok and outcome.attempts == 2
        assert outcome.resumed_replicas == 0  # died inside replica 0
        first = outcome.summaries[0]
        assert first.resumed_from_tick is not None
        assert first.resumed_from_tick >= 2
        assert outcome.resumed_from_tick == first.resumed_from_tick
        for i, summary in enumerate(outcome.summaries):
            seed = derive_seed(41, None, i)
            reference = run_engine("randomized", n, k, rng=seed)
            assert summary.completion_time == reference.completion_time
            assert summary.client_completions == reference.client_completions


class TestBatchTelemetry:
    def test_batch_counters_and_summary_line(self):
        executor = SerialExecutor()
        sweep(
            [{}],
            EngineRun.configure("randomized", 16, 8, keep_log=False),
            replicates=4,
            base_seed=3,
            replicas_per_batch=2,
            executor=executor,
        )
        stats = executor.last_stats
        assert stats.batches == 2
        assert stats.runs == 4
        assert stats.executed == 2  # a batch is one task
        assert stats.runs_per_sec > 0
        assert "4 runs in 2 batches" in stats.summary()

    def test_console_progress_renders_replica_rates(self):
        import io

        from repro.campaign import ConsoleProgress

        stats = CampaignStats(total=2)
        stats.executed = stats.batches = 1
        stats.runs = 3
        stream = io.StringIO()
        job = Campaign.from_batched_sweep(
            "t", [None], BatchedRuns(lambda p, s: None), 1, 0,
            replicas_per_batch=1,
        ).jobs[0]
        ConsoleProgress(stream)(
            stats, BatchOutcome(job=job, summaries=[])
        )
        assert "runs/s" in stream.getvalue()
