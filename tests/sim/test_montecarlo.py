"""Validation of the batched Monte Carlo replica runner.

The :class:`~repro.sim.array.montecarlo.BatchRunner` contract is
two-sided (its module docstring points here):

* **exact** — replica ``i`` derives its seed through the campaign
  subsystem's :func:`~repro.campaign.model.derive_seed` and is therefore
  bit-identical to the scalar run on the same derived seed, on either
  backend;
* **distributional** — the batch's completion-time summary agrees (mean
  within overlapping 95% CIs) with independent scalar replicas drawn on
  disjoint seeds, i.e. batching reshapes storage, not statistics.

Plus the result surface: the stacked ``(S, n, k)`` ownership tensor, NaN
completion times and abort verdicts for incomplete replicas, the
progress hook, and configuration errors for non-array engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.model import derive_seed
from repro.core.errors import ConfigError
from repro.sim import create_engine, run_engine
from repro.sim.array.montecarlo import BatchResult, BatchRunner

N, K = 24, 12


def _masks_as_bool(masks: list[int], k: int) -> np.ndarray:
    return np.array(
        [[mask >> b & 1 for b in range(k)] for mask in masks], dtype=bool
    )


def test_replicas_bit_identical_to_scalar_runs():
    """Replica ``i`` == the scalar run on ``derive_seed(base, label, i)``:
    same completion time, same transfer log, same final holdings — and
    the loop backend agrees too (byte identity is backend-independent)."""
    batch = BatchRunner(
        "randomized", N, K, replicas=3, base_seed=5, keep_log=True
    ).run()
    assert batch.label == f"randomized:{N}x{K}"
    for i in range(3):
        seed = derive_seed(5, batch.label, i)
        assert batch.seeds[i] == seed
        for backend in ("loop", "array"):
            scalar = create_engine(
                "randomized", N, K, rng=seed, keep_log=True, backend=backend
            )
            result = scalar.run()
            assert result.completion_time == batch.results[i].completion_time
            assert (
                list(result.log) == list(batch.results[i].log)
            ), f"replica {i} diverges from the {backend} scalar run"
            assert np.array_equal(
                batch.ownership[i], _masks_as_bool(scalar.kernel.state.masks, K)
            )


def test_custom_label_changes_the_seed_stream():
    plain = BatchRunner("randomized", N, K, replicas=2, base_seed=5).run()
    relabeled = BatchRunner(
        "randomized", N, K, replicas=2, base_seed=5, label="sweep-a"
    ).run()
    assert relabeled.label == "sweep-a"
    assert relabeled.seeds == tuple(
        derive_seed(5, "sweep-a", i) for i in range(2)
    )
    assert relabeled.seeds != plain.seeds


def test_distributional_agreement_with_scalar_replicas():
    """Mean completion time of a batch ensemble falls within overlapping
    95% CIs of an independent scalar ensemble on disjoint seeds."""
    S = 12
    batch = BatchRunner("randomized", N, K, replicas=S, base_seed=1).run()
    assert bool(batch.completed.all())
    scalar_times = []
    for i in range(S):
        seed = derive_seed(2, "independent", i)
        result = run_engine("randomized", N, K, rng=seed, keep_log=False)
        assert result.completion_time is not None
        scalar_times.append(float(result.completion_time))

    from repro.analysis.stats import summarize

    ours = batch.completion_summary()
    theirs = summarize(scalar_times)
    assert abs(ours.mean - theirs.mean) <= ours.ci95 + theirs.ci95, (
        f"batch mean {ours.mean:.2f}±{ours.ci95:.2f} vs scalar "
        f"{theirs.mean:.2f}±{theirs.ci95:.2f}"
    )


def test_result_surface():
    S = 4
    batch = BatchRunner("randomized", N, K, replicas=S, base_seed=3).run()
    assert isinstance(batch, BatchResult)
    assert batch.ownership.shape == (S, N, K)
    assert batch.ownership.dtype == bool
    assert batch.completion_times.shape == (S,)
    # Completed replicas: every node (server included) holds all K blocks.
    holdings = batch.final_holdings()
    assert holdings.shape == (S, N)
    for i in range(S):
        if batch.completed[i]:
            assert (holdings[i] == K).all()
            assert batch.completion_times[i] == batch.results[i].completion_time
    assert batch.aborts == tuple(r.abort for r in batch.results)


def test_incomplete_replicas_are_nan_with_abort_verdicts():
    batch = BatchRunner(
        "randomized", N, K, replicas=2, base_seed=3, max_ticks=1
    ).run()
    assert not batch.completed.any()
    assert np.isnan(batch.completion_times).all()
    assert batch.aborts == ("max-ticks", "max-ticks")
    with pytest.raises(ConfigError, match="no completed replicas"):
        batch.completion_summary()


def test_progress_hook_sees_every_replica():
    seen = []
    batch = BatchRunner(
        "randomized",
        N,
        K,
        replicas=3,
        base_seed=7,
        progress=lambda i, result: seen.append((i, result.completion_time)),
    ).run()
    assert [i for i, _ in seen] == [0, 1, 2]
    assert [t for _, t in seen] == [
        r.completion_time for r in batch.results
    ]


def test_engine_options_forward_to_replicas():
    from repro.faults import FaultPlan

    batch = BatchRunner(
        "randomized",
        N,
        K,
        replicas=2,
        base_seed=11,
        faults=FaultPlan(loss_rate=0.2),
    ).run()
    assert all(
        r.meta["failed_transfers"] > 0 for r in batch.results
    ), "the fault plan should reach every replica"


def test_rejects_non_array_engine_by_name():
    with pytest.raises(ConfigError, match="bittorrent"):
        BatchRunner("bittorrent", N, K, replicas=2, base_seed=0)


def test_rejects_unknown_engine_and_bad_replica_count():
    with pytest.raises(ConfigError, match="unknown engine"):
        BatchRunner("nope", N, K, replicas=2, base_seed=0)
    with pytest.raises(ConfigError, match="at least one replica"):
        BatchRunner("randomized", N, K, replicas=0, base_seed=0)
