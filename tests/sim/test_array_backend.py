"""Contract suite for the :mod:`repro.sim.array` backend.

The backend's headline promise is *equivalence*: ``ArrayBackend.submit``
applies a whole batch of attempts with vectorized operations, yet must be
indistinguishable — state, ledgers, logs, counters, return values — from
calling :meth:`TickKernel.attempt` sequentially on the same list. The
Hypothesis property test here holds it to that over random batches,
including fault-judged failures, duplicate deliveries, credit charging
and multi-tick runs (the backend docstring points here by name).

Alongside it: the RNG micro-contract the vectorized randomized tick
relies on (the inlined ``getrandbits`` rejection loop is draw-for-draw
``Random.randrange``), the backend's configuration errors (unknown
backend names, array on a non-array engine, ``submit`` under a live
receiver pool), the registry's soft ambient default, and loop/array
parity of whole randomized runs with the log on and off.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.mechanisms import CreditLimitedBarter
from repro.faults import FaultPlan
from repro.randomized.engine import RandomizedEngine
from repro.sim import create_engine, default_backend, set_default_backend
from repro.sim.kernel import TickKernel
from repro.sim.policy import TickPolicy


class ScriptedPolicy(TickPolicy):
    """Replay a fixed per-tick attempt script; no decisions, no draws.

    ``batched=False`` feeds the script through ``kernel.attempt`` one
    attempt at a time; ``batched=True`` hands each tick's attempts to
    ``kernel.array.submit`` in one call. Everything else (faults, credit,
    capacity, logging) is the kernel's — which is exactly what the
    equivalence property exercises.
    """

    name = "scripted"
    supports_array = True

    def __init__(self, script: list[list[tuple[int, int, int]]], batched: bool):
        self.script = script
        self.batched = batched
        self.outcomes: list[bool] = []

    def run_tick(self, snapshot):
        attempts = self.script[self.kernel.tick - 1]
        if not self.batched:
            self.outcomes.extend(
                self.kernel.attempt(s, d, b) for s, d, b in attempts
            )
            return
        srcs = np.array([a[0] for a in attempts], dtype=np.int64)
        dsts = np.array([a[1] for a in attempts], dtype=np.int64)
        blocks = np.array([a[2] for a in attempts], dtype=np.int64)
        self.outcomes.extend(self.kernel.array.submit(srcs, dsts, blocks).tolist())


def _masks_as_bool(masks: list[int], k: int) -> np.ndarray:
    return np.array(
        [[mask >> b & 1 for b in range(k)] for mask in masks], dtype=bool
    )


@st.composite
def _batch_case(draw):
    n = draw(st.integers(min_value=3, max_value=9))
    # k crossing 64 exercises the second word column of the mirror.
    k = draw(st.sampled_from([1, 3, 17, 64, 70]))
    ticks = draw(st.integers(min_value=1, max_value=2))
    script = []
    for _ in range(ticks):
        m = draw(st.integers(min_value=0, max_value=18))
        attempts = []
        for _ in range(m):
            src = draw(st.integers(min_value=0, max_value=n - 1))
            dst = draw(st.integers(min_value=0, max_value=n - 1))
            if dst == src:  # self-transfers are not legal barter pairs
                dst = (dst + 1) % n
            block = draw(st.integers(min_value=0, max_value=k - 1))
            attempts.append((src, dst, block))
        script.append(attempts)
    seed = draw(st.integers(min_value=0, max_value=2**32))
    loss = draw(st.sampled_from([0.0, 0.35, 0.8]))
    outage = draw(st.sampled_from([0.0, 0.2]))
    credit = draw(st.booleans())
    keep_log = draw(st.booleans())
    return n, k, script, seed, loss, outage, credit, keep_log


@settings(max_examples=60, deadline=None)
@given(_batch_case())
def test_submit_matches_sequential_attempts(case):
    """`submit` on a batch == `TickKernel.attempt` run sequentially:
    same masks, frequency counts, word mirror, capacity ledger, credit
    balances, both log streams, per-tick counters, pool layout, and the
    same per-attempt outcome vector — under faults and duplicates."""
    n, k, script, seed, loss, outage, credit_on, keep_log = case
    faults = (
        FaultPlan(loss_rate=loss, outage_rate=outage, outage_duration=2)
        if loss or outage
        else None
    )

    def build(batched: bool) -> tuple[TickKernel, ScriptedPolicy]:
        policy = ScriptedPolicy(script, batched=batched)
        kernel = TickKernel(
            n,
            k,
            policy,
            rng=seed,
            keep_log=keep_log,
            faults=faults,
            credit=CreditLimitedBarter(3) if credit_on else None,
            backend="array" if batched else None,
        )
        return kernel, policy

    seq, seq_policy = build(batched=False)
    bat, bat_policy = build(batched=True)
    for _ in script:
        seq.step()
        bat.step()
    bat.sync_log()

    assert bat_policy.outcomes == seq_policy.outcomes
    assert bat.state.masks == seq.state.masks
    assert np.array_equal(bat.state.freq, seq.state.freq)
    assert bat._dl_left == seq._dl_left
    assert bat.uploads_per_tick == seq.uploads_per_tick
    assert bat.failures_per_tick == seq.failures_per_tick
    # Completion-triggered removals replay in submission order, so the
    # swap-removal pool layout (which feeds later uniform draws in real
    # policies) must coincide exactly, not just as a set.
    assert bat._pool == seq._pool
    if credit_on:
        assert bat.credit.ledger._net == seq.credit.ledger._net
    if keep_log:
        assert bat.log._transfers == seq.log._transfers
        assert bat.log._failures == seq.log._failures
    else:
        assert len(bat.log) == len(seq.log) == 0
    # The word mirror stays bit-exact with the authoritative bigints.
    assert np.array_equal(
        bat.array.state.ownership(), _masks_as_bool(bat.state.masks, k)
    )


def test_inlined_randbelow_matches_randrange():
    """The vectorized randomized tick inlines CPython's ``_randbelow``
    rejection loop (``getrandbits`` until the draw fits); the byte
    identity of the array backend rests on that loop consuming the
    Mersenne stream exactly as ``Random.randrange`` does."""
    for seed in (0, 7, 123456789):
        inlined, reference = random.Random(seed), random.Random(seed)
        for size in [*range(1, 41), 63, 64, 65, 1000]:
            for _ in range(5):
                nbits = size.bit_length()
                r = inlined.getrandbits(nbits)
                while r >= size:
                    r = inlined.getrandbits(nbits)
                assert r == reference.randrange(size)


# -- configuration errors ----------------------------------------------------


def test_unknown_backend_name_is_rejected():
    with pytest.raises(ConfigError, match="unknown backend"):
        RandomizedEngine(8, 4, rng=1, backend="gpu")


def test_explicit_array_on_unsupporting_engine_names_the_engine():
    with pytest.raises(ConfigError, match="bittorrent"):
        create_engine("bittorrent", 8, 4, rng=1, backend="array")


def test_explicit_array_rejection_lists_capable_engines():
    with pytest.raises(ConfigError, match="randomized"):
        create_engine("coding", 8, 4, rng=1, backend="array")


def test_submit_refuses_live_receiver_pool():
    policy = ScriptedPolicy([[]], batched=True)
    kernel = TickKernel(6, 3, policy, rng=1, backend="array")
    kernel.activate_receiver_pool()
    with pytest.raises(ConfigError, match="receiver pool"):
        kernel.array.submit(
            np.array([0]), np.array([1]), np.array([0])
        )


def test_submit_refuses_array_pool_too():
    policy = ScriptedPolicy([[]], batched=True)
    kernel = TickKernel(6, 3, policy, rng=1, backend="array")
    kernel.array.activate_pool([1, 2, 3])
    with pytest.raises(ConfigError, match="receiver pool"):
        kernel.array.submit(
            np.array([0]), np.array([1]), np.array([0])
        )


def test_submit_rejects_mismatched_shapes():
    policy = ScriptedPolicy([[]], batched=True)
    kernel = TickKernel(6, 3, policy, rng=1, backend="array")
    with pytest.raises(ConfigError, match="equal-length"):
        kernel.array.submit(
            np.array([0, 0]), np.array([1]), np.array([0])
        )


def test_submit_empty_batch_is_a_noop():
    policy = ScriptedPolicy([[]], batched=True)
    kernel = TickKernel(6, 3, policy, rng=1, backend="array")
    ok = kernel.array.submit(
        np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0, np.int64)
    )
    assert ok.shape == (0,) and ok.dtype == bool


# -- ambient default ---------------------------------------------------------


def test_ambient_default_is_soft():
    """`set_default_backend("array")` flips array-capable engines only;
    engines without array support silently keep the loop (an *explicit*
    array request on them still errors)."""
    previous = set_default_backend("array")
    try:
        assert default_backend() == "array"
        arr = create_engine("randomized", 8, 4, rng=1)
        assert arr.kernel.array is not None
        loop = create_engine("bittorrent", 8, 4, rng=1)
        assert loop.kernel.array is None
        # Explicit backend always wins over the ambient default.
        explicit = create_engine("randomized", 8, 4, rng=1, backend="loop")
        assert explicit.kernel.array is None
    finally:
        set_default_backend(previous)
    assert default_backend() == previous


def test_set_default_backend_validates_and_returns_previous():
    before = default_backend()
    with pytest.raises(ConfigError, match="unknown backend"):
        set_default_backend("gpu")
    assert default_backend() == before


# -- whole-run parity --------------------------------------------------------


@pytest.mark.parametrize("keep_log", [True, False])
def test_randomized_run_parity_loop_vs_array(keep_log):
    """A full randomized run is byte-identical across backends with the
    transfer log on (eager vs deferred logging) and off (the fast lane's
    no-log path)."""
    loop = RandomizedEngine(48, 32, rng=9, keep_log=keep_log)
    arr = RandomizedEngine(48, 32, rng=9, keep_log=keep_log, backend="array")
    r_loop = loop.run()
    r_arr = arr.run()
    assert r_arr.completion_time == r_loop.completion_time
    assert arr.kernel.state.masks == loop.kernel.state.masks
    assert arr.kernel.uploads_per_tick == loop.kernel.uploads_per_tick
    assert arr.kernel.rng.random() == loop.kernel.rng.random()
    if keep_log:
        assert r_arr.log._transfers == r_loop.log._transfers
        assert r_arr.log._failures == r_loop.log._failures
