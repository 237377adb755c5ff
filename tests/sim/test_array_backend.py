"""Contract suite for the :mod:`repro.sim.array` backend.

The backend's headline promise is *equivalence*: an array-backed run is
indistinguishable — state, ledgers, logs, counters, return values — from
the loop backend. Two layers hold it to that:

* a Hypothesis property test drives random attempt scripts through
  :meth:`TickKernel.attempt` on both backends, including fault-judged
  failures, duplicate deliveries, credit charging and multi-tick runs, so
  the word mirror, deferred logging and pool bookkeeping stay exact;
* whole randomized runs compared across backends, for the vectorized
  cooperative tick and for every configuration the array backend hands
  to the scalar path (tiers, ``d != 1``, reseed, credit under loss),
  plus a lane-selection spy that pins which ticks vectorize.

Alongside them: the RNG micro-contract the vectorized randomized tick
relies on (the inlined ``getrandbits`` rejection loop is draw-for-draw
``Random.randrange``), the backend's configuration errors (unknown
backend names, array on a non-array engine), and the registry's soft
ambient default.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import AdversaryPlan
from repro.core.errors import ConfigError
from repro.core.mechanisms import CreditLimitedBarter
from repro.core.model import BandwidthModel
from repro.experiments.heterogeneity import mix_spec
from repro.faults import FaultPlan, RecoveryPolicy
from repro.overlays.random_regular import random_regular_graph
from repro.randomized.engine import RandomizedEngine, RandomizedTickPolicy
from repro.sim import create_engine, default_backend, set_default_backend
from repro.sim.array import BatchRunner
from repro.sim.kernel import TickKernel
from repro.sim.policy import TickPolicy


class ScriptedPolicy(TickPolicy):
    """Replay a fixed per-tick attempt script; no decisions, no draws.

    Feeds the script through ``kernel.attempt`` one attempt at a time.
    Everything else (faults, credit, capacity, logging, the array
    mirror) is the kernel's — which is exactly what the equivalence
    property exercises.
    """

    name = "scripted"
    supports_array = True

    def __init__(self, script: list[list[tuple[int, int, int]]]):
        self.script = script
        self.outcomes: list[bool] = []

    def run_tick(self, snapshot):
        attempts = self.script[self.kernel.tick - 1]
        self.outcomes.extend(self.kernel.attempt(s, d, b) for s, d, b in attempts)


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
def test_array_attempts_match_loop_attempts(case):
    """`kernel.attempt` on the array backend == on the loop backend:
    same masks, frequency counts, word mirror, capacity ledger, credit
    balances, both log streams, per-tick counters, pool layout, and the
    same per-attempt outcome vector — under faults and duplicates."""
    n, k, script, seed, loss, outage, credit_on, keep_log = case
    faults = (
        FaultPlan(loss_rate=loss, outage_rate=outage, outage_duration=2)
        if loss or outage
        else None
    )

    def build(backend: str | None) -> tuple[TickKernel, ScriptedPolicy]:
        policy = ScriptedPolicy(script)
        kernel = TickKernel(
            n,
            k,
            policy,
            rng=seed,
            keep_log=keep_log,
            faults=faults,
            credit=CreditLimitedBarter(3) if credit_on else None,
            backend=backend,
        )
        return kernel, policy

    loop, loop_policy = build(None)
    arr, arr_policy = build("array")
    for _ in script:
        loop.step()
        arr.step()
    arr.sync_log()

    assert arr_policy.outcomes == loop_policy.outcomes
    assert arr.state.masks == loop.state.masks
    assert np.array_equal(arr.state.freq, loop.state.freq)
    assert arr._dl_left == loop._dl_left
    assert arr.uploads_per_tick == loop.uploads_per_tick
    assert arr.failures_per_tick == loop.failures_per_tick
    # The swap-removal pool layout feeds later uniform draws in real
    # policies, so it must coincide exactly, not just as a set.
    assert arr._pool == loop._pool
    if credit_on:
        assert arr.credit.ledger._net == loop.credit.ledger._net
    if keep_log:
        assert list(arr.log) == list(loop.log)
        assert arr.log.failures == loop.log.failures
    else:
        assert len(arr.log) == len(loop.log) == 0
    # The word mirror stays bit-exact with the authoritative bigints.
    assert np.array_equal(
        arr.array.state.ownership(), _masks_as_bool(arr.state.masks, k)
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


# Configurations the array backend hands to the scalar path. No golden
# fixture arms them, so they are pinned here: tiers, d != 1, crash-only
# faults whose reseed recovery refuses the vectorized tick on ticks with
# a server-only block, and credit under loss across two ownership words.
# Each entry builds fresh options: a mechanism carries run state, so two
# engines must not share one.
_SCALAR_LANE = {
    "broadband-tiers": (32, lambda: {"bandwidth": mix_spec("broadband")}),
    "download-2": (32, lambda: {"model": BandwidthModel(download=2)}),
    "crash-reseed": (
        32,
        lambda: {
            "faults": FaultPlan(
                crash_rate=0.02, rejoin_delay=4, rejoin_retention=0.5, max_crashes=6
            ),
            "recovery": RecoveryPolicy(reseed=True),
        },
    ),
    "credit-loss-k96": (
        96,
        lambda: {
            "mechanism": CreditLimitedBarter(2),
            "faults": FaultPlan(loss_rate=0.1),
        },
    ),
}


@pytest.mark.parametrize(
    ("keep_log", "k", "options"),
    [
        pytest.param(True, 32, dict, id="True"),
        pytest.param(False, 32, dict, id="False"),
        *(
            pytest.param(True, k, options, id=name)
            for name, (k, options) in _SCALAR_LANE.items()
        ),
    ],
)
def test_randomized_run_parity_loop_vs_array(keep_log, k, options):
    """A full randomized run is byte-identical across backends with the
    transfer log on (eager vs deferred logging) and off (the fast lane's
    no-log path), and for every configuration that takes the scalar
    path on the array backend."""
    loop = RandomizedEngine(48, k, rng=9, keep_log=keep_log, **options())
    arr = RandomizedEngine(
        48, k, rng=9, keep_log=keep_log, backend="array", **options()
    )
    r_loop = loop.run()
    r_arr = arr.run()
    assert r_arr.completion_time == r_loop.completion_time
    assert arr.kernel.state.masks == loop.kernel.state.masks
    assert arr.kernel.uploads_per_tick == loop.kernel.uploads_per_tick
    assert arr.kernel.failures_per_tick == loop.kernel.failures_per_tick
    assert arr.kernel.rng.random() == loop.kernel.rng.random()
    if keep_log:
        assert list(r_arr.log) == list(r_loop.log)
        assert r_arr.log.failures == r_loop.log.failures


# -- lane selection ----------------------------------------------------------


@pytest.fixture
def lane_spy(monkeypatch):
    """Count ticks overall and ticks taken by the vectorized lane."""
    counts = {"ticks": 0, "vectorized": 0}
    run_tick = RandomizedTickPolicy.run_tick
    run_tick_array = RandomizedTickPolicy._run_tick_array

    def spy_run_tick(self, snapshot):
        counts["ticks"] += 1
        return run_tick(self, snapshot)

    def spy_run_tick_array(self, snapshot, backend):
        counts["vectorized"] += 1
        # The predicate refuses any tick with a server-only block under
        # reseed recovery, so a vectorized tick never sees one.
        if self.kernel.faults is not None and self.kernel.recovery.reseed:
            assert 1 not in self.kernel.state.freq
        return run_tick_array(self, snapshot, backend)

    monkeypatch.setattr(RandomizedTickPolicy, "run_tick", spy_run_tick)
    monkeypatch.setattr(RandomizedTickPolicy, "_run_tick_array", spy_run_tick_array)
    return counts


@pytest.mark.parametrize(
    "run",
    [
        pytest.param(
            lambda: RandomizedEngine(48, 32, rng=9, backend="array").run(),
            id="engine",
        ),
        pytest.param(
            lambda: BatchRunner("randomized", 40, 20, replicas=1, base_seed=3).run(),
            id="batch-replica",
        ),
    ],
)
def test_cooperative_array_run_vectorizes_every_tick(lane_spy, run):
    run()
    assert lane_spy["ticks"] > 0
    assert lane_spy["vectorized"] == lane_spy["ticks"]


def test_crash_reseed_run_refuses_reseed_ticks(lane_spy):
    """Tick 1 always has server-only blocks, so reseeding refuses it;
    once every block has a second holder the vectorized lane resumes."""
    _, options = _SCALAR_LANE["crash-reseed"]
    RandomizedEngine(48, 32, rng=9, backend="array", **options()).run()
    assert 0 < lane_spy["vectorized"] < lane_spy["ticks"]


@pytest.mark.parametrize(
    ("k", "options"),
    [
        *(
            pytest.param(k, options, id=name)
            for name, (k, options) in _SCALAR_LANE.items()
            if name != "crash-reseed"
        ),
        pytest.param(32, lambda: {"faults": FaultPlan(loss_rate=0.15)}, id="loss"),
        pytest.param(
            32, lambda: {"overlay": random_regular_graph(48, 6, rng=0)}, id="overlay"
        ),
        pytest.param(
            32, lambda: {"adversary": AdversaryPlan(free_riders=(3,))}, id="adversary"
        ),
    ],
)
def test_scalar_configurations_never_vectorize(lane_spy, k, options):
    RandomizedEngine(48, k, rng=9, backend="array", **options()).run()
    assert lane_spy["ticks"] > 0
    assert lane_spy["vectorized"] == 0
