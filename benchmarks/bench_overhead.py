"""Overhead gates: a run with one axis armed against the same run plain.

Each arm in :data:`ARMS` arms something that must cost almost nothing
when it never acts, and bounds its per-tick slowdown:

* ``faults-*`` — an injector with one server outage far beyond any
  reachable tick: every attempt is judged, none fails. Seeding the
  injector draws once from the engine RNG, so the armed run follows a
  different trajectory from its baseline and finishes in a slightly
  different number of ticks — luck, not injector cost, hence per tick.
* ``adversary`` — a driver with an explicit free-rider whose window
  opens beyond any reachable tick: consulted on every tick and attempt,
  never acts, draws no RNG.
* ``telemetry`` — the post-run digest plus a null ``BandwidthClasses``
  (normalised away before the loop); the baseline keeps the log too,
  since the digest reads it.
* ``checkpoint`` — a real checkpoint every 50 ticks over the first 300
  ticks of the run, with the log kept (plain and armed) so the log's
  sidecar appends are timed too: document encode, digest, fsyncs and
  atomic rename. The bound is asserted only at n = k >= 1000: at
  smaller sizes one fsync dominates the tick time.

A null plan or spec costs exactly nothing (engines never build the
component; the golden suites pin the logs), so it is not timed here.

Every sample times ``run()`` alone (construction and arming excluded)
and is divided by that run's own tick count. Plain and armed rounds are
interleaved (see :mod:`_harness`), and an arm is judged by the median
over rounds of the paired ratio ``armed_i / plain_i``: both samples of
a round share the host's load at that moment, which a ratio of two
best-ofs taken in different rounds does not. Run with::

    PYTHONPATH=src python -m pytest -q benchmarks/bench_overhead.py --benchmark-disable

Size: n = k = ``REPRO_BENCH_NK`` (default 1000) for the adversary,
telemetry and checkpoint arms. Results go to ``BENCH_overhead.json`` at
the repo root, one section per arm.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import pytest

from _harness import interleaved_best_of, update_bench_json
from repro.adversary import AdversaryPlan
from repro.core.bandwidth import BandwidthClasses
from repro.faults import FaultPlan
from repro.sim.registry import create_engine
from repro.telemetry import TelemetrySpec

N = K = int(os.environ.get("REPRO_BENCH_NK", "1000"))


@dataclass(frozen=True)
class Arm:
    """One gate: ``engine`` at ``n``/``k``, plain and with ``armed`` on."""

    name: str
    engine: str
    n: int
    k: int
    #: Kernel options the armed run adds to the plain one.
    armed: dict = field(default_factory=dict)
    #: Write a checkpoint file every this many ticks (0: never).
    checkpoint_every: int = 0
    keep_log: bool = False
    #: Timed window; None runs to completion.
    max_ticks: int | None = None
    bound: float = 0.10
    #: The bound is asserted only when n and k are at least this.
    assert_from: int = 0
    rounds: int = 5
    #: Arming draws from the engine RNG, so the trajectories differ.
    draws_rng: bool = False
    #: What the armed run's ``meta`` must show.
    holds: Callable[[dict], bool] = lambda meta: True


_INERT_FAULTS = {"faults": FaultPlan(server_outages=((10**9, 10**9 + 1),))}


def _no_failures(meta: dict) -> bool:
    return meta["failed_transfers"] == 0


ARMS = (
    Arm("faults-randomized", "randomized", 128, 64, _INERT_FAULTS,
        bound=0.15, draws_rng=True, holds=_no_failures),
    # Smaller sizes for the graduated engines: their per-tick policy
    # work (rechoke, span tests, idle retries) grows faster with n than
    # the injector's judging and would drown it at 128/64.
    *(
        Arm(f"faults-{engine}", engine, 64, 32, _INERT_FAULTS,
            bound=0.15, draws_rng=True, holds=_no_failures)
        for engine in ("bittorrent", "coding", "async")
    ),
    Arm("adversary", "randomized", N, K,
        {"adversary": AdversaryPlan(free_riders=(1,), active_from=10**9)},
        holds=lambda m: m["polluted_transfers"] == m["phantom_transfers"] == 0),
    Arm("telemetry", "randomized", N, K,
        {"telemetry": TelemetrySpec(window=32), "bandwidth": BandwidthClasses()},
        keep_log=True,
        holds=lambda m: m["telemetry"]["wait_hist"]["default"]["count"] > 0),
    Arm("checkpoint", "randomized", N, K, checkpoint_every=50, keep_log=True,
        max_ticks=300, bound=0.05, assert_from=1000, rounds=3),
)


def sample(arm: Arm, checkpoint_dir: str | None = None):
    """One run of ``arm``: plain, or armed when ``checkpoint_dir`` is
    given. Returns the result and the seconds ``run()`` took per tick."""
    engine = create_engine(
        arm.engine, arm.n, arm.k, rng=1, keep_log=arm.keep_log,
        max_ticks=arm.max_ticks, **(arm.armed if checkpoint_dir else {}),
    )
    if checkpoint_dir and arm.checkpoint_every:
        engine.kernel.arm_checkpoints(
            arm.checkpoint_every, path=os.path.join(checkpoint_dir, "bench.ckpt")
        )
    start = time.perf_counter()
    result = engine.run()
    return result, (time.perf_counter() - start) / engine.kernel.tick


def check(arm: Arm, checkpoint_dir: str) -> None:
    """Untimed plain and armed runs: the armed one finishes as the plain
    one does and never acts."""
    plain, _ = sample(arm)
    armed, _ = sample(arm, checkpoint_dir)
    assert arm.max_ticks or (plain.completed and armed.completed)
    if not arm.draws_rng:
        assert armed.completion_time == plain.completion_time
        assert armed.client_completions == plain.client_completions
    assert arm.holds(armed.meta), f"{arm.name}: armed run acted"
    if arm.checkpoint_every:
        path = os.path.join(checkpoint_dir, "bench.ckpt")
        assert os.path.exists(path)
        assert os.path.exists(f"{path}.rows") == arm.keep_log


@pytest.mark.parametrize("arm", ARMS, ids=lambda arm: arm.name)
def test_overhead_within_bound(arm: Arm, tmp_path) -> None:
    check(arm, str(tmp_path))  # also warms imports and the allocator
    res = interleaved_best_of(
        {
            "plain": lambda: sample(arm)[1],
            "armed": lambda: sample(arm, str(tmp_path))[1],
        },
        rounds=arm.rounds,
    )
    plain, armed = res["plain"]["best"], res["armed"]["best"]
    ratios = [a / p for a, p in zip(res["armed"]["rounds"], res["plain"]["rounds"])]
    ratio = statistics.median(ratios)
    asserted = min(arm.n, arm.k) >= arm.assert_from
    update_bench_json(
        "BENCH_overhead.json",
        arm.name,
        {
            "config": {
                "engine": arm.engine, "n": arm.n, "k": arm.k, "seed": 1,
                "keep_log": arm.keep_log, "max_ticks": arm.max_ticks,
                "checkpoint_every": arm.checkpoint_every,
                "rounds": arm.rounds,
            },
            "plain_us_per_tick": round(plain * 1e6, 2),
            "armed_us_per_tick": round(armed * 1e6, 2),
            "overhead_ratio": round(ratio, 4),
            "paired_ratios": [round(r, 4) for r in ratios],
            "bound": arm.bound,
            "asserted": asserted,
            "plain_rounds_us_per_tick": [
                round(t * 1e6, 2) for t in res["plain"]["rounds"]
            ],
            "armed_rounds_us_per_tick": [
                round(t * 1e6, 2) for t in res["armed"]["rounds"]
            ],
        },
    )
    if asserted:
        assert ratio < 1 + arm.bound, (
            f"{arm.name}: armed per-tick overhead {ratio - 1:.1%}, median of "
            f"paired rounds {[round(r, 3) for r in ratios]} (best plain "
            f"{plain * 1e6:.0f}us/tick, best armed {armed * 1e6:.0f}us/tick, "
            f"bound {arm.bound:.0%})"
        )
