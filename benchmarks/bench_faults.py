"""Benchmarks for the fault-injection layer (:mod:`repro.faults`).

The contract worth tracking: an *armed* injector that never fires — the
plan is non-null so every attempted transfer is judged, but no fault ever
realises — must cost almost nothing on top of a plain run (< 15%
slowdown), and a genuinely null plan must cost exactly nothing (engines
skip building the injector entirely, and the log is bit-identical).

Run with ``pytest benchmarks/bench_faults.py --benchmark-only``. The
overhead guards persist their per-tick numbers and round timings to
``BENCH_faults.json`` at the repo root (see :mod:`_harness`).
"""

from __future__ import annotations

from _harness import interleaved_best_of, update_bench_json
from repro.coding import network_coding_run
from repro.faults import FaultPlan, RecoveryPolicy, replay_schedule
from repro.randomized.bittorrent import bittorrent_run
from repro.randomized.engine import RandomizedEngine
from repro.schedules.hypercube import hypercube_schedule
from repro.sim.registry import run_engine

N, K = 128, 64

# Non-null (there is an outage window) but inert: the window sits far
# beyond any reachable tick, loss/outage/crash rates are all zero. The
# injector is consulted for every attempt and never fails one.
_ARMED_INERT = FaultPlan(server_outages=((10**9, 10**9 + 1),))


def _plain_run():
    return RandomizedEngine(N, K, rng=1, keep_log=False).run()


def _armed_inert_run():
    return RandomizedEngine(
        N, K, rng=1, keep_log=False, faults=_ARMED_INERT
    ).run()


def test_randomized_plain(benchmark):
    result = benchmark.pedantic(_plain_run, rounds=3, iterations=1)
    assert result.completed


def test_randomized_armed_inert_injector(benchmark):
    result = benchmark.pedantic(_armed_inert_run, rounds=3, iterations=1)
    assert result.completed
    # Armed but inert: no attempt can fail (the server is benched during
    # its windows, and loss/outage are off — so the engine skips judging
    # altogether). The run's trajectory still differs from the plain one:
    # seeding the injector draws once from the engine RNG; only *null*
    # plans are bit-identical.
    assert result.meta["failed_transfers"] == 0


def test_randomized_lossy(benchmark):
    def run():
        return RandomizedEngine(
            N, K, rng=1, keep_log=False, faults=FaultPlan(loss_rate=0.2)
        ).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.completed
    assert result.meta["failed_transfers"] > 0


def test_crash_rejoin_churning_swarm(benchmark):
    plan = FaultPlan(
        crash_rate=0.002, rejoin_delay=5, rejoin_retention=0.5,
        max_crashes=16,
    )

    def run():
        return RandomizedEngine(
            N, K, rng=1, keep_log=False, faults=plan, max_ticks=2000
        ).run()

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.completed


def test_replay_with_retries(benchmark):
    schedule = hypercube_schedule(N, K)
    plan = FaultPlan(loss_rate=0.1)
    policy = RecoveryPolicy(max_retries=5)

    def run():
        return replay_schedule(schedule, faults=plan, recovery=policy, rng=2)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.completed


def _per_tick_overhead(plain_fn, armed_fn, rounds=5):
    """Best-of per-tick wall times for a plain and an armed-inert run.

    Per tick, because the two runs follow different random trajectories
    (seeding the injector advances the engine RNG) and so finish in
    slightly different tick counts — that difference is luck, not
    injector cost. Timing via the shared interleaved best-of harness
    (see :mod:`_harness` for why best-of and why interleaved).
    """
    plain_ticks = plain_fn().completion_time
    armed_ticks = armed_fn().completion_time
    best = interleaved_best_of(
        {"plain": plain_fn, "armed": armed_fn}, rounds=rounds
    )
    return (
        best["plain"]["best"] / plain_ticks,
        best["armed"]["best"] / armed_ticks,
        best,
    )


def _record(section: str, plain: float, armed: float, raw: dict) -> None:
    update_bench_json(
        "BENCH_faults.json",
        section,
        {
            "plain_us_per_tick": round(plain * 1e6, 2),
            "armed_us_per_tick": round(armed * 1e6, 2),
            "overhead_ratio": round(armed / plain, 4),
            "plain_rounds_s": raw["plain"]["rounds"],
            "armed_rounds_s": raw["armed"]["rounds"],
        },
    )


def test_armed_inert_overhead_under_15_percent():
    """Direct guard on the headline number: an armed injector that never
    fires slows a run by less than 15% per tick."""
    plain, armed, raw = _per_tick_overhead(_plain_run, _armed_inert_run)
    _record(f"randomized_n{N}_k{K}", plain, armed, raw)
    assert armed < plain * 1.15, (
        f"armed-but-inert injector per-tick overhead {armed / plain - 1:.1%}"
        f" (plain {plain * 1e6:.0f}us/tick, armed {armed * 1e6:.0f}us/tick)"
    )


# -- graduated engines (bittorrent, coding, async) -------------------------
#
# Same contract as above, per engine: arming the injector without any
# realisable fault must stay under 15% per-tick overhead now that all
# three carry the full fault model. Smaller sizes than the randomized
# engine: each engine's per-tick policy work (bittorrent's rechoke,
# coding's span tests over every receiver, async's idle retries) grows
# faster with n than the injector's per-attempt judging, so at 128/64 it
# would drown the injector term being measured.

_GRADUATED = {
    "bittorrent": lambda faults=None: bittorrent_run(
        64, 32, rng=1, keep_log=False, faults=faults
    ),
    "coding": lambda faults=None: network_coding_run(
        64, 32, rng=1, keep_log=False, faults=faults
    ),
    "async": lambda faults=None: run_engine(
        "async", 64, 32, rng=1, keep_log=False, faults=faults
    ),
}


def test_bittorrent_plain(benchmark):
    result = benchmark.pedantic(_GRADUATED["bittorrent"], rounds=3, iterations=1)
    assert result.completed


def test_bittorrent_armed_inert_injector(benchmark):
    result = benchmark.pedantic(
        lambda: _GRADUATED["bittorrent"](_ARMED_INERT), rounds=3, iterations=1
    )
    assert result.completed
    assert result.meta["failed_transfers"] == 0


def test_coding_plain(benchmark):
    result = benchmark.pedantic(_GRADUATED["coding"], rounds=3, iterations=1)
    assert result.completed


def test_coding_armed_inert_injector(benchmark):
    result = benchmark.pedantic(
        lambda: _GRADUATED["coding"](_ARMED_INERT), rounds=3, iterations=1
    )
    assert result.completed
    assert result.meta["failed_transfers"] == 0


def test_async_plain(benchmark):
    result = benchmark.pedantic(_GRADUATED["async"], rounds=3, iterations=1)
    assert result.completed


def test_async_armed_inert_injector(benchmark):
    result = benchmark.pedantic(
        lambda: _GRADUATED["async"](_ARMED_INERT), rounds=3, iterations=1
    )
    assert result.completed
    assert result.meta["failed_transfers"] == 0


def test_graduated_armed_inert_overhead_under_15_percent():
    """The armed-but-inert bound holds for every graduated engine too."""
    failures = []
    for name, run in _GRADUATED.items():
        plain, armed, raw = _per_tick_overhead(
            run, lambda run=run: run(_ARMED_INERT)
        )
        _record(f"{name}_n64_k32", plain, armed, raw)
        if armed >= plain * 1.15:
            failures.append(
                f"{name}: {armed / plain - 1:.1%} (plain "
                f"{plain * 1e6:.0f}us/tick, armed {armed * 1e6:.0f}us/tick)"
            )
    assert not failures, "; ".join(failures)
