"""Pinned-seed run specifications for the golden-log conformance suite.

Each spec builds one engine run through the *public* construction API and
returns its :class:`~repro.core.log.RunResult`; extra keyword arguments
are forwarded to the engine constructor, which is how the array-backend
suite (``test_array_golden.py``) replays the same pinned runs with
``backend="array"``. The JSON fixtures under
``tests/sim/golden/`` were captured from these exact specs **before** the
engines were rebuilt on the shared :mod:`repro.sim` kernel; the suite in
``test_golden_logs.py`` replays every spec and requires the transfer log
(deliveries *and* failures), the completion time and the abort verdict to
be byte-identical. That is the proof that the kernel refactor moved code
without moving a single figure.

The ``*-crash`` and ``async-*`` fixtures were pinned later, when the
bittorrent, coding and async engines graduated to full crash/rejoin
support (those fixtures also pin the crash/rejoin event streams).

The ``churn*`` fixtures were captured from the former churn engine
(randomized sampling with per-client arrival and departure tables); their
factories replay the same tables as a
:class:`~repro.workloads.WorkloadSpec` on the randomized engine.

The ``triangular-*`` fixtures were captured from
:func:`~repro.randomized.triangular.randomized_triangular_run` while it
still ran its own tick loop beside the kernel: the complete graph,
exchange-only matching on a degree-10 overlay, and a sparse degree-4
overlay that ends in the ``"stall"`` verdict. Their factories build the
same runs as an unstarted :class:`~repro.sim.kernel.TickKernel` over
:class:`~repro.randomized.triangular.TriangularTickPolicy`.

``GOLDEN_ENGINE_FACTORIES`` exposes the same pinned configurations as
*unstarted* engines — construction separated from ``.run()`` — which is
what the checkpoint/resume sweep (``test_checkpoint_resume.py``) needs:
it arms checkpoints on one engine, then rebuilds identically-configured
twins to restore into mid-run. ``GOLDEN_SPECS`` is derived from the
factories, so both views can never drift apart.

Regenerate (only when a spec itself changes, never to paper over a
behavioral diff; pass spec names to recapture a subset)::

    PYTHONPATH=src python tests/sim/capture_golden.py [name ...]
"""

from __future__ import annotations

import dataclasses

from repro.adversary import AdversaryPlan
from repro.core.mechanisms import CreditLimitedBarter
from repro.faults import FaultPlan, RecoveryPolicy
from repro.overlays.graph import CompleteGraph
from repro.overlays.random_regular import random_regular_graph
from repro.randomized.bittorrent import BitTorrentEngine
from repro.randomized.engine import RandomizedEngine
from repro.randomized.exchange import ExchangeEngine
from repro.randomized.policies import RandomPolicy, RarestFirstPolicy
from repro.randomized.triangular import TriangularTickPolicy
from repro.sim.kernel import TickKernel
from repro.workloads import WorkloadSpec

__all__ = ["ARRAY_CAPABLE_SPECS", "GOLDEN_ENGINE_FACTORIES", "GOLDEN_SPECS"]

# Shared crash plan for the graduated-engine fixtures (bittorrent,
# coding, async): bounded hazard, half-retention rejoins.
_CRASH_PLAN = FaultPlan(
    crash_rate=0.02,
    rejoin_delay=4,
    rejoin_retention=0.5,
    max_crashes=6,
)


def _randomized_cooperative(**kw):
    return RandomizedEngine(24, 12, rng=42, **kw)


def _randomized_barter_rarest(**kw):
    return RandomizedEngine(
        20,
        10,
        mechanism=CreditLimitedBarter(2),
        policy=RarestFirstPolicy(),
        rng=7,
        **kw,
    )


def _randomized_overlay_throttle(**kw):
    graph = random_regular_graph(18, 6, rng=0)
    return RandomizedEngine(
        18, 9, overlay=graph, throttle={2: 0.5, 5: 0.25}, rng=13, **kw
    )


def _randomized_selfish_barter(adversary=None, **kw):
    # Free-riders under a tight credit limit: exercises the starve /
    # deadlock verdict path. Captured from the engine's former
    # ``selfish={3}`` flag; an explicit-rider plan draws no RNG, so it
    # replays the fixture. A caller's (null) plan gains the rider.
    plan = dataclasses.replace(adversary or AdversaryPlan(), free_riders=(3,))
    return RandomizedEngine(
        12, 6, mechanism=CreditLimitedBarter(1), adversary=plan, rng=3, **kw
    )


def _randomized_faults(**kw):
    plan = FaultPlan(
        loss_rate=0.1,
        crash_rate=0.01,
        rejoin_delay=5,
        rejoin_retention=0.5,
        max_crashes=3,
    )
    return RandomizedEngine(
        20, 10, rng=11, faults=plan, recovery=RecoveryPolicy(reseed=True), **kw
    )


def _randomized_server_outage(**kw):
    plan = FaultPlan(server_outages=((2, 5),))
    return RandomizedEngine(16, 8, rng=17, faults=plan, **kw)


def _churn(**kw):
    tables = WorkloadSpec(arrivals=((3, 4), (5, 9)), departures=((2, 6),))
    return RandomizedEngine(16, 8, workload=tables, rng=5, **kw)


def _churn_faults(**kw):
    plan = FaultPlan(loss_rate=0.15)
    tables = WorkloadSpec(arrivals=((4, 6),), departures=((3, 5),))
    return RandomizedEngine(14, 7, workload=tables, rng=21, faults=plan, **kw)


def _exchange(**kw):
    return ExchangeEngine(16, 8, rng=9, **kw)


def _exchange_overlay(**kw):
    graph = random_regular_graph(16, 5, rng=1)
    return ExchangeEngine(16, 8, overlay=graph, rng=19, **kw)


def _exchange_faults(**kw):
    plan = FaultPlan(loss_rate=0.1, outage_rate=0.02, outage_duration=3)
    return ExchangeEngine(14, 7, rng=23, faults=plan, **kw)


def _bittorrent_crash(**kw):
    return BitTorrentEngine(16, 6, rng=5, faults=_CRASH_PLAN, max_ticks=4000, **kw)


def _coding_crash(**kw):
    from repro.coding.engine import NetworkCodingEngine

    return NetworkCodingEngine(
        16, 6, rng=5, faults=_CRASH_PLAN, max_ticks=4000, **kw
    )


def _async_kernel(**kw):
    from repro.sim.registry import create_engine

    return create_engine("async", 16, 8, rng=9, **kw)


def _async_crash(**kw):
    from repro.sim.registry import create_engine

    return create_engine(
        "async", 16, 8, rng=9, faults=_CRASH_PLAN, max_ticks=2000, **kw
    )


def _triangular(**kw):
    policy = TriangularTickPolicy(CompleteGraph(16), RandomPolicy())
    return TickKernel(16, 8, policy, rng=31, **kw)


def _triangular_exchange_overlay(**kw):
    graph = random_regular_graph(24, 10, rng=0)
    policy = TriangularTickPolicy(graph, RandomPolicy(), allow_triangles=False)
    return TickKernel(24, 12, policy, rng=40, **kw)


def _triangular_sparse_stall(**kw):
    graph = random_regular_graph(24, 4, rng=0)
    return TickKernel(24, 12, TriangularTickPolicy(graph, RandomPolicy()), rng=50, **kw)


# Fixtures whose engines accept ``backend="array"`` (the randomized
# and exchange families); ``test_array_golden.py`` replays exactly
# these against the same pinned JSON.
ARRAY_CAPABLE_SPECS = (
    "randomized-cooperative",
    "randomized-barter-rarest",
    "randomized-overlay-throttle",
    "randomized-selfish-barter",
    "randomized-faults",
    "randomized-server-outage",
    "churn",
    "churn-faults",
    "exchange",
    "exchange-overlay",
    "exchange-faults",
)

#: name -> factory(**kw) returning the pinned engine, *unstarted*.
GOLDEN_ENGINE_FACTORIES = {
    "randomized-cooperative": _randomized_cooperative,
    "randomized-barter-rarest": _randomized_barter_rarest,
    "randomized-overlay-throttle": _randomized_overlay_throttle,
    "randomized-selfish-barter": _randomized_selfish_barter,
    "randomized-faults": _randomized_faults,
    "randomized-server-outage": _randomized_server_outage,
    "churn": _churn,
    "churn-faults": _churn_faults,
    "exchange": _exchange,
    "exchange-overlay": _exchange_overlay,
    "exchange-faults": _exchange_faults,
    "bittorrent-crash": _bittorrent_crash,
    "coding-crash": _coding_crash,
    "async-kernel": _async_kernel,
    "async-crash": _async_crash,
    "triangular": _triangular,
    "triangular-exchange-overlay": _triangular_exchange_overlay,
    "triangular-sparse-stall": _triangular_sparse_stall,
}


def _runner(factory):
    def spec(**kw):
        return factory(**kw).run()

    return spec


#: name -> spec(**kw) constructing *and running* the pinned engine.
GOLDEN_SPECS = {
    name: _runner(factory) for name, factory in GOLDEN_ENGINE_FACTORIES.items()
}
