"""The exchange matcher: per-tick interest matrix against a full scan,
and properties of strict-barter matching read from the log alone.

``ExchangeTickPolicy`` builds mutual interest among the tick's possible
partners once, after the server seed. ``ReferenceExchange`` keeps the
original per-client partner scan, which re-tests every neighbour with
two bigint ANDs against the live masks. Both must offer each initiator
the same partners in the same order, so every RNG draw, log row and
metadata field must agree under every scenario axis, on both backends.

The property tests check what any correct matcher must do, replaying
holdings from the log: the pairs of a tick are disjoint, no two
unmatched eligible clients are left with mutual interest (the matching
is maximal), and the seeded client barters in the same tick only with a
second unit of download capacity.
"""

from __future__ import annotations

import random

import pytest

import repro.randomized.exchange as exchange_module
from repro.adversary import AdversaryPlan
from repro.core.model import SERVER, BandwidthModel
from repro.core.serde import log_to_dict
from repro.experiments.heterogeneity import mix_spec
from repro.faults.plan import FaultPlan
from repro.overlays.graph import Graph
from repro.overlays.random_regular import random_regular_graph
from repro.randomized.exchange import ExchangeTickPolicy
from repro.randomized.policies import RarestFirstPolicy
from repro.sim.registry import create_engine
from repro.workloads.spec import (
    AvailabilityProfile,
    FlashCrowd,
    WorkloadSpec,
)


class ReferenceExchange(ExchangeTickPolicy):
    """The per-client partner scan the interest matrix replaced."""

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        state = kernel.state
        masks = state.masks
        rng = kernel.rng
        graph = kernel.graph
        absent = kernel.absent
        policy = self.block_policy
        attempt = kernel.attempt
        tick = kernel.tick
        matched: set[int] = set()

        seeded = None
        if kernel.server_available():
            candidates = [
                v
                for v in graph.neighbors(SERVER)
                if v != SERVER
                and v not in absent
                and snapshot[SERVER] & ~masks[v]
            ]
            if candidates:
                seeded = candidates[rng.randrange(len(candidates))]
                block = policy.choose(
                    snapshot[SERVER] & ~masks[seeded], kernel, SERVER, seeded
                )
                attempt(SERVER, seeded, block)

        model = kernel.model
        seed_cap = None if seeded is None else model.download_capacity(seeded)
        seed_can_barter = seeded is None or seed_cap is None or seed_cap >= 2
        riders = (
            kernel.adversary.free_riders_at(tick)
            if kernel.adversary is not None
            else frozenset()
        )
        order = [
            v
            for v in range(1, kernel.n)
            if snapshot[v] and v not in absent and v not in riders
        ]
        rng.shuffle(order)
        for a in order:
            if a in matched or (a == seeded and not seed_can_barter):
                continue
            partners = [
                b
                for b in graph.neighbors(a)
                if b != SERVER
                and b not in matched
                and b not in absent
                and b not in riders
                and (b != seeded or seed_can_barter)
                and snapshot[a] & ~masks[b]
                and snapshot[b] & ~masks[a]
            ]
            if not partners:
                continue
            b = partners[rng.randrange(len(partners))]
            block_ab = policy.choose(snapshot[a] & ~masks[b], kernel, a, b)
            block_ba = policy.choose(snapshot[b] & ~masks[a], kernel, b, a)
            attempt(a, b, block_ab)
            attempt(b, a, block_ba)
            matched.add(a)
            matched.add(b)


class ShuffledGraph(Graph):
    """A random regular overlay whose neighbour lists are not sorted."""

    def __init__(self, n: int, degree: int, seed: int) -> None:
        base = random_regular_graph(n, degree, rng=seed)
        shuffle = random.Random(seed).shuffle
        self.n = n
        self._base = base
        self._adj = []
        for v in range(n):
            row = list(base.neighbors(v))
            shuffle(row)
            self._adj.append(tuple(row))

    def neighbors(self, v: int):
        return self._adj[v]

    def has_edge(self, a: int, b: int) -> bool:
        return self._base.has_edge(a, b)


_CRASH = FaultPlan(
    loss_rate=0.1,
    crash_rate=0.03,
    rejoin_delay=3,
    rejoin_retention=0.5,
    max_crashes=8,
)

#: name -> (n, k, engine options); ``overlay`` values are built per run.
SCENARIOS = {
    "plain": (48, 24, {}),
    "multiword": (40, 150, {}),
    "crash-loss": (48, 24, {"faults": _CRASH}),
    "outage": (
        40, 16, {"faults": FaultPlan(outage_rate=0.05, outage_duration=3)}
    ),
    "flash-riders": (
        48, 24,
        {
            "workload": WorkloadSpec(
                initial_fraction=0.5, flash_crowds=(FlashCrowd(3, 20, 4),)
            ),
            "adversary": AdversaryPlan(free_rider_fraction=0.15),
        },
    ),
    "diurnal": (
        40, 16,
        {
            "workload": WorkloadSpec(
                availability=(AvailabilityProfile("home", 0.5, 8, 0.6),)
            ),
            "max_ticks": 400,
        },
    ),
    "polluters-liars-strikes": (
        48, 24,
        {
            "adversary": AdversaryPlan(
                polluter_fraction=0.15,
                pollution_rate=0.3,
                liar_fraction=0.1,
                lie_rate=0.3,
                strike_threshold=2,
            )
        },
    ),
    "tiers": (48, 24, {"bandwidth": "broadband"}),
    "download-2": (48, 24, {"model": BandwidthModel(download=2)}),
    "download-unbounded": (40, 16, {"model": BandwidthModel(download=None)}),
    "rarest": (40, 70, {"policy": "rarest"}),
    "overlay-sorted": (40, 16, {"overlay": "sorted"}),
    "overlay-shuffled": (40, 16, {"overlay": "shuffled"}),
    "overlay-shuffled-crash": (
        40, 16, {"overlay": "shuffled", "faults": _CRASH}
    ),
}


def _engine(scenario: str, seed: int, backend: str):
    n, k, options = SCENARIOS[scenario]
    kw = dict(options)
    if "bandwidth" in kw:
        kw["bandwidth"] = mix_spec(kw["bandwidth"])
    if "policy" in kw:
        kw["policy"] = RarestFirstPolicy()
    overlay = kw.pop("overlay", None)
    if overlay == "sorted":
        kw["overlay"] = random_regular_graph(n, 14, rng=seed)
    elif overlay == "shuffled":
        kw["overlay"] = ShuffledGraph(n, 14, seed)
    return create_engine(
        "exchange", n, k, rng=seed, backend=backend, keep_log=True, **kw
    )


def _outcome(engine, scenario: str):
    n, k, _ = SCENARIOS[scenario]
    result = engine.run()
    return (
        log_to_dict(result.log, n, k),
        result.meta,
        result.completion_time,
        sorted(result.client_completions.items()),
    )


@pytest.mark.parametrize("backend", ["loop", "array"])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_interest_matrix_matches_reference_scan(
    scenario, seed, backend, monkeypatch
):
    fast = _outcome(_engine(scenario, seed, backend), scenario)
    with monkeypatch.context() as patch:
        patch.setattr(exchange_module, "ExchangeTickPolicy", ReferenceExchange)
        engine = _engine(scenario, seed, backend)
    assert type(engine.kernel.policy) is ReferenceExchange
    expected = _outcome(engine, scenario)
    swaps = [row for row in expected[0]["transfers"] if row[1] != SERVER]
    assert swaps, "scenario made no swap"
    assert fast == expected


def test_unsorted_overlay_really_is_unsorted():
    graph = ShuffledGraph(40, 14, 1)
    base = random_regular_graph(40, 14, rng=1)
    rows = [graph.neighbors(v) for v in range(40)]
    assert sum(list(row) != sorted(row) for row in rows) > 30
    assert [sorted(row) for row in rows] == [
        list(base.neighbors(v)) for v in range(40)
    ]


# -- properties read from the log --------------------------------------


def _ticks(result, n: int):
    """Yield ``(start, end, rows)`` per tick of a fault-free log: each
    client's holdings (bitmasks) at tick start and end, and the tick's
    ``(src, dst)`` rows."""
    by_tick: dict[int, list[tuple[int, int, int]]] = {}
    for t in result.log:
        by_tick.setdefault(t.tick, []).append((t.src, t.dst, t.block))
    held = [0] * n
    for tick in range(1, max(by_tick) + 1):
        rows = by_tick.get(tick, [])
        start = list(held)
        for _, dst, block in rows:
            held[dst] |= 1 << block
        yield start, list(held), [(s, d) for s, d, _ in rows]


def _clean_run(n, k, seed, backend, overlay=None, download=1):
    result = create_engine(
        "exchange", n, k, rng=seed, backend=backend, keep_log=True,
        overlay=overlay, model=BandwidthModel(download=download),
    ).run()
    assert not result.log.failures
    return result


@pytest.mark.parametrize("backend", ["loop", "array"])
@pytest.mark.parametrize(
    "n, k, seed, download, overlay_degree",
    [
        (32, 16, 1, 1, None),
        (48, 70, 2, 1, None),
        (40, 24, 3, 2, None),
        (40, 16, 4, 1, 30),
    ],
)
def test_matching_is_maximal(n, k, seed, download, overlay_degree, backend):
    overlay = (
        None
        if overlay_degree is None
        else random_regular_graph(n, overlay_degree, rng=seed)
    )
    result = _clean_run(n, k, seed, backend, overlay, download)
    left_over = 0
    for tick, (start, end, rows) in enumerate(_ticks(result, n), 1):
        seeded = {d for s, d in rows if s == SERVER}
        pairs = [(s, d) for s, d in rows if s != SERVER]
        matched = [v for pair in pairs for v in pair]
        # Each client swaps at most once per tick, in both directions.
        assert len(matched) == 2 * len(set(matched)), tick
        assert {(d, s) for s, d in pairs} == set(pairs), tick
        eligible = [
            v
            for v in range(1, n)
            if start[v]
            and v not in matched
            and (download >= 2 or v not in seeded)
        ]
        for i, a in enumerate(eligible):
            for b in eligible[i + 1 :]:
                if start[a] & ~end[b] and start[b] & ~end[a]:
                    assert overlay is not None and not overlay.has_edge(a, b), (
                        tick, a, b,
                    )
                    left_over += 1
    if overlay is not None:
        # Mutually interested pairs the overlay keeps apart: the
        # adjacency exemption above is really exercised.
        assert left_over


@pytest.mark.parametrize("backend", ["loop", "array"])
@pytest.mark.parametrize("download, seed", [(1, 5), (1, 6), (2, 5), (2, 6)])
def test_seeded_client_barters_only_with_spare_download(download, seed, backend):
    result = _clean_run(40, 20, seed, backend, download=download)
    assert result.completion_time is not None
    both = 0
    for _, _, rows in _ticks(result, 40):
        seeded = {d for s, d in rows if s == SERVER}
        swapped = {v for s, d in rows if s != SERVER for v in (s, d)}
        both += len(seeded & swapped)
    if download == 1:
        assert both == 0
    else:
        assert both >= 1
