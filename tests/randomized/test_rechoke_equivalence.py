"""The bittorrent rechoke against the per-node neighbour scans it replaced.

``BitTorrentTickPolicy._rechoke`` builds one ascending list of present
nodes per rechoke on the complete graph, ranks each client's senders
from its receipt window's keys, and samples optimistic unchokes through
a lazy ``_Without`` view. ``ReferenceBitTorrent`` keeps the original,
which filtered every node's full neighbour list twice and copied it for
the sample. Both must rank the same candidates in the same order, so
every ``rng.random()`` tiebreak and ``rng.sample`` index is drawn alike:
the log, failures, metadata, completions, final tick and the kernel's
RNG state must agree on every pinned bittorrent scenario.

The view itself is checked against the filtered list it stands for, and
``random.sample`` against both of its population paths (it copies a
population of 21 or fewer with ``list()`` and indexes a larger one).
"""

from __future__ import annotations

import json
import random

import pytest

import repro.randomized.bittorrent as bittorrent_module
from repro.core.model import SERVER
from repro.core.serde import log_to_dict
from repro.experiments.heterogeneity import mix_spec
from repro.randomized.bittorrent import BitTorrentTickPolicy, _Without
from repro.sim.registry import create_engine

from ..sim.test_pinned_digests import _CRASH, _FLASH, SPECS, _build


class ReferenceBitTorrent(BitTorrentTickPolicy):
    """The per-node neighbour scans the window ranking replaced."""

    def _rechoke(self) -> None:
        kernel = self.kernel
        rng = kernel.rng
        masks = kernel.state.masks
        graph = kernel.graph
        for node in range(kernel.n):
            if node != SERVER and not masks[node]:
                self._unchoked[node] = ()
                continue
            neighbors = [
                v
                for v in graph.neighbors(node)
                if v != node and v not in kernel.absent
            ]
            if not neighbors:
                self._unchoked[node] = ()
                continue
            slots = self.per_node_unchoke.get(node, self.unchoke_slots)
            if node == SERVER:
                chosen = self._sample(neighbors, slots + self.optimistic_slots)
            else:
                window = self._received_window[node]
                if self.tier_weighted_unchoke:
                    up = kernel.model.upload_capacity
                    ranked = sorted(
                        (v for v in neighbors if window.get(v, 0) > 0),
                        key=lambda v: (-window[v] * up(v), rng.random()),
                    )
                else:
                    ranked = sorted(
                        (v for v in neighbors if window.get(v, 0) > 0),
                        key=lambda v: (-window[v], rng.random()),
                    )
                chosen = list(ranked[:slots])
                others = [v for v in neighbors if v not in chosen]
                chosen.extend(self._sample(others, self.optimistic_slots))
            self._unchoked[node] = tuple(chosen)
        self._received_window.clear()


SCENARIOS = sorted(name for name in SPECS if name.startswith("bittorrent"))


def _outcome(engine, n: int, k: int):
    result = engine.run()
    return (
        log_to_dict(result.log, n, k),
        result.meta,
        result.completion_time,
        sorted(result.client_completions.items()),
        engine.kernel.tick,
        engine.kernel.rng.getstate(),
    )


def _reference(build):
    """``build()`` with the reference rechoke in place of the new one."""
    patch = pytest.MonkeyPatch()
    with patch.context() as m:
        m.setattr(bittorrent_module, "BitTorrentTickPolicy", ReferenceBitTorrent)
        engine = build()
    assert type(engine.kernel.policy) is ReferenceBitTorrent
    return engine


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_rechoke_matches_reference_scan(scenario, seed):
    _, n, k, options = SPECS[scenario]
    fast = _outcome(_build(scenario, seed), n, k)
    expected = _outcome(_reference(lambda: _build(scenario, seed)), n, k)
    swaps = [row for row in expected[0]["transfers"] if row[1] != SERVER]
    # Without optimistic slots no client is ever unchoked by a peer
    # that has not received from it, so only the server uploads.
    assert bool(swaps) == (options.get("optimistic_slots") != 0)
    assert fast == expected


def test_every_tick_resume_matches_reference_across_rechokes():
    n, k, period = 32, 16, 3

    def build():
        return create_engine(
            "bittorrent", n, k, rng=3, keep_log=True, rechoke_period=period,
            faults=_CRASH, workload=_FLASH,
        )

    expected = _outcome(_reference(build), n, k)
    assert expected[1]["crashes"] > 0
    payloads: dict[int, dict] = {}
    engine = build()
    engine.kernel.arm_checkpoints(
        1, sink=lambda p: payloads.setdefault(p["tick"], p)
    )
    assert _outcome(engine, n, k) == expected
    final_tick = expected[4]
    # Most resumes start mid-window and run through later rechokes.
    crossing = [t for t in payloads if t % period and t + period < final_tick]
    assert len(crossing) >= 20
    for tick, payload in sorted(payloads.items()):
        resumed = build()
        resumed.kernel.restore_checkpoint(json.loads(json.dumps(payload)))
        assert _outcome(resumed, n, k) == expected, f"resume from tick {tick}"


@pytest.mark.parametrize("seed", range(30))
def test_rechoke_matches_reference_on_arbitrary_state(seed):
    """One rechoke from random holdings, absences and receipt windows.

    Engines evict a crashed or departed peer from every window, so whole
    runs never rank an absent sender; a restored or hand-built state
    may hold one, and both rechokes must still drop it alike.
    """
    rng = random.Random(seed)
    n = rng.choice([2, 8, 21, 23, 40, 90])
    engine = create_engine(
        "bittorrent", n, 8, rng=seed,
        unchoke_slots=rng.randint(1, 6),
        optimistic_slots=rng.randint(0, 7),
        per_node_unchoke={v: rng.randint(0, 5) for v in range(0, n, 3)},
        tier_weighted_unchoke=rng.random() < 0.5,
        bandwidth=mix_spec("broadband", uploads=True),
    )
    kernel, policy = engine.kernel, engine.kernel.policy
    kernel.state.masks[:] = [rng.choice([0, 1, 5, 255]) for _ in range(n)]
    kernel.absent.update(v for v in range(n) if rng.random() < 0.3)
    windows = {
        node: {rng.randrange(n): rng.randint(1, 4) for _ in range(rng.randrange(12))}
        for node in range(n)
        if rng.random() < 0.7
    }
    kernel.rng.seed(seed)
    outcomes = []
    for rechoke in (BitTorrentTickPolicy._rechoke, ReferenceBitTorrent._rechoke):
        policy.restore_state(
            {
                "received_window": [
                    [node, sorted(window.items())] for node, window in windows.items()
                ],
                "unchoked": [],
                "silent_windows": 0,
            }
        )
        state = kernel.rng.getstate()
        rechoke(policy)
        outcomes.append((dict(policy._unchoked), kernel.rng.getstate()))
        kernel.rng.setstate(state)
    assert outcomes[0] == outcomes[1]


# -- the lazy view ------------------------------------------------------


def test_view_len_and_indexing():
    view = _Without([0, 2, 3, 5, 8, 9], (3, 9, 4, 3))
    assert len(view) == 4
    assert list(view) == [0, 2, 5, 8]
    assert [view[i] for i in range(4)] == [0, 2, 5, 8]
    assert [view[i] for i in range(-4, 0)] == [0, 2, 5, 8]
    for bad in (4, 5, -5, -6):
        with pytest.raises(IndexError):
            view[bad]
    empty = _Without([7], (7,))
    assert len(empty) == 0 and not empty and list(empty) == []
    with pytest.raises(IndexError):
        empty[0]
    with pytest.raises(IndexError):
        empty[-1]


@pytest.mark.parametrize("seed", range(40))
def test_view_equals_filtered_list(seed):
    rng = random.Random(seed)
    size = rng.randrange(0, 60)
    base = sorted(rng.sample(range(100), size))
    drop = [rng.randrange(-2, 102) for _ in range(rng.randrange(0, 9))]
    if base and rng.random() < 0.5:
        drop += rng.sample(base, min(len(base), rng.randrange(1, 6)))
    rng.shuffle(drop)
    want = [v for v in base if v not in drop]
    view = _Without(base, drop)
    assert len(view) == len(want)
    assert list(view) == want
    assert [view[i] for i in range(len(want))] == want
    assert [view[-i] for i in range(1, len(want) + 1)] == [
        want[-i] for i in range(1, len(want) + 1)
    ]


@pytest.mark.parametrize("size", [2, 6, 15, 21, 22, 23, 40, 90, 511])
@pytest.mark.parametrize("count", [1, 2, 5, 6])
def test_sample_draws_alike_from_view_and_list(size, count):
    base = list(range(size + 3))
    drop = (0, size // 2, size + 1)
    population = [v for v in base if v not in drop]
    if count > len(population):
        pytest.skip("sample larger than population")
    for seed in range(5):
        a, b = random.Random(seed), random.Random(seed)
        assert a.sample(_Without(base, drop), count) == b.sample(population, count)
        assert a.getstate() == b.getstate()
