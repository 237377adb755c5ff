"""Tests for the BitTorrent-style tit-for-tat engine."""

from __future__ import annotations

import pytest

from repro.adversary import AdversaryPlan
from repro.core.errors import ConfigError
from repro.core.verify import verify_log
from repro.overlays.random_regular import random_regular_graph
from repro.randomized.bittorrent import BitTorrentEngine, bittorrent_run
from repro.randomized.cooperative import randomized_cooperative_run
from repro.schedules.bounds import cooperative_lower_bound


class TestBitTorrentBasics:
    def test_completes_and_verifies(self):
        n, k = 48, 32
        g = random_regular_graph(n, 16, rng=0)
        r = bittorrent_run(n, k, overlay=g, rng=1)
        assert r.completed
        verify_log(r.log, n, k, overlay=g)

    def test_deterministic_given_seed(self):
        g = random_regular_graph(32, 12, rng=0)
        r1 = bittorrent_run(32, 16, overlay=g, rng=5)
        r2 = bittorrent_run(32, 16, overlay=g, rng=5)
        assert list(r1.log) == list(r2.log)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            BitTorrentEngine(16, 8, unchoke_slots=0)
        with pytest.raises(ConfigError):
            BitTorrentEngine(16, 8, optimistic_slots=-1)
        with pytest.raises(ConfigError):
            BitTorrentEngine(16, 8, rechoke_period=0)
        with pytest.raises(ConfigError):
            BitTorrentEngine(16, 8, adversary=AdversaryPlan(free_riders=(0,)))
        with pytest.raises(ConfigError):
            BitTorrentEngine(16, 8, overlay=random_regular_graph(20, 4, rng=0))

    def test_meta_records_parameters(self):
        r = bittorrent_run(24, 8, rng=2, unchoke_slots=3, rechoke_period=7)
        assert r.meta["unchoke_slots"] == 3
        assert r.meta["rechoke_period"] == 7
        assert r.meta["algorithm"] == "bittorrent"

    def test_no_optimistic_unchoke_can_stall_cold_start(self):
        # Without optimistic unchokes, nodes that never received anything
        # rank no one — only the seed's unchokes spread data. Still works,
        # just slower.
        r = bittorrent_run(24, 8, rng=3, optimistic_slots=0, max_ticks=4000)
        assert r.completed or r.completion_time is None


class TestBitTorrentVsOptimal:
    def test_slower_than_randomized_and_optimal(self):
        # The paper (Sec 4): BitTorrent is >30% worse than optimal even
        # tuned; the paper's randomized algorithm is much closer.
        n, k = 101, 100
        g = random_regular_graph(n, 40, rng=0)
        bt = bittorrent_run(n, k, overlay=g, rng=1, keep_log=False)
        rand = randomized_cooperative_run(n, k, overlay=g, rng=1, keep_log=False)
        opt = cooperative_lower_bound(n, k)
        assert bt.completed
        assert bt.completion_time > 1.3 * opt
        assert bt.completion_time > rand.completion_time

    def test_slot_count_is_not_the_bottleneck(self):
        # Upload capacity is one block per tick regardless of slots, so
        # tuning the unchoke count moves completion only modestly — the
        # paper's point that no tuning rescues BitTorrent to optimal.
        n, k = 64, 48
        g = random_regular_graph(n, 24, rng=2)

        def mean_t(slots: int) -> float:
            times = [
                bittorrent_run(
                    n, k, overlay=g, rng=s, unchoke_slots=slots, keep_log=False
                ).completion_time
                for s in range(4)
            ]
            return sum(times) / len(times)

        ratio = mean_t(10) / mean_t(2)
        assert 0.6 < ratio < 1.4


class TestBitTorrentFreeRiders:
    def test_free_riders_still_finish(self):
        # The paper's incentive critique: optimistic unchokes feed clients
        # that never upload.
        n, k = 64, 32
        g = random_regular_graph(n, 16, rng=4)
        r = bittorrent_run(
            n, k, overlay=g, rng=5, adversary=AdversaryPlan(free_riders=(1, 2, 3))
        )
        assert r.completed
        holdings = r.meta["final_holdings"]
        assert all(holdings[v] == k for v in (1, 2, 3))

    def test_free_riders_slower_than_compliant(self):
        n, k = 64, 32
        g = random_regular_graph(n, 16, rng=6)
        r = bittorrent_run(
            n, k, overlay=g, rng=7, adversary=AdversaryPlan(free_riders=(1,))
        )
        assert r.completed
        compliant = [
            tick for c, tick in r.client_completions.items() if c != 1
        ]
        assert r.client_completions[1] >= sum(compliant) / len(compliant)
