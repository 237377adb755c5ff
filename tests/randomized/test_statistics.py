"""Statistical faithfulness tests for the randomized engine.

The paper's algorithm specifies a *uniformly random* interested neighbor;
our engine uses bounded rejection sampling with an exhaustive fallback,
which must stay exactly uniform. These tests measure the realised
distribution in controlled one-tick scenarios.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.model import BandwidthModel
from repro.randomized.engine import RandomizedEngine


def one_tick_destinations(n: int, seeds: range, prepare) -> Counter:
    """Run one tick many times; count the server's chosen destination."""
    counts: Counter[int] = Counter()
    for seed in seeds:
        engine = RandomizedEngine(
            n, 2, rng=seed, model=BandwidthModel.unbounded()
        )
        prepare(engine)
        engine.kernel.step()
        server_sends = [t for t in engine.kernel.log if t.src == 0]
        assert len(server_sends) == 1
        counts[server_sends[0].dst] += 1
    return counts


class TestSelectionUniformity:
    def test_uniform_over_empty_swarm(self):
        # All clients eligible: the server's pick must be uniform.
        n = 6
        counts = one_tick_destinations(n, range(3000), lambda e: None)
        expected = 3000 / (n - 1)
        for c in range(1, n):
            assert 0.8 * expected < counts[c] < 1.2 * expected

    def test_uniform_over_eligible_subset(self):
        # Clients 1-2 already complete: picks must be uniform over 3-5.
        n = 6

        def prepare(engine):
            for c in (1, 2):
                engine.kernel.state.receive(c, 0)
                engine.kernel.state.receive(c, 1)
                engine.kernel._pool_remove(c)

        counts = one_tick_destinations(n, range(3000), prepare)
        assert counts[1] == counts[2] == 0
        expected = 3000 / 3
        for c in (3, 4, 5):
            assert 0.8 * expected < counts[c] < 1.2 * expected

    def test_chi_square_uniformity(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        n = 9
        counts = one_tick_destinations(n, range(4000), lambda e: None)
        observed = [counts[c] for c in range(1, n)]
        _, p_value = scipy_stats.chisquare(observed)
        assert p_value > 0.001  # uniformity not rejected

    def test_single_eligible_destination_always_found(self):
        # Many complete clients, one needy one: every transfer (from the
        # server or any complete client) must target the needy node —
        # including when the bounded rejection phase misses and the
        # exhaustive fallback scan has to find it.
        n = 20
        for seed in range(100):
            engine = RandomizedEngine(
                n, 2, rng=seed, model=BandwidthModel.unbounded()
            )
            for c in range(1, n - 1):
                engine.kernel.state.receive(c, 0)
                engine.kernel.state.receive(c, 1)
                engine.kernel._pool_remove(c)
            engine.kernel.step()
            assert len(engine.kernel.log) >= 1
            assert all(t.dst == n - 1 for t in engine.kernel.log)


class TestRunToRunVariance:
    def test_completion_varies_but_concentrates(self):
        times = [
            RandomizedEngine(32, 16, rng=s, keep_log=False).run().completion_time
            for s in range(12)
        ]
        assert len(set(times)) > 1  # genuinely random
        spread = max(times) - min(times)
        assert spread < 0.6 * min(times)  # but concentrated

    def test_shuffled_upload_order_not_biased_by_id(self):
        # Early node ids must not systematically finish earlier.
        rng = random.Random(0)
        first_half_wins = 0
        runs = 20
        for s in range(runs):
            r = RandomizedEngine(17, 8, rng=rng.getrandbits(32)).run()
            comp = r.client_completions
            early = sum(comp[c] for c in range(1, 9))
            late = sum(comp[c] for c in range(9, 17))
            if early < late:
                first_half_wins += 1
        assert 3 <= first_half_wins <= 17
