"""Tests for block-selection policies."""

from __future__ import annotations

import random

import pytest

from repro.overlays.graph import CompleteGraph
from repro.overlays.paths import chain
from repro.randomized.engine import RandomizedEngine
from repro.randomized.policies import (
    BlockPolicy,
    EstimatedRarestFirstPolicy,
    RandomPolicy,
    RarestFirstPolicy,
)
from repro.sim.kernel import TickKernel


def make_kernel(n=6, k=4, overlay=None, seed=0) -> TickKernel:
    return RandomizedEngine(n, k, overlay=overlay, rng=seed).kernel


class TestRandomPolicy:
    def test_only_useful_blocks_chosen(self):
        kernel = make_kernel()
        policy = RandomPolicy()
        useful = 0b1010
        for _ in range(50):
            assert useful >> policy.choose(useful, kernel, 0, 1) & 1

    def test_name(self):
        assert RandomPolicy().name == "random"


class TestRarestFirstPolicy:
    def test_prefers_globally_rare_block(self):
        kernel = make_kernel(n=5, k=3)
        # Make block 0 common, block 2 rare.
        kernel.state.receive(1, 0)
        kernel.state.receive(2, 0)
        kernel.state.receive(3, 0)
        policy = RarestFirstPolicy()
        # Server offers blocks 0 and 2 to node 4: block 2 is rarer.
        assert policy.choose(0b101, kernel, 0, 4) == 2

    def test_single_candidate(self):
        kernel = make_kernel()
        assert RarestFirstPolicy().choose(0b100, kernel, 0, 1) == 2


class TestEstimatedRarestFirstPolicy:
    def test_uses_neighborhood_counts(self):
        # Chain 0-1-2: node 1's neighborhood is {0, 2} plus itself.
        kernel = make_kernel(n=3, k=2, overlay=chain(3), seed=1)
        kernel.state.receive(1, 0)
        kernel.state.receive(2, 0)  # block 0 common locally, block 1 rare
        kernel.tick = 1
        policy = EstimatedRarestFirstPolicy()
        # Node 1 could send block 0 only; but when offered both by the
        # server's perspective from node 1's neighborhood, block 1 wins.
        assert policy.choose(0b11, kernel, 1, 2) == 1

    def test_cache_invalidated_by_tick(self):
        kernel = make_kernel(n=3, k=2, overlay=chain(3), seed=1)
        policy = EstimatedRarestFirstPolicy()
        kernel.tick = 1
        policy.choose(0b11, kernel, 1, 2)
        first_key = policy._cache_key
        kernel.tick = 2
        policy.choose(0b11, kernel, 1, 2)
        assert policy._cache_key != first_key

    def test_full_runs_complete(self):
        from repro.randomized.cooperative import randomized_cooperative_run

        r = randomized_cooperative_run(
            16, 8, overlay=chain(16), policy=EstimatedRarestFirstPolicy(), rng=3
        )
        assert r.completed


class TestPolicyProtocol:
    def test_base_policy_is_abstract(self):
        with pytest.raises(NotImplementedError):
            BlockPolicy().choose(1, None, 0, 1)

    def test_custom_policy_plugs_in(self):
        class LowestFirst(BlockPolicy):
            name = "lowest-first"

            def choose(self, useful, engine, src, dst):
                return (useful & -useful).bit_length() - 1

        from repro.randomized.cooperative import randomized_cooperative_run

        r = randomized_cooperative_run(8, 4, policy=LowestFirst(), rng=2)
        assert r.completed
        assert r.meta["policy"] == "lowest-first"
