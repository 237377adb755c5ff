"""Tests for repro.core.blocks: bitmask helpers and BlockSet."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.blocks import (
    RAREST_WALK_MAX,
    BlockSet,
    bit_count,
    bit_indices,
    full_mask,
    highest_set_bit,
    lowest_set_bit,
    mask_from_indices,
    nth_set_bit,
    random_set_bit,
    rarest_set_bit,
)
from repro.core.errors import ConfigError


class TestMaskHelpers:
    def test_full_mask_small(self):
        assert full_mask(1) == 0b1
        assert full_mask(4) == 0b1111

    def test_full_mask_rejects_zero_blocks(self):
        with pytest.raises(ConfigError):
            full_mask(0)

    def test_mask_from_indices(self):
        assert mask_from_indices([0, 2, 5], 6) == 0b100101

    def test_mask_from_indices_range_check(self):
        with pytest.raises(ConfigError):
            mask_from_indices([6], 6)
        with pytest.raises(ConfigError):
            mask_from_indices([-1], 6)

    def test_bit_count(self):
        assert bit_count(0) == 0
        assert bit_count(0b1011) == 3

    def test_bit_indices_empty(self):
        assert bit_indices(0).size == 0

    def test_bit_indices_values(self):
        got = bit_indices(0b101001)
        assert got.tolist() == [0, 3, 5]

    def test_bit_indices_large_mask(self):
        mask = (1 << 999) | (1 << 500) | 1
        assert bit_indices(mask).tolist() == [0, 500, 999]

    def test_lowest_and_highest(self):
        assert lowest_set_bit(0b1010) == 1
        assert highest_set_bit(0b1010) == 3

    def test_lowest_highest_reject_zero(self):
        with pytest.raises(ValueError):
            lowest_set_bit(0)
        with pytest.raises(ValueError):
            highest_set_bit(0)

    @given(st.integers(min_value=1, max_value=(1 << 200) - 1))
    def test_bit_indices_roundtrip(self, mask):
        indices = bit_indices(mask)
        rebuilt = 0
        for b in indices:
            rebuilt |= 1 << int(b)
        assert rebuilt == mask


class TestNthSetBit:
    @given(st.integers(min_value=1, max_value=(1 << 300) - 1))
    def test_matches_bit_indices(self, mask):
        indices = bit_indices(mask)
        assert [nth_set_bit(mask, r) for r in range(len(indices))] == list(indices)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            nth_set_bit(0b1011, 3)
        with pytest.raises(ValueError):
            nth_set_bit(1 << 200, 1)
        with pytest.raises(ValueError):
            nth_set_bit(0b1011, -1)

    def test_random_set_bit_draws_like_an_index_list(self):
        # Above 8 set bits random_set_bit must pick exactly what sampling
        # the decoded index list with one randrange(popcount) would.
        gen = random.Random(7)
        for _ in range(300):
            mask = gen.getrandbits(gen.choice([64, 130, 1000])) | (0x1FF << 3)
            a, b = random.Random(mask % 97), random.Random(mask % 97)
            indices = bit_indices(mask)
            assert random_set_bit(mask, a) == int(indices[b.randrange(len(indices))])
            assert a.getstate() == b.getstate()


def _rarest_by_gather(mask, freq, rng):
    """The numpy-gather selection, at any popcount."""
    if mask & (mask - 1) == 0:
        return mask.bit_length() - 1
    indices = bit_indices(mask)
    candidate = freq[indices]
    ties = indices[candidate == candidate.min()]
    if len(ties) == 1:
        return int(ties[0])
    return int(ties[rng.randrange(len(ties))])


class TestRandomSelection:
    def test_random_set_bit_single(self, rng):
        assert random_set_bit(1 << 17, rng) == 17

    def test_random_set_bit_rejects_zero(self, rng):
        with pytest.raises(ValueError):
            random_set_bit(0, rng)

    def test_random_set_bit_only_picks_set_bits(self, rng):
        mask = 0b10110010
        for _ in range(200):
            b = random_set_bit(mask, rng)
            assert mask >> b & 1

    def test_random_set_bit_covers_all_small(self, rng):
        mask = 0b1011
        seen = {random_set_bit(mask, rng) for _ in range(300)}
        assert seen == {0, 1, 3}

    def test_random_set_bit_covers_all_large(self, rng):
        # Popcount > 8 takes the nth_set_bit path.
        mask = sum(1 << (3 * i) for i in range(12))
        seen = {random_set_bit(mask, rng) for _ in range(2000)}
        assert seen == {3 * i for i in range(12)}

    def test_random_set_bit_roughly_uniform(self):
        rng = random.Random(1)
        mask = 0b111
        counts = [0, 0, 0]
        for _ in range(3000):
            counts[random_set_bit(mask, rng)] += 1
        for c in counts:
            assert 800 < c < 1200


class TestRarestSelection:
    def test_rarest_picks_minimum(self, rng):
        freq = np.array([5, 1, 3, 1], dtype=np.int64)
        mask = 0b1101  # blocks 0, 2, 3
        assert rarest_set_bit(mask, freq, rng) == 3

    def test_rarest_single_bit(self, rng):
        freq = np.array([9, 9], dtype=np.int64)
        assert rarest_set_bit(0b10, freq, rng) == 1

    def test_rarest_tie_break_random(self):
        rng = random.Random(3)
        freq = np.array([1, 1, 9], dtype=np.int64)
        seen = {rarest_set_bit(0b111, freq, rng) for _ in range(200)}
        assert seen == {0, 1}

    @pytest.mark.parametrize("popcount", [2, 3, 8, RAREST_WALK_MAX, RAREST_WALK_MAX + 1, 40])
    def test_walk_and_gather_agree(self, popcount):
        # Both sides of the crossover pick the same block with the same
        # draws (ties ascending, one randrange, none for a unique minimum).
        gen = random.Random(popcount)
        for k in (64, 1000):
            freq = np.array([gen.randrange(1, 6) for _ in range(k)], dtype=np.int64)
            for _ in range(100):
                mask = sum(1 << b for b in gen.sample(range(k), popcount))
                a, b = random.Random(mask % 101), random.Random(mask % 101)
                assert rarest_set_bit(mask, freq, a) == _rarest_by_gather(mask, freq, b)
                assert a.getstate() == b.getstate()

    def test_rarest_rejects_zero(self, rng):
        with pytest.raises(ValueError):
            rarest_set_bit(0, np.array([1]), rng)


class TestBlockSet:
    def test_empty_and_complete(self):
        s = BlockSet(5)
        assert s.is_empty and not s.is_complete and s.count == 0
        t = BlockSet.complete(5)
        assert t.is_complete and t.count == 5

    def test_add_and_contains(self):
        s = BlockSet(8)
        s.add(3)
        assert 3 in s and 4 not in s
        assert sorted(s) == [3]

    def test_add_out_of_range(self):
        s = BlockSet(4)
        with pytest.raises(ConfigError):
            s.add(4)

    def test_discard(self):
        s = BlockSet(4, [1, 2])
        s.discard(1)
        s.discard(3)  # absent: no-op
        assert sorted(s) == [2]

    def test_from_mask_validates(self):
        with pytest.raises(ConfigError):
            BlockSet.from_mask(3, 0b1000)
        assert sorted(BlockSet.from_mask(4, 0b1010)) == [1, 3]

    def test_algebra(self):
        a = BlockSet(6, [0, 1, 2])
        b = BlockSet(6, [2, 3])
        assert sorted(a - b) == [0, 1]
        assert sorted(a & b) == [2]
        assert sorted(a | b) == [0, 1, 2, 3]

    def test_missing(self):
        s = BlockSet(4, [0, 2])
        assert sorted(s.missing()) == [1, 3]

    def test_useful_for_and_interest(self):
        a = BlockSet(4, [0, 1])
        b = BlockSet(4, [1])
        assert sorted(a.useful_for(b)) == [0]
        assert a.is_interesting_to(b)
        assert not b.is_interesting_to(a)

    def test_incompatible_files_rejected(self):
        with pytest.raises(ConfigError):
            BlockSet(4).is_interesting_to(BlockSet(5))

    def test_equality_and_hash(self):
        assert BlockSet(4, [1]) == BlockSet(4, [1])
        assert BlockSet(4, [1]) != BlockSet(5, [1])
        assert len({BlockSet(4, [1]), BlockSet(4, [1])}) == 1

    def test_len_and_iter(self):
        s = BlockSet(10, [9, 0, 4])
        assert len(s) == 3
        assert list(s) == [0, 4, 9]

    def test_repr_forms(self):
        assert "complete" in repr(BlockSet.complete(3))
        assert "{0, 2}" in repr(BlockSet(3, [0, 2]))
        assert "blocks" in repr(BlockSet(40, range(20)))

    @given(
        st.sets(st.integers(min_value=0, max_value=63), max_size=20),
        st.sets(st.integers(min_value=0, max_value=63), max_size=20),
    )
    def test_set_algebra_matches_python_sets(self, xs, ys):
        a, b = BlockSet(64, xs), BlockSet(64, ys)
        assert set(a - b) == xs - ys
        assert set(a & b) == xs & ys
        assert set(a | b) == xs | ys
        assert a.is_interesting_to(b) == bool(xs - ys)
