"""Tests for the pairwise credit ledger."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.core.ledger import CreditLedger


class TestCreditLedger:
    def test_initial_balance_zero(self):
        ledger = CreditLedger()
        assert ledger.balance(1, 2) == 0
        assert len(ledger) == 0

    def test_record_send_updates_both_directions(self):
        ledger = CreditLedger()
        ledger.record_send(1, 2)
        assert ledger.balance(1, 2) == 1
        assert ledger.balance(2, 1) == -1

    def test_balanced_exchange_clears_entry(self):
        ledger = CreditLedger()
        ledger.record_send(1, 2)
        ledger.record_send(2, 1)
        assert ledger.balance(1, 2) == 0
        assert len(ledger) == 0  # sparse: zero balances are dropped

    def test_within_limit(self):
        ledger = CreditLedger()
        assert ledger.within_limit(1, 2, 1)
        ledger.record_send(1, 2)
        assert not ledger.within_limit(1, 2, 1)
        assert ledger.within_limit(1, 2, 2)
        # The indebted side can always send (pays debt down).
        assert ledger.within_limit(2, 1, 1)

    def test_multi_block_send(self):
        ledger = CreditLedger()
        ledger.record_send(3, 4, blocks=5)
        assert ledger.balance(3, 4) == 5

    def test_rejects_self_barter(self):
        ledger = CreditLedger()
        with pytest.raises(ConfigError):
            ledger.balance(1, 1)
        with pytest.raises(ConfigError):
            ledger.record_send(2, 2)

    def test_rejects_negative_transfer(self):
        with pytest.raises(ConfigError):
            CreditLedger().record_send(1, 2, blocks=-1)

    def test_max_exposure(self):
        ledger = CreditLedger()
        assert ledger.max_exposure() == 0
        ledger.record_send(1, 2, 3)
        ledger.record_send(4, 3, 1)
        assert ledger.max_exposure() == 3

    def test_total_debt(self):
        ledger = CreditLedger()
        ledger.record_send(1, 9)  # 9 owes 1
        ledger.record_send(2, 9)  # 9 owes 2
        ledger.record_send(9, 3)  # 3 owes 9
        assert ledger.total_debt(9) == 2
        assert ledger.total_debt(3) == 1
        assert ledger.total_debt(1) == 0

    def test_pairs_snapshot(self):
        ledger = CreditLedger()
        ledger.record_send(5, 2)
        pairs = ledger.pairs()
        assert pairs == {(2, 5): -1}

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=5),
            ).filter(lambda p: p[0] != p[1]),
            max_size=60,
        )
    )
    def test_antisymmetry_invariant(self, sends):
        ledger = CreditLedger()
        reference: dict[tuple[int, int], int] = {}
        for a, b in sends:
            ledger.record_send(a, b)
            key = (min(a, b), max(a, b))
            reference[key] = reference.get(key, 0) + (1 if a < b else -1)
        for a in range(6):
            for b in range(6):
                if a == b:
                    continue
                key = (min(a, b), max(a, b))
                expected = reference.get(key, 0) * (1 if a < b else -1)
                assert ledger.balance(a, b) == expected
                assert ledger.balance(a, b) == -ledger.balance(b, a)


class TestCaptureState:
    """``capture_state`` sorts with numpy; the rows must be exactly the
    ``sorted()`` form it replaced."""

    @staticmethod
    def _sorted_form(ledger: CreditLedger) -> list[list[int]]:
        return [[a, b, net] for (a, b), net in sorted(ledger.pairs().items())]

    def test_empty_ledger(self):
        assert CreditLedger().capture_state() == []

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 300), st.integers(0, 300), st.integers(0, 4)
            ),
            max_size=200,
        )
    )
    def test_matches_the_sorted_form(self, sends):
        ledger = CreditLedger()
        for src, dst, blocks in sends:
            if src != dst:
                ledger.record_send(src, dst, blocks)
        rows = ledger.capture_state()
        assert rows == self._sorted_form(ledger)
        assert all(type(value) is int for row in rows for value in row)
        twin = CreditLedger()
        twin.restore_state(rows)
        assert twin.pairs() == ledger.pairs()

    def test_negative_nets_and_wide_ids(self):
        ledger = CreditLedger()
        ledger.record_send(70_000, 3, 5)  # stored as (3, 70000) = -5
        ledger.record_send(2, 9)
        ledger.record_send(9, 2, 3)  # (2, 9) = -2
        ledger.record_send(2, 1)  # (1, 2) = -1
        rows = ledger.capture_state()
        assert rows == [[1, 2, -1], [2, 9, -2], [3, 70_000, -5]]
        assert rows == self._sorted_form(ledger)
