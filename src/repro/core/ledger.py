"""Pairwise credit ledger for barter mechanisms.

Section 3.2 of the paper defines credit-limited barter through the *net*
number of blocks one node has transferred to another: ``a`` may upload to
``b`` only while ``sent(a -> b) - sent(b -> a)`` stays at or below the
credit limit ``s``.

The ledger stores one signed counter per unordered node pair, sparsely —
only pairs that have ever exchanged data occupy memory, which matters for
the big randomized sweeps (a complete-graph run over 10,000 nodes touches
a tiny fraction of the ~5*10^7 possible pairs).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .errors import ConfigError

__all__ = ["CreditLedger"]


class CreditLedger:
    """Tracks net block flow between node pairs.

    The balance is antisymmetric: ``balance(a, b) == -balance(b, a)``. A
    positive ``balance(a, b)`` means ``a`` has sent that many more blocks to
    ``b`` than it has received from ``b`` — i.e. ``b`` is in debt to ``a``.
    """

    __slots__ = ("_net",)

    def __init__(self) -> None:
        self._net: dict[tuple[int, int], int] = {}

    @staticmethod
    def _key(a: int, b: int) -> tuple[tuple[int, int], int]:
        """Canonical (ordered) pair plus the sign of the (a, b) direction."""
        if a == b:
            raise ConfigError(f"a node cannot barter with itself (node {a})")
        if a < b:
            return (a, b), 1
        return (b, a), -1

    def balance(self, a: int, b: int) -> int:
        """Net blocks sent from ``a`` to ``b`` (negative if ``a`` owes)."""
        key, sign = self._key(a, b)
        return sign * self._net.get(key, 0)

    def record_send(self, src: int, dst: int, blocks: int = 1) -> None:
        """Record ``blocks`` uploaded from ``src`` to ``dst``."""
        if blocks < 0:
            raise ConfigError(f"cannot record a negative transfer ({blocks})")
        key, sign = self._key(src, dst)
        new = self._net.get(key, 0) + sign * blocks
        if new:
            self._net[key] = new
        else:
            self._net.pop(key, None)

    def within_limit(self, src: int, dst: int, limit: int) -> bool:
        """Whether ``src`` may upload one more block to ``dst``.

        Legal when the post-transfer balance would not exceed ``limit``,
        i.e. current ``balance(src, dst) < limit``.
        """
        return self.balance(src, dst) < limit

    def max_exposure(self) -> int:
        """Largest absolute pairwise balance currently outstanding."""
        if not self._net:
            return 0
        return max(abs(v) for v in self._net.values())

    def total_debt(self, node: int) -> int:
        """Total net blocks ``node`` has *received* beyond what it sent.

        This is the quantity the paper's "total credit limit" loophole
        discussion is about: with per-pair limit ``s`` and degree ``d`` a
        free-rider can accumulate up to ``s * d`` total debt.
        """
        debt = 0
        for (a, b), v in self._net.items():
            if a == node and v < 0:
                debt += -v
            elif b == node and v > 0:
                debt += v
        return debt

    def capture_state(self) -> list[list[int]]:
        """Balances as JSON-shaped ``[a, b, net]`` rows sorted by pair
        (checkpointing); one ``np.lexsort``, not a Python sort."""
        size = len(self._net)
        if not size:
            return []
        pairs = np.fromiter(chain.from_iterable(self._net), np.int64, 2 * size)
        nets = np.fromiter(self._net.values(), np.int64, size)
        pairs = pairs.reshape(size, 2)
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        return np.column_stack((pairs[order], nets[order])).tolist()

    def restore_state(self, rows) -> None:
        """Restore :meth:`capture_state` output in place."""
        self._net = {(a, b): net for a, b, net in rows}

    def pairs(self) -> dict[tuple[int, int], int]:
        """Snapshot of all non-zero balances, keyed by ordered pair (a < b)."""
        return dict(self._net)

    def __len__(self) -> int:
        return len(self._net)
