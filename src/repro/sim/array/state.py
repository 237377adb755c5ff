"""Packed ndarray mirror of :class:`~repro.core.state.SwarmState`.

The kernel's authoritative per-node holdings are arbitrary-precision
bitmasks (:mod:`repro.core.blocks` explains why scalar bit algebra wants
bigints). The array backend additionally needs the *same* ownership
relation as an ndarray, so per-tick scans — "which pool members does this
uploader interest?" — run as one vectorized NumPy expression instead of a
Python loop over candidates.

:class:`ArrayState` is that mirror: block ownership packed into an
``(n, w)`` ``uint64`` word matrix (``w = ceil(k / 64)``), kept bit-exact
with ``SwarmState.masks`` through the state's ``mirror`` hook, plus a
per-tick snapshot copy mirroring ``SwarmState.begin_tick``. The canonical
``(n, k)`` bool ownership matrix — the representation the batched Monte
Carlo runner stacks an extra replica dimension onto — is materialised on
demand via :meth:`ownership` (unpacking 64 nodes' worth of bits per
``uint64`` is a single ``np.unpackbits``; keeping a live bool matrix would
double every hot-path write for nothing).

A caller may hand the constructor a preallocated ``(n, w)`` word buffer —
:class:`~repro.sim.array.montecarlo.BatchRunner` passes views into one
``(S, n, w)`` replica tensor so S runs' ownership lands in a single
contiguous array.
"""

from __future__ import annotations

import sys

import numpy as np

from ...core.errors import ConfigError

__all__ = ["ArrayState"]

#: ``_WBIT[j]`` is ``uint64(1) << j`` — the per-word bit table used by the
#: scalar mirror updates (``block & 63`` indexes it, ``block >> 6`` picks
#: the word column).
_WBIT = np.uint64(1) << np.arange(64, dtype=np.uint64)


class ArrayState:
    """Block ownership as packed ``uint64`` words, one row per node.

    Attributes
    ----------
    words:
        ``(n, w)`` live ownership; bit ``b`` of node ``v`` is
        ``words[v, b >> 6] >> (b & 63) & 1``.
    snap_words:
        Start-of-tick copy of ``words`` (the array twin of
        ``SwarmState.begin_tick``'s snapshot list).
    """

    __slots__ = ("n", "k", "w", "words", "snap_words")

    def __init__(self, n: int, k: int, words: np.ndarray | None = None) -> None:
        if n < 2 or k < 1:
            raise ConfigError(f"invalid swarm shape n={n}, k={k}")
        self.n = n
        self.k = k
        self.w = w = (k + 63) >> 6
        if words is None:
            words = np.zeros((n, w), dtype=np.uint64)
        else:
            if words.shape != (n, w) or words.dtype != np.uint64:
                raise ConfigError(
                    f"word buffer must be ({n}, {w}) uint64, got "
                    f"{words.shape} {words.dtype}"
                )
            words[:] = 0
        self.words = words
        self.snap_words = np.zeros((n, w), dtype=np.uint64)

    # -- mirror protocol (SwarmState.mirror) --------------------------------

    def attach(self, state) -> None:
        """Become ``state``'s mirror and load its current holdings."""
        if (state.n, state.k) != (self.n, self.k):
            raise ConfigError(
                f"state is {state.n}x{state.k}, mirror is {self.n}x{self.k}"
            )
        self.words[:] = 0
        nbytes = self.w * 8
        for node, mask in enumerate(state.masks):
            if mask:
                self.words[node] = np.frombuffer(
                    mask.to_bytes(nbytes, "little"), dtype="<u8"
                )
        np.copyto(self.snap_words, self.words)
        state.mirror = self

    def on_receive(self, node: int, block: int) -> None:
        """Mirror hook: ``node`` gained ``block``."""
        self.words[node, block >> 6] |= _WBIT[block & 63]

    def on_retire(self, node: int) -> None:
        """Mirror hook: ``node`` left the swarm; its copies vanish."""
        self.words[node] = 0

    def begin_tick(self) -> None:
        """Copy the live words into the start-of-tick snapshot."""
        np.copyto(self.snap_words, self.words)

    # -- views ---------------------------------------------------------------

    def ownership(self, *, snapshot: bool = False) -> np.ndarray:
        """The ``(n, k)`` bool ownership matrix (a fresh array).

        ``ownership()[v, b]`` is True iff node ``v`` holds block ``b`` —
        live holdings by default, the start-of-tick snapshot with
        ``snapshot=True``.
        """
        src = self.snap_words if snapshot else self.words
        if sys.byteorder != "little":  # pragma: no cover - exotic platforms
            src = src.astype("<u8")
        raw = np.ascontiguousarray(src).view(np.uint8).reshape(self.n, -1)
        bits = np.unpackbits(raw, axis=1, bitorder="little")
        return bits[:, : self.k].astype(bool)

    def holdings_count(self) -> np.ndarray:
        """Per-node popcount of the live holdings, as ``(n,)`` int64."""
        return self.ownership().sum(axis=1, dtype=np.int64)
