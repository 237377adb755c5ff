"""The array execution backend for :class:`~repro.sim.kernel.TickKernel`.

Construction with ``backend="array"`` hangs one :class:`ArrayBackend` off
the kernel. It owns three things:

* the :class:`~repro.sim.array.state.ArrayState` ownership mirror (kept
  bit-exact with ``SwarmState`` through the mirror hook, snapshotted each
  tick alongside the kernel's bigint snapshot);
* **deferred logging** — per-attempt log records are buffered as raw
  ``(tick, src, dst, block)`` tuples and materialised into the kernel's
  :class:`~repro.core.log.TransferLog` in one bulk
  :meth:`~repro.core.log.TransferLog.extend_batch` call (once per run, or
  whenever :meth:`sync_log` is invoked), replacing the per-attempt
  namedtuple construction and tick-order validation on the hot path;
* the **array receiver pool** — the per-tick eligible-receiver set as an
  ``int64`` array, so the uniform-sampling fallback scan can slice it and
  test interest for every candidate in one vectorized expression. Its
  activation order and swap-removals replicate the loop backend's list
  pool exactly, which is what keeps the RNG draw sequence — and
  therefore the golden logs — byte-identical.

The backend holds no attempt pipeline of its own: every judged, charged
or failed attempt runs through :meth:`TickKernel.attempt`, which keeps
the mirror current and logs through :meth:`push_delivery` /
:meth:`push_failure`. The one vectorized tick —
``RandomizedTickPolicy._run_tick_array``, the clean cooperative
complete-graph case — delivers inline against the mirror and the pool.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .state import ArrayState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..kernel import TickKernel

__all__ = ["ArrayBackend"]


class ArrayBackend:
    """Array-side twin of one :class:`~repro.sim.kernel.TickKernel` run."""

    __slots__ = (
        "kernel", "state", "n", "_deliveries", "_failures",
        "pool", "pos", "size",
    )

    def __init__(self, kernel: "TickKernel", state: ArrayState | None = None) -> None:
        self.kernel = kernel
        n = kernel.n
        self.n = n
        if state is None:
            state = ArrayState(n, kernel.k)
        self.state = state
        state.attach(kernel.state)
        self._deliveries: list[tuple[int, int, int, int]] = []
        self._failures: list[tuple[int, int, int, int]] = []
        #: Live per-tick receiver pool (valid slice: ``pool[:size]``).
        self.pool = np.zeros(n, dtype=np.int64)
        self.pos: list[int] = [-1] * n
        self.size = 0

    # -- deferred logging ----------------------------------------------------

    def push_delivery(self, tick: int, src: int, dst: int, block: int) -> None:
        """Buffer one delivered transfer (record-compatible signature)."""
        self._deliveries.append((tick, src, dst, block))

    def push_failure(self, tick: int, src: int, dst: int, block: int) -> None:
        """Buffer one failed attempt (record-compatible signature)."""
        self._failures.append((tick, src, dst, block))

    def sync_log(self) -> None:
        """Materialise buffered records into the kernel's log.

        Idempotent and incremental: the kernel calls it before assembling
        the run result; manual steppers reading ``kernel.log`` mid-run
        call :meth:`TickKernel.sync_log` themselves.
        """
        if self._deliveries or self._failures:
            self.kernel.log.extend_batch(self._deliveries, self._failures)
            self._deliveries.clear()
            self._failures.clear()

    # -- array receiver pool -------------------------------------------------

    def activate_pool(self, members: list[int]) -> None:
        """Arm the per-tick receiver pool with ``members`` (in order).

        The order and subsequent swap-removals replicate the loop
        backend's list pool exactly — pool layout feeds the policy's
        uniform draws, so it is part of the byte-identity contract.
        """
        size = len(members)
        if size:
            self.pool[:size] = members
        pos = [-1] * self.n
        for i, v in enumerate(members):
            pos[v] = i
        self.pos = pos
        self.size = size
