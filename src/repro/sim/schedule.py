"""Deterministic schedules on the kernel.

:class:`ScheduleTickPolicy` executes a :class:`~repro.core.engine.Schedule`
through ``kernel.attempt``, so the paper's deterministic algorithms
share the kernel's capacity ledger, fault judge, crash and membership
events, checkpoints and verdicts with every other engine.
:func:`~repro.core.engine.execute_schedule` runs one and documents the
raise-or-defer rule. Each tick handles the due deferred and retried
transfers first, then the tick's planned ones, in the schedule's order.
"""

from __future__ import annotations

import dataclasses
import heapq

from ..core.engine import Schedule
from ..core.errors import ScheduleViolation
from ..faults.recovery import RecoveryPolicy
from .kernel import TickKernel
from .policy import TickPolicy

__all__ = ["ScheduleTickPolicy", "schedule_kernel"]

_MISSES = {
    "causality": "planned sender {src} lacks block {block} at tick start",
    "usefulness": "planned receiver {dst} already holds block {block}",
    "upload-capacity": "node {src} planned to upload past its capacity in one tick",
    "download-capacity": "node {dst} planned to download past its capacity in one tick",
}


class ScheduleTickPolicy(TickPolicy):
    """Executes one schedule; see module docstring. A planned server
    send inside an outage window is committed and fails through the
    fault judge, burning its slot."""

    name = "schedule"
    bandwidth_support = "full"
    judges_server_windows = True

    def __init__(self, schedule: Schedule) -> None:
        self.schedule = schedule
        # A transfer's sequence number is its index in the schedule's
        # iteration order; it orders deferred and retried transfers.
        self._first_seq: dict[int, int] = {}
        seq = 0
        for tick in range(1, schedule.ticks + 1):
            self._first_seq[tick] = seq
            seq += len(schedule.transfers_at(tick))
        #: Deferred and retried transfers, as
        #: ``(due, seq, src, dst, block, failed_attempts)``.
        self._pending: list[tuple[int, int, int, int, int, int]] = []
        self.abandoned = 0
        self.retried = 0

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        tick = kernel.tick
        exact = kernel.faults is None
        masks = kernel.state.masks
        absent = kernel.absent
        ledger = kernel.download_ledger
        capacity = kernel.model.upload_capacity
        recovery = kernel.recovery
        pending = self._pending
        work = []
        while pending and pending[0][0] <= tick:
            work.append(heapq.heappop(pending)[1:])
        planned = self.schedule.transfers_at(tick)
        if planned:
            first = self._first_seq[tick]
            work.extend(
                (seq, src, dst, block, 0)
                for seq, (_, src, dst, block) in enumerate(planned, first)
            )
        uploads: dict[int, int] = {}
        later = []
        for seq, src, dst, block, failed in work:
            held = masks[dst] >> block & 1
            if held and not exact:
                continue  # delivered by an earlier (re)attempt
            used = uploads.get(src, 0)
            # An absent sender holds nothing, so it misses like any
            # sender still waiting for the block.
            if dst in absent or not snapshot[src] >> block & 1:
                miss = "causality"
            elif held:
                miss = "usefulness"
            elif used >= capacity(src):
                miss = "upload-capacity"
            elif ledger is not None and ledger[dst] <= 0:
                miss = "download-capacity"
            else:
                miss = None
            if miss is not None:
                if exact:
                    message = _MISSES[miss].format(src=src, dst=dst, block=block)
                    raise ScheduleViolation(message, tick=tick, rule=miss)
                later.append((tick + 1, seq, src, dst, block, failed))
                continue
            uploads[src] = used + 1
            if kernel.attempt(src, dst, block):
                continue
            failed += 1
            if failed > recovery.max_retries:
                self.abandoned += 1
                continue
            self.retried += 1
            due = tick + recovery.retry_delay(failed)
            later.append((due, seq, src, dst, block, failed))
        for item in later:
            heapq.heappush(pending, item)

    def all_complete(self) -> bool:
        # An exact plan runs to its last tick, so a transfer planned past
        # the last completion still raises.
        kernel = self.kernel
        return kernel.state.all_complete and (
            kernel.faults is not None or kernel.tick >= self.schedule.ticks
        )

    def zero_tick_conclusive(self) -> bool:
        return not self._pending and self.kernel.tick >= self.schedule.ticks

    def _unfinished(self) -> int:
        """Transfers still pending, or planned past the run's last tick,
        whose receiver lacks the block."""
        masks = self.kernel.state.masks
        schedule = self.schedule
        left = [item[3:5] for item in self._pending]
        for tick in range(self.kernel.tick + 1, schedule.ticks + 1):
            left.extend((t.dst, t.block) for t in schedule.transfers_at(tick))
        return sum(not masks[dst] >> block & 1 for dst, block in left)

    def result_meta(self) -> dict[str, object]:
        kernel = self.kernel
        schedule = self.schedule
        if kernel.faults is None:
            meta = dict(schedule.meta)
            meta.setdefault("model", kernel.model)
        else:
            meta = {"algorithm": "schedule-replay", "schedule": dict(schedule.meta)}
        meta["planned_ticks"] = schedule.ticks
        meta["planned_transfers"] = len(schedule)
        meta["abandoned_transfers"] = self.abandoned + self._unfinished()
        meta["retries"] = self.retried
        return meta

    def capture_state(self) -> dict[str, object]:
        return {
            "pending": [list(item) for item in self._pending],
            "abandoned": self.abandoned,
            "retried": self.retried,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        # The captured list is already a heap; keep its order.
        self._pending = [tuple(item) for item in state["pending"]]
        self.abandoned = state["abandoned"]
        self.retried = state["retried"]


def schedule_kernel(schedule: Schedule, model=None, **options) -> TickKernel:
    """The kernel :func:`~repro.core.engine.execute_schedule` runs;
    ``**options`` are the kernel's run options. Retries are the
    schedule's recovery, so the caller's ``RecoveryPolicy`` gets a stall
    window longer than the run: it never ends on ``stall``."""
    max_ticks = options.pop("max_ticks", None) or 4 * schedule.ticks + 64
    recovery = options.pop("recovery", None) or RecoveryPolicy()
    recovery = dataclasses.replace(recovery, stall_window=max_ticks + 1)
    return TickKernel(
        schedule.n,
        schedule.k,
        ScheduleTickPolicy(schedule),
        model=model,
        max_ticks=max_ticks,
        recovery=recovery,
        credit=None,
        **options,
    )
