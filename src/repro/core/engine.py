"""Execution of deterministic schedules.

The paper's deterministic algorithms (pipeline, multicast trees, binomial
pipeline, hypercube, riffle pipeline) are expressed in this library as
*schedules*: explicit tick-indexed lists of transfers, built ahead of time
by :mod:`repro.schedules`. :func:`execute_schedule` runs a schedule on the
simulation kernel against a fresh swarm, enforcing the bandwidth model
as it goes (exactly, or under faults with deferral and retry), and
returns a :class:`~repro.core.log.RunResult` whose log can then be independently
re-checked by :mod:`repro.core.verify`.

Separating *schedule construction* from *execution* keeps the algorithms
purely combinatorial (easy to test and reason about) while the execution
and verification layers own all model enforcement.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .log import RunResult, Transfer, TransferLog
from .model import BandwidthModel

__all__ = ["Schedule", "execute_schedule"]


class Schedule:
    """A tick-indexed plan of transfers for ``n`` nodes and ``k`` blocks.

    Construction helpers accumulate transfers in any order; ticks are
    normalised when the schedule is executed or iterated.
    """

    __slots__ = ("n", "k", "_ticks", "meta")

    def __init__(self, n: int, k: int, meta: Mapping[str, object] | None = None) -> None:
        self.n = n
        self.k = k
        self._ticks: dict[int, list[Transfer]] = {}
        self.meta: dict[str, object] = dict(meta or {})

    def add(self, tick: int, src: int, dst: int, block: int) -> None:
        """Plan one transfer at ``tick`` (1-based)."""
        self._ticks.setdefault(tick, []).append(Transfer(tick, src, dst, block))

    def extend(self, transfers: Iterable[Transfer]) -> None:
        """Plan many transfers at once."""
        for t in transfers:
            self._ticks.setdefault(t.tick, []).append(t)

    @property
    def ticks(self) -> int:
        """Highest tick with planned activity (the schedule's makespan)."""
        return max(self._ticks, default=0)

    def transfers_at(self, tick: int) -> Sequence[Transfer]:
        """Transfers planned for ``tick`` (possibly empty)."""
        return self._ticks.get(tick, ())

    def __len__(self) -> int:
        return sum(len(v) for v in self._ticks.values())

    def __iter__(self):
        for tick in sorted(self._ticks):
            yield from self._ticks[tick]

    def to_log(self) -> TransferLog:
        """Materialise the schedule as a tick-ordered transfer log."""
        return TransferLog(iter(self))

    def shifted(self, offset: int) -> "Schedule":
        """A copy of this schedule with every tick moved by ``offset``."""
        out = Schedule(self.n, self.k, self.meta)
        for t in self:
            out.add(t.tick + offset, t.src, t.dst, t.block)
        return out


def execute_schedule(
    schedule: Schedule, model: BandwidthModel | None = None, **options
) -> RunResult:
    """Run ``schedule`` against a fresh swarm and return the result.

    The schedule executes on :class:`~repro.sim.kernel.TickKernel`
    (:mod:`repro.sim.schedule`); every other keyword is a kernel run
    option (``faults``, ``recovery``, ``rng``, ``max_ticks``,
    ``keep_log``, ``workload``, ``bandwidth``, ``telemetry``).
    ``max_ticks`` defaults to four times the schedule's makespan plus 64.

    Raise or defer: without a fault plan the plan must execute exactly
    as written. Senders consult the start-of-tick snapshot, and upload
    and download capacities are enforced tick by tick. Under a
    :class:`~repro.faults.plan.FaultPlan` a transfer that cannot run yet
    (its sender still lacks the block, a node is absent, or retries fill
    the tick) is deferred to the next tick, and a failed attempt is
    retried under the :class:`~repro.faults.recovery.RecoveryPolicy`'s
    bounded backoff.

    Raises
    ------
    ScheduleViolation
        If, without a fault plan, the schedule breaks the model. The
        verifier would catch the same breach, but failing fast during
        execution gives construction bugs a shorter trail.
    """
    from ..sim.schedule import schedule_kernel

    return schedule_kernel(schedule, model, **options).run()
