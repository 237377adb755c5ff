"""Kernel-level membership: executing a compiled workload timeline.

:class:`MembershipRuntime` owns the per-tick execution of a
:class:`~repro.workloads.compiler.CompiledWorkload`, on every registry
engine:

* **arrivals** — the node is enrolled empty at the start of its tick
  (``policy.after_arrival`` bootstraps engine-side state, e.g.
  BitTorrent's server-side optimistic unchoke); an explicit arrival
  (an initial-cohort client held back) is retired at construction;
* **availability downtime** — at a window start the node's retained
  state is captured (``policy.capture_retained``) and it leaves through
  the same path a fault crash takes; at the window end it returns
  through the fault-rejoin path (``restore_retained`` + ``after_rejoin``),
  holdings intact — downtime is a nap, not a crash;
* **departures** — scheduled from the explicit table, and as
  steady-state behavior: a client that completes departs after
  ``seed_holdover`` ticks of seeding. Either way the node leaves
  through the crash path (its copies leave the swarm), once: the first
  departure wins.

The runtime also keeps the open-system telemetry the analysis layer
reads: per-node join/completion/departure ticks (sojourn times),
swarm-size and seed-count series per tick, and dropped arrivals.

Goal semantics: a run completes when every client that *arrived and
stayed* holds the file — pending arrivals and napping incomplete nodes
that will return block the goal exactly the way pending fault rejoins
do; nodes whose last availability window runs past the horizon (they
never return) and departed nodes do not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..workloads.compiler import CompiledWorkload
    from .kernel import TickKernel

__all__ = ["MembershipRuntime"]

_NEVER = object()  # sentinel: no retained state recorded


class MembershipRuntime:
    """Per-run executor of one compiled workload; see module docstring."""

    def __init__(self, kernel: "TickKernel", compiled: "CompiledWorkload") -> None:
        self.kernel = kernel
        self.compiled = compiled
        horizon = kernel.max_ticks

        #: Join tick per participating client (0 = present from the start).
        self.joined_at: dict[int, int] = {}
        #: Completion tick per client (authoritative for the result).
        self.completed_at: dict[int, int] = {}
        #: Departure tick per client.
        self.departed_at: dict[int, int] = {}
        self.swarm_size_per_tick: list[int] = []
        self.seeds_per_tick: list[int] = []
        self.dropped_arrivals = compiled.dropped_arrivals

        self._arrive_at: dict[int, list[int]] = {}
        self._offline_at: dict[int, list[int]] = {}
        self._online_at: dict[int, list[int]] = {}
        self._depart_at: dict[int, list[int]] = {}
        #: Retained engine state of currently-napping nodes.
        self._offline: dict[int, object] = {}
        #: Napping incomplete nodes with a scheduled return (block the goal).
        self._offline_returning: set[int] = set()
        #: Present incomplete clients scanned for completion each tick.
        self._watch: set[int] = set()
        self._present_seeds = 0
        self._pending_arrivals = 0
        self._pending_online = 0
        self._pending_departures = 0

        state = kernel.state
        policy = kernel.policy
        scheduled = {node for node, _ in compiled.arrivals}
        # The arrival pool starts outside the swarm; pool ids the arrival
        # process never used are purged from the engine's goal structures
        # too (they are not part of this run at all).
        for node in range(compiled.initial + 1, kernel.n):
            kernel.absent.add(node)
            state.retire(node)
            kernel._pool_remove(node)
            if node not in scheduled:
                policy.after_departure(node)
        for node, tick in compiled.arrivals:
            if node <= compiled.initial:
                # An explicit arrival: held back from the initial cohort.
                kernel.absent.add(node)
                state.retire(node)
                kernel._pool_remove(node)
            self._arrive_at.setdefault(tick, []).append(node)
            self._pending_arrivals += 1
        for node in range(1, compiled.initial + 1):
            if node not in scheduled:
                self.joined_at[node] = 0
                self._watch.add(node)
        for node, tick in compiled.departures:
            if tick > horizon:
                # The run ends first; a pending departure it can never
                # reach would keep zero-attempt ticks inconclusive.
                continue
            self._depart_at.setdefault(tick, []).append(node)
            self._pending_departures += 1
        for node, windows in compiled.downtime:
            for start, end in windows:
                self._offline_at.setdefault(start, []).append(node)
                if end + 1 <= horizon:
                    self._online_at.setdefault(end + 1, []).append(node)
                    self._pending_online += 1

    # -- per-tick execution ------------------------------------------------

    def begin_tick(self, tick: int) -> None:
        """Apply this tick's membership events (before ``pre_tick`` and
        the fault draw; returns land first, mirroring fault rejoins)."""
        kernel = self.kernel
        state = kernel.state
        absent = kernel.absent
        policy = kernel.policy

        for node in self._online_at.pop(tick, ()):
            self._pending_online -= 1
            retained = self._offline.pop(node, _NEVER)
            if retained is _NEVER:
                # Departed while napping, or the window start was
                # skipped (the node was crash-absent): nothing to restore.
                continue
            absent.discard(node)
            state.enroll(node)
            policy.restore_retained(node, retained)
            if state.masks[node] != kernel._full:
                kernel._pool_add(node)
            policy.after_rejoin(node)
            self._offline_returning.discard(node)
            if node in self.completed_at:
                self._present_seeds += 1
            else:
                self._watch.add(node)

        for node in self._arrive_at.pop(tick, ()):
            self._pending_arrivals -= 1
            absent.discard(node)
            state.enroll(node)
            kernel._pool_add(node)
            policy.after_arrival(node)
            self.joined_at[node] = tick
            self._watch.add(node)

        for node in self._offline_at.pop(tick, ()):
            if node in absent:
                # Crash-absent (fault injection) or already napping:
                # skip the window; its own machinery owns the node.
                continue
            retained = policy.capture_retained(node)
            self._offline[node] = retained
            absent.add(node)
            state.retire(node)
            kernel._pool_remove(node)
            policy.after_crash(node)
            self._watch.discard(node)
            if node in self.completed_at:
                self._present_seeds -= 1
            elif self._has_online_event(node, tick):
                self._offline_returning.add(node)

        for node in self._depart_at.pop(tick, ()):
            self._pending_departures -= 1
            if node in self.departed_at:
                continue  # left already: the first departure wins
            if node in self._offline:
                # Departs mid-nap: it simply never returns.
                self._offline.pop(node)
                self._offline_returning.discard(node)
                self.departed_at[node] = tick
                continue
            if node in absent:
                # Crash-absent: the departure wins — cancel the fault
                # rejoin so the run stops waiting for it.
                if kernel.faults is not None:
                    kernel.faults.cancel_rejoin(node)
                self.departed_at[node] = tick
                continue
            absent.add(node)
            state.retire(node)
            kernel._pool_remove(node)
            policy.after_departure(node)
            self._watch.discard(node)
            if node in self.completed_at:
                self._present_seeds -= 1
            self.departed_at[node] = tick

    def end_tick(self, tick: int) -> None:
        """Completion scan + telemetry series, after the tick's uploads."""
        kernel = self.kernel
        policy = kernel.policy
        # Sorted: the scan order decides the order completers join the
        # same departure tick (and therefore later retire/pool order),
        # which must be a function of *content* — not of set insertion
        # history — for checkpoint restore to continue bit-identically.
        newly_complete = [v for v in sorted(self._watch) if policy.node_complete(v)]
        for node in newly_complete:
            self._watch.discard(node)
            self.completed_at[node] = tick
            self._present_seeds += 1
            if self.compiled.depart_after_complete:
                depart = tick + 1 + self.compiled.seed_holdover
                if depart <= kernel.max_ticks:
                    self._depart_at.setdefault(depart, []).append(node)
                    self._pending_departures += 1
        self.swarm_size_per_tick.append(kernel.n - 1 - len(kernel.absent))
        self.seeds_per_tick.append(self._present_seeds)

    def _has_online_event(self, node: int, after: int) -> bool:
        return any(
            node in nodes
            for tick, nodes in self._online_at.items()
            if tick > after
        )

    # -- run-loop hooks ----------------------------------------------------

    def goal_ok(self) -> bool:
        """Whether membership allows the run to end now: no pending
        arrivals and no napping incomplete node that will return."""
        return not self._pending_arrivals and not self._offline_returning

    def events_pending(self) -> bool:
        """Whether any future membership event could still change the
        swarm (arrivals, returns from downtime, scheduled departures) —
        consulted by the deadlock proof and stall heuristics."""
        return bool(
            self._pending_arrivals
            or self._pending_online
            or self._pending_departures
        )

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Snapshot the timeline position for a tick-boundary checkpoint.

        The compiled workload itself is reconstructed by construction
        replay (same spec, same seed draw); what must travel is the
        *consumed* position: remaining event tables (``begin_tick`` pops
        destructively), napping nodes' retained state, the watch set,
        pending-event counters and the telemetry series.
        """
        def table(mapping: dict[int, list[int]]) -> list[list]:
            return [[tick, list(nodes)] for tick, nodes in sorted(mapping.items())]

        return {
            "joined_at": [list(p) for p in sorted(self.joined_at.items())],
            "completed_at": [list(p) for p in sorted(self.completed_at.items())],
            "departed_at": [list(p) for p in sorted(self.departed_at.items())],
            "swarm_size_per_tick": list(self.swarm_size_per_tick),
            "seeds_per_tick": list(self.seeds_per_tick),
            "arrive_at": table(self._arrive_at),
            "offline_at": table(self._offline_at),
            "online_at": table(self._online_at),
            "depart_at": table(self._depart_at),
            "offline": [
                [node, list(r) if isinstance(r, tuple) else r]
                for node, r in sorted(self._offline.items())
            ],
            "offline_returning": sorted(self._offline_returning),
            "watch": sorted(self._watch),
            "present_seeds": self._present_seeds,
            "pending_arrivals": self._pending_arrivals,
            "pending_online": self._pending_online,
            "pending_departures": self._pending_departures,
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Restore :meth:`capture_state` output in place (construction
        already rebuilt the full tables; this rewinds them to the
        checkpoint's consumed position)."""
        def untable(rows) -> dict[int, list[int]]:
            return {tick: list(nodes) for tick, nodes in rows}

        self.joined_at = {node: tick for node, tick in state["joined_at"]}
        self.completed_at = {node: tick for node, tick in state["completed_at"]}
        self.departed_at = {node: tick for node, tick in state["departed_at"]}
        self.swarm_size_per_tick = list(state["swarm_size_per_tick"])
        self.seeds_per_tick = list(state["seeds_per_tick"])
        self._arrive_at = untable(state["arrive_at"])
        self._offline_at = untable(state["offline_at"])
        self._online_at = untable(state["online_at"])
        self._depart_at = untable(state["depart_at"])
        self._offline = {node: value for node, value in state["offline"]}
        self._offline_returning = set(state["offline_returning"])
        self._watch = set(state["watch"])
        self._present_seeds = state["present_seeds"]
        self._pending_arrivals = state["pending_arrivals"]
        self._pending_online = state["pending_online"]
        self._pending_departures = state["pending_departures"]

    # -- result assembly ---------------------------------------------------

    def completed_ticks(self) -> dict[int, int]:
        """Per-client completion ticks (clients that arrived and
        completed, including any that departed as satisfied seeds)."""
        return dict(self.completed_at)

    def telemetry(self) -> dict[str, object]:
        """Open-system metadata merged into the run result's ``meta``."""
        compiled = self.compiled
        return {
            "workload_seed": compiled.seed,
            "workload_initial": compiled.initial,
            "arrived": len(self.joined_at),
            "joined_at": dict(self.joined_at),
            "departed_at": dict(self.departed_at),
            "swarm_size_per_tick": list(self.swarm_size_per_tick),
            "seeds_per_tick": list(self.seeds_per_tick),
            "dropped_arrivals": self.dropped_arrivals,
            "unused_clients": len(
                set(range(compiled.initial + 1, self.kernel.n))
                - {node for node, _ in compiled.arrivals}
            ),
            "availability_profiles": dict(compiled.profile_of),
        }
