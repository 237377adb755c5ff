"""Churn: clients arriving and departing mid-dissemination.

The paper studies a static swarm, noting that other systems (SplitStream,
network coding) are "specifically tailored toward goals like robustness
and ability to handle rapid peer arrivals/departures", and that BitTorrent
models study "the evolution of the system upload bandwidth as nodes join
and leave". This module adds that dimension to the randomized engine:

* a **departing** client leaves at the start of its departure tick; its
  copies vanish from the swarm (holder counts drop — a late departure can
  even make a block rare again) and it stops counting toward completion;
* an **arriving** client is absent until its arrival tick, then joins
  empty and must collect the whole file.

Completion means: every client present at the end holds the file. The
deadlock abort only fires once no arrivals are pending (a fresh arrival
can revive a stalled barter swarm — which the churn ablation shows).
"""

from __future__ import annotations

from ..core.errors import ConfigError
from ..core.log import RunResult
from ..core.mechanisms import Mechanism
from ..core.model import SERVER
from ..overlays.dynamic import DynamicOverlay
from ..overlays.graph import Graph
from .engine import RandomizedEngine, RandomizedTickPolicy
from .policies import BlockPolicy

__all__ = ["ChurnEngine", "ChurnTickPolicy", "churn_run"]


class ChurnTickPolicy(RandomizedTickPolicy):
    """Randomized sampling with scheduled arrivals and departures.

    The churn tables are injected after kernel construction via
    :meth:`configure_churn` (late arrivals must retire *after* the swarm
    state exists); the per-tick hooks then apply churn events ahead of
    fault events and the snapshot.
    """

    name = "randomized-churn"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.arrivals: dict[int, int] = {}
        self.departures: dict[int, int] = {}
        self._by_tick_arrivals: dict[int, list[int]] = {}
        self._by_tick_departures: dict[int, list[int]] = {}
        self._pending_arrivals = 0
        self.departed: set[int] = set()

    def configure_churn(
        self, arrivals: dict[int, int], departures: dict[int, int]
    ) -> None:
        kernel = self.kernel
        self.arrivals = dict(arrivals)
        self.departures = dict(departures)
        # Late arrivals start absent.
        for node in self.arrivals:
            kernel.absent.add(node)
            kernel.state.retire(node)
            kernel._pool_remove(node)
        for node, tick in self.arrivals.items():
            self._by_tick_arrivals.setdefault(tick, []).append(node)
        for node, tick in self.departures.items():
            self._by_tick_departures.setdefault(tick, []).append(node)
        self._pending_arrivals = len(self.arrivals)

    # -- churn processing --------------------------------------------------

    def _apply_churn(self, tick: int) -> None:
        kernel = self.kernel
        absent = kernel.absent
        state = kernel.state
        for node in self._by_tick_arrivals.get(tick, ()):
            if node in self.departed:  # pragma: no cover - validated earlier
                continue
            absent.discard(node)
            state.enroll(node)
            kernel._pool_add(node)
            self._pending_arrivals -= 1
        for node in self._by_tick_departures.get(tick, ()):
            if node in absent:
                # A crashed node (fault injection) departs for good from
                # wherever it was: its scheduled rejoin is cancelled so
                # the run stops waiting for it.
                if kernel.faults is not None and kernel.faults.cancel_rejoin(node):
                    self.departed.add(node)
                continue
            absent.add(node)
            self.departed.add(node)
            state.retire(node)
            kernel._pool_remove(node)

    def pre_tick(self, tick: int) -> None:
        self._apply_churn(tick)
        super().pre_tick(tick)

    # -- run-loop hooks ----------------------------------------------------

    def goal_extra(self) -> bool:
        return not self._pending_arrivals

    def zero_tick_conclusive(self) -> bool:
        return (
            super().zero_tick_conclusive()
            and not self._pending_arrivals
            and not self._upcoming_departures()
        )

    def completions(self) -> dict[int, int]:
        kernel = self.kernel
        if not kernel.keep_log:
            return {}
        absent = kernel.absent
        return {
            c: t
            for c, t in kernel.log.completion_ticks(kernel.n, kernel.k).items()
            if c not in self.departed and c not in absent
        }

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """The churn tables themselves are construction-time configuration
        (``configure_churn`` replays them); only the consumed position —
        how many arrivals remain, who already left — must travel."""
        state = super().capture_state()
        state["pending_arrivals"] = self._pending_arrivals
        state["departed"] = sorted(self.departed)
        return state

    def restore_state(self, state: dict[str, object]) -> None:
        super().restore_state(state)
        self._pending_arrivals = state["pending_arrivals"]
        self.departed = set(state["departed"])

    def result_meta(self) -> dict[str, object]:
        kernel = self.kernel
        return {
            "algorithm": self.name,
            "policy": self.block_policy.name,
            "mechanism": self.mechanism.name,
            "arrivals": dict(self.arrivals),
            "departures": dict(self.departures),
            "departed": sorted(self.departed),
            "uploads_per_tick": kernel.uploads_per_tick,
            "final_holdings": [m.bit_count() for m in kernel.state.masks],
        }

    def _upcoming_departures(self) -> bool:
        """Whether any departure is still scheduled after the current tick.

        A departure can unblock nothing (it only removes capacity), but it
        can change the completion *goal* — a swarm stalled solely on a
        client that is about to leave is not deadlocked.
        """
        tick = self.kernel.tick
        return any(t > tick for t in self.departures.values())


class ChurnEngine(RandomizedEngine):
    """Randomized engine with scheduled client arrivals and departures.

    Parameters beyond :class:`RandomizedEngine` (which takes the
    overlay, block policy, mechanism and the kernel's run options):

    arrivals:
        Mapping ``client -> tick`` (1-based) at which it joins; clients
        not listed are present from the start.
    departures:
        Mapping ``client -> tick`` at which it leaves (start of tick).
        A client may both arrive and depart; it must arrive first.

    Ticks are 1-based (tick 0 is the initial state, so a tick-0 arrival
    is refused). An arrival scheduled after ``max_ticks`` is refused too
    — it could never join and the run would burn its whole budget
    waiting. A *departure* after ``max_ticks`` is allowed and simply
    never happens (the run ends first); it still counts as an upcoming
    departure for the deadlock proof.
    """

    _tick_policy_cls = ChurnTickPolicy
    tick_policy: ChurnTickPolicy

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | DynamicOverlay | None = None,
        policy: BlockPolicy | None = None,
        mechanism: Mechanism | None = None,
        *,
        arrivals: dict[int, int] | None = None,
        departures: dict[int, int] | None = None,
        **options,
    ) -> None:
        # Churn runs are unthrottled: a ``throttle=`` keyword collides
        # with this one and raises TypeError.
        super().__init__(n, k, overlay, policy, mechanism, throttle=None, **options)
        arrivals = dict(arrivals or {})
        departures = dict(departures or {})
        for label, table in (("arrival", arrivals), ("departure", departures)):
            for node, tick in table.items():
                if node == SERVER:
                    raise ConfigError("the server neither arrives nor departs")
                if not 1 <= node < n:
                    raise ConfigError(f"{label} for unknown client {node}")
                if tick < 1:
                    raise ConfigError(f"{label} ticks are 1-based, got {tick}")
        for node, tick in arrivals.items():
            # An arrival past the tick guard can never join: the run
            # would wait out the goal until max_ticks and abort. Refuse
            # it up front rather than silently burning the whole budget.
            if tick > self.kernel.max_ticks:
                raise ConfigError(
                    f"client {node} arrives at tick {tick}, after the run's "
                    f"max_ticks ({self.kernel.max_ticks}); it could never "
                    f"join — raise max_ticks or move the arrival"
                )
        for node, tick in departures.items():
            if node in arrivals and arrivals[node] >= tick:
                raise ConfigError(
                    f"client {node} would depart (tick {tick}) before or at "
                    f"its arrival (tick {arrivals[node]})"
                )
        self.tick_policy.configure_churn(arrivals, departures)

    @property
    def arrivals(self) -> dict[int, int]:
        return self.tick_policy.arrivals

    @property
    def departures(self) -> dict[int, int]:
        return self.tick_policy.departures

    @property
    def departed(self) -> set[int]:
        return self.tick_policy.departed


def churn_run(
    n: int,
    k: int,
    arrivals: dict[int, int] | None = None,
    departures: dict[int, int] | None = None,
    **options,
) -> RunResult:
    """One randomized run under churn; see :class:`ChurnEngine`."""
    return ChurnEngine(
        n, k, arrivals=arrivals, departures=departures, **options
    ).run()
