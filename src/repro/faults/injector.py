"""Per-run fault injection: the stochastic realisation of a FaultPlan.

One :class:`FaultInjector` serves one run of one engine. It owns its own
:class:`random.Random` stream, separate from the engine's, so the
*decision sequence* of a run (who uploads what to whom) is never
perturbed by merely asking fault questions — and a given
``(plan, seed)`` pair always realises the same faults for the same
sequence of queries.

Engines integrate through three hooks:

* :meth:`begin_tick` — called at tick start; returns the crash and
  rejoin events to apply before anyone uploads;
* :meth:`server_down` — whether the server skips this tick (explicit
  outage windows);
* :meth:`transfer_fails` — called once per *attempted* transfer after
  the engine has committed bandwidth to it; a ``True`` verdict means the
  attempt consumed its capacity (and credit) but delivered nothing.

Continuous-time engines pass float times; Bernoulli loss is timeless and
outage/server windows compare with plain ``<=``, so both clocks work.
"""

from __future__ import annotations

import random

from ..checkpoint import rng_state_from_json, rng_state_to_json
from ..core.errors import ConfigError
from ..core.model import SERVER
from .plan import FaultPlan

__all__ = ["FaultInjector"]


class FaultInjector:
    """Stateful fault stream for one run; see module docstring.

    Attributes (telemetry, read by engines for run metadata)
    ----------
    attempts, failures:
        Transfer attempts judged, and how many were failed.
    crashes, rejoins:
        Node-crash and rejoin events issued so far.
    """

    __slots__ = (
        "plan",
        "rng",
        "attempts",
        "failures",
        "crashes",
        "rejoins",
        "_link_down_until",
        "_rejoin_at",
        "_retained",
        "crash_log",
        "rejoin_log",
        # Hot-path caches (transfer_fails runs once per attempted
        # transfer; plan attribute chains add up at engine scale).
        "_loss_rate",
        "_outage_rate",
        "_rand",
        "judges_links",
        "has_server_windows",
    )

    def __init__(self, plan: FaultPlan, rng: random.Random | int | None) -> None:
        if plan.is_null:
            raise ConfigError(
                "a null FaultPlan injects nothing; engines should not build "
                "an injector for it"
            )
        self.plan = plan
        self.rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        self.attempts = 0
        self.failures = 0
        self.crashes = 0
        self.rejoins = 0
        # Directed link -> time until which it is dark (exclusive).
        self._link_down_until: dict[tuple[int, int], float] = {}
        # Crashed node -> scheduled rejoin tick (fail-stop nodes absent).
        self._rejoin_at: dict[int, int] = {}
        # Crashed node -> state it will retain on rejoin: a block mask,
        # or whatever the policy's crash_retention_sampler produced.
        self._retained: dict[int, object] = {}
        # Event history, so logs can be *verified* against the crashes
        # that explain them: (tick, node) and (tick, node, retained).
        self.crash_log: list[tuple[int, int]] = []
        self.rejoin_log: list[tuple[int, int, object]] = []
        self._loss_rate = plan.loss_rate
        self._outage_rate = plan.outage_rate
        self._rand = self.rng.random
        #: Whether per-attempt judging can ever fail a *client* attempt.
        #: Tick-synchronous engines skip :meth:`transfer_fails` entirely
        #: when this is False — they already bench the server during its
        #: outage windows, so only loss/outage can touch their attempts.
        #: (Engines that judge in-flight transfers, and policies that
        #: declare ``judges_server_windows`` — deterministic schedules —
        #: must also judge when ``has_server_windows``.)
        self.judges_links = plan.loss_rate > 0.0 or plan.outage_rate > 0.0
        self.has_server_windows = bool(plan.server_outages)

    # -- link faults -------------------------------------------------------

    def server_down(self, now: float) -> bool:
        """Whether the server sits out this instant (outage windows)."""
        return any(start <= now <= end for start, end in self.plan.server_outages)

    def transfer_fails(self, now: float, src: int, dst: int) -> bool:
        """Judge one committed attempt; True means it delivered nothing.

        Server sends during an outage window always fail. The live
        engines never get here for those — they skip the server's turn
        outright — but a deterministic schedule (:mod:`repro.sim.schedule`)
        commits planned server transfers unaware of the window, and they
        must burn their slot.
        """
        self.attempts += 1
        if src == SERVER and self.has_server_windows and self.server_down(now):
            self.failures += 1
            return True
        if self._outage_rate > 0.0:
            key = (src, dst)
            until = self._link_down_until.get(key)
            if until is not None and now < until:
                self.failures += 1
                return True
            if self._rand() < self._outage_rate:
                self._link_down_until[key] = now + self.plan.outage_duration
                self.failures += 1
                return True
        if self._loss_rate > 0.0 and self._rand() < self._loss_rate:
            self.failures += 1
            return True
        return False

    # -- node crashes ------------------------------------------------------

    def tick_events_possible(self) -> bool:
        """Whether :meth:`begin_tick` could issue any event right now.

        False when no rejoin is pending and the crash hazard is off (rate
        zero, or the ``max_crashes`` budget is spent). Engines use this to
        skip building the per-tick present-node list — the dominant cost
        of an armed-but-crash-free injector at large ``n``.
        """
        if self._rejoin_at:
            return True
        plan = self.plan
        return plan.crash_rate > 0.0 and (
            plan.max_crashes is None or self.crashes < plan.max_crashes
        )

    def begin_tick(
        self, tick: int, present: list[int]
    ) -> tuple[list[int], list[tuple[int, object]]]:
        """Crash/rejoin events at the start of ``tick``.

        Returns ``(crashes, rejoins)``: clients (drawn from ``present``,
        in the given order) that crash now, and ``(node, retained_mask)``
        pairs whose rejoin is due. The engine must call
        :meth:`note_crash` for every crash it applies, with the node's
        holdings at crash time, so the retained mask can be sampled.
        """
        rejoins = [
            (node, self._retained.pop(node, 0))
            for node, due in sorted(self._rejoin_at.items())
            if due <= tick
        ]
        for node, retained in rejoins:
            del self._rejoin_at[node]
            self.rejoins += 1
            self.rejoin_log.append((tick, node, retained))

        crashes: list[int] = []
        plan = self.plan
        if plan.crash_rate > 0.0 and (
            plan.max_crashes is None or self.crashes < plan.max_crashes
        ):
            for node in present:
                if self.rng.random() < plan.crash_rate:
                    crashes.append(node)
                    self.crashes += 1
                    if (
                        plan.max_crashes is not None
                        and self.crashes >= plan.max_crashes
                    ):
                        break
        return crashes, rejoins

    def note_crash(
        self, tick: int, node: int, mask: int, sample_retained=None
    ) -> None:
        """Record a crash the engine applied; samples retention/rejoin.

        With ``rejoin_delay == 0`` the crash is fail-stop and nothing is
        scheduled. Otherwise each held block survives independently with
        probability ``rejoin_retention`` and the node returns at
        ``tick + rejoin_delay``.

        Policies whose per-node state is not a block mask pass
        ``sample_retained`` (see
        :meth:`repro.sim.policy.TickPolicy.crash_retention_sampler`); it
        is invoked as ``sample_retained(rng, retention)`` on the
        injector's RNG stream in place of the per-bit draw, and whatever
        it returns travels through the rejoin event verbatim.
        """
        self.crash_log.append((tick, node))
        plan = self.plan
        if plan.rejoin_delay <= 0:
            return
        retained: object
        if sample_retained is not None:
            retained = sample_retained(self.rng, plan.rejoin_retention)
        else:
            retained = 0
            if plan.rejoin_retention > 0.0 and mask:
                bit = 1
                m = mask
                while m:
                    if m & 1 and self.rng.random() < plan.rejoin_retention:
                        retained |= bit
                    m >>= 1
                    bit <<= 1
        self._rejoin_at[node] = tick + plan.rejoin_delay
        self._retained[node] = retained

    def cancel_rejoin(self, node: int) -> bool:
        """Drop a pending rejoin (the node departed for good); True if any."""
        self._retained.pop(node, None)
        return self._rejoin_at.pop(node, None) is not None

    def pending_rejoins(self) -> bool:
        """Whether any crashed node is still scheduled to return."""
        return bool(self._rejoin_at)

    # -- engine reasoning --------------------------------------------------

    def zero_attempt_conclusive(self, tick: int) -> bool:
        """Whether a tick with *zero attempted transfers* proves deadlock.

        Loss and link outages only fail attempts — they never create new
        eligibility — so if nobody could even attempt a transfer, the
        swarm is stuck unless (a) a crashed node may yet rejoin, (b)
        future crashes could change the goal set, or (c) the server sat
        this tick out and may return. Those are exactly the exceptions.
        """
        return (
            self.plan.crash_rate == 0.0
            and not self._rejoin_at
            and not self.server_down(tick)
        )

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Snapshot the fault stream for a tick-boundary checkpoint.

        Everything per-run and mutable: the RNG state, the telemetry
        counters, the armed latches (dark links, scheduled rejoins and
        their retained state) and the event history. The plan itself is
        construction-time configuration and is not captured.
        """
        return {
            "rng": rng_state_to_json(self.rng.getstate()),
            "attempts": self.attempts,
            "failures": self.failures,
            "crashes": self.crashes,
            "rejoins": self.rejoins,
            "link_down_until": [
                [src, dst, until]
                for (src, dst), until in sorted(self._link_down_until.items())
            ],
            "rejoin_at": [
                [node, due] for node, due in sorted(self._rejoin_at.items())
            ],
            "retained": [
                [node, list(r) if isinstance(r, tuple) else r]
                for node, r in sorted(self._retained.items())
            ],
            "crash_log": [list(event) for event in self.crash_log],
            "rejoin_log": [
                [tick, node, list(r) if isinstance(r, tuple) else r]
                for tick, node, r in self.rejoin_log
            ],
        }

    def restore_state(self, state: dict[str, object]) -> None:
        """Restore :meth:`capture_state` output in place.

        ``setstate`` mutates the existing ``Random`` object, so the
        cached ``_rand`` bound method stays valid. Retained values that
        were tuples (coding basis rows) come back as lists; every
        consumer (``events()``, ``restore_retained``) accepts either.
        """
        self.rng.setstate(rng_state_from_json(state["rng"]))
        self.attempts = state["attempts"]
        self.failures = state["failures"]
        self.crashes = state["crashes"]
        self.rejoins = state["rejoins"]
        self._link_down_until = {
            (src, dst): until for src, dst, until in state["link_down_until"]
        }
        self._rejoin_at = {node: due for node, due in state["rejoin_at"]}
        self._retained = {node: value for node, value in state["retained"]}
        self.crash_log = [tuple(event) for event in state["crash_log"]]
        self.rejoin_log = [
            (tick, node, retained) for tick, node, retained in state["rejoin_log"]
        ]

    def telemetry(self) -> dict[str, int]:
        """Counters for run metadata."""
        return {
            "fault_attempts": self.attempts,
            "failed_transfers": self.failures,
            "crashes": self.crashes,
            "rejoins": self.rejoins,
        }

    def events(self) -> dict[str, list[list]]:
        """Crash/rejoin event history, JSON-shaped, for run metadata.

        :func:`repro.core.verify.verify_log` takes these back (as
        ``crash_events`` / ``rejoin_events``) so a log whose holdings were
        perturbed by crashes can still be verified strictly.
        """
        out: dict[str, list[list]] = {}
        if self.crash_log:
            out["crash_events"] = [list(e) for e in self.crash_log]
        if self.rejoin_log:
            # Retained state is a mask (int) or a tuple of basis rows
            # (coding); tuples become lists so the row is JSON-shaped.
            out["rejoin_events"] = [
                [t, node, list(r) if isinstance(r, tuple) else r]
                for t, node, r in self.rejoin_log
            ]
        return out
