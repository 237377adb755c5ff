"""The shared tick-synchronous simulation kernel.

Every tick engine in this library used to own a private copy of the same
machinery: the tick loop, the start-of-tick snapshot, live capacity
counters, fault judging, logging and the abort verdict. This module is
that machinery, written once. An engine is now a
:class:`~repro.sim.policy.TickPolicy` (who uploads what to whom) driving
a :class:`TickKernel` (everything else), which is what makes fault
plans, stall detection and progress callbacks behave identically across
mechanisms — and gives the library a single hot path to optimise.

Kernel responsibilities, per tick:

1. workload membership events (arrivals, naps, departures), then
   ``policy.pre_tick`` — dynamic-overlay updates;
2. fault crash/rejoin processing (rejoins land before the crash draw);
3. the start-of-tick snapshot via ``SwarmState.begin_tick`` (synchronous
   semantics: blocks received in tick ``t`` forward from ``t + 1``);
4. the download-capacity ledger (``dl_left``), including the
   complete-graph incremental *receiver pool* used for O(1) eligible
   sampling;
5. ``policy.run_tick`` — the policy attempts transfers through
   :meth:`TickKernel.attempt`, which judges each attempt against the
   fault injector, applies deliveries, charges capacity and credit, and
   logs both streams;
6. verdicts — the uniform ``None | deadlock | stall | max-ticks`` abort,
   with deadlock only on a *conclusive* zero-attempt tick.

RNG discipline: the kernel draws nothing itself. Decision randomness
belongs to the policy (via ``kernel.rng``). Each scenario axis in
:data:`AXES` (faults, workload, adversary, bandwidth, telemetry) that
needs randomness gets its own stream, seeded once from
``rng.getrandbits(63)`` in the order of that tuple — which is why the
golden-log suite can require byte-identical transfer logs across
refactors, and why attaching one axis never shifts another's draws.
"""

from __future__ import annotations

import random
from typing import Callable

from ..adversary.driver import PHANTOM, AdversaryDriver
from ..adversary.plan import AdversaryPlan
from ..checkpoint import (
    capture_log,
    restore_log,
    rng_state_from_json,
    rng_state_to_json,
)
from ..core.bandwidth import BandwidthClasses
from ..core.errors import CheckpointError, ConfigError
from ..core.log import STREAMS, RunResult, TransferLog
from ..core.mechanisms import CreditLimitedBarter
from ..core.model import BandwidthModel
from ..core.state import SwarmState
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.recovery import RecoveryPolicy
from ..overlays.graph import Graph
from ..telemetry.digest import digest_run
from ..telemetry.spec import TelemetrySpec
from ..workloads.compiler import compile_workload
from ..workloads.spec import WorkloadSpec
from .membership import MembershipRuntime
from .policy import ADVERSARY_SUPPORT_LEVELS, BANDWIDTH_SUPPORT_LEVELS, TickPolicy

__all__ = ["AXES", "Axis", "TickKernel", "default_max_ticks"]


def default_max_ticks(n: int, k: int) -> int:
    """Generous run guard: far above any completion the paper observes
    (worst cases there are ~6k ticks at n = k = 1000), yet finite so a
    non-converging configuration returns instead of spinning."""
    return 40 * k + 10 * n + 1000


# -- scenario axes ----------------------------------------------------------


class Axis:
    """One optional scenario dimension of a :class:`TickKernel` run.

    Every axis keeps the same contract. A ``None`` or null spec is
    normalised away: no runtime, no RNG draw, so the run is bit-identical
    to one without the keyword. A spec the policy cannot honor is refused
    with :class:`~repro.core.errors.ConfigError` instead of being silently
    ignored. An accepted spec is armed, with a child seed drawn from the
    decision stream only when :meth:`needs_seed` says so.
    """

    #: ``TickKernel`` keyword; also the fingerprint and ``meta`` key.
    name = ""
    #: Kernel slot holding the armed spec (``None`` when unarmed).
    slot = ""
    #: Kernel slot of the runtime whose ``capture_state`` /
    #: ``restore_state`` a checkpoint carries, and its document key.
    runtime: str | None = None
    state_key: str | None = None
    #: Policy attribute declaring the supported level, and its values.
    support: str | None = None
    levels: tuple[str, ...] = ()

    def is_null(self, spec) -> bool:
        return spec.is_null

    def lacking(self, level: str, spec) -> str | None:
        """What of ``spec`` a policy at ``level`` cannot carry, if any."""
        return None

    def require(self, kernel: "TickKernel", spec) -> None:
        """Raise ``ConfigError`` if the run cannot honor ``spec``."""
        if self.support is None:
            return
        policy = kernel.policy
        level = getattr(policy, self.support)
        if level not in self.levels:  # pragma: no cover - dev error
            raise ConfigError(
                f"policy {policy.name!r} declares unknown {self.support} {level!r}"
            )
        lacking = self.lacking(level, spec)
        if lacking is not None:
            raise ConfigError(
                f"the {policy.name} engine ({self.support}={level!r}) does "
                f"not support {lacking}; remove the {type(spec).__name__} "
                f"or pick an engine from the {self.name} parity table in "
                f"docs/API.md"
            )

    def needs_seed(self, spec) -> bool:
        return True

    def arm(self, kernel: "TickKernel", spec, seed: int | None) -> None:
        setattr(kernel, self.slot, spec)

    def state(self, kernel: "TickKernel"):
        """The armed runtime a checkpoint captures, or ``None``."""
        return None if self.runtime is None else getattr(kernel, self.runtime)

    def fingerprint(self, kernel: "TickKernel") -> object:
        # A runtime axis carries its state in the checkpoint, so only
        # whether it is armed belongs to the run's shape; a stateless
        # axis is pinned by its spec.
        if self.runtime is not None:
            return self.state(kernel) is not None
        spec = getattr(kernel, self.slot)
        return None if spec is None else repr(spec)

    def describe(self, kernel: "TickKernel", meta: dict, completions) -> None:
        """Add this armed axis' keys to the run's ``meta``."""
        meta[self.name] = getattr(kernel, self.slot).describe()


class _Faults(Axis):
    name, slot = "faults", "fault_plan"
    runtime = state_key = "faults"

    def arm(self, kernel, plan, seed):
        kernel.fault_plan = plan
        kernel.faults = injector = FaultInjector(plan, random.Random(seed))
        kernel._stall_window = kernel.recovery.stall_window_for(plan)
        if injector.judges_links or (
            kernel.policy.judges_server_windows and injector.has_server_windows
        ):
            kernel._judge = injector.transfer_fails

    def describe(self, kernel, meta, completions):
        super().describe(kernel, meta, completions)
        meta["failures_per_tick"] = kernel.failures_per_tick
        meta["stall_window"] = kernel._stall_window
        meta.update(kernel.faults.telemetry())
        meta.update(kernel.faults.events())


class _Workload(Axis):
    name = slot = "workload"
    runtime, state_key = "_membership", "membership"

    def needs_seed(self, spec):
        # Explicit arrival/departure tables alone draw nothing, so they
        # shift no other stream of the run.
        return spec.needs_rng

    def arm(self, kernel, spec, seed):
        kernel.workload = spec
        compiled = compile_workload(spec, kernel.n, seed=seed, horizon=kernel.max_ticks)
        kernel._membership = MembershipRuntime(kernel, compiled)

    def describe(self, kernel, meta, completions):
        super().describe(kernel, meta, completions)
        meta.update(kernel._membership.telemetry())


class _Adversary(Axis):
    name, slot = "adversary", "adversary_plan"
    runtime = state_key = "adversary"
    support, levels = "adversary_support", ADVERSARY_SUPPORT_LEVELS

    def lacking(self, level, plan):
        if level == "none":
            return "adversarial behavior"
        if (plan.pollutes or plan.lies) and level != "full":
            return "polluters or liars (free-riders only)"
        return None

    def needs_seed(self, plan):
        # A purely deterministic plan (explicit free-riders only) draws
        # nothing, so it shifts no other stream of the run.
        return plan.needs_rng

    def arm(self, kernel, plan, seed):
        kernel.adversary_plan = plan
        rng = None if seed is None else random.Random(seed)
        kernel.adversary = AdversaryDriver(plan, kernel.n, rng)
        if (plan.pollutes or plan.lies) and kernel._stall_window == 0:
            # Pollution and lies burn attempts without progress, so an
            # adversarial run needs the stall verdict even when no fault
            # injector armed one.
            kernel._stall_window = kernel.recovery.stall_window_for_adversary(plan)

    def describe(self, kernel, meta, completions):
        super().describe(kernel, meta, completions)
        plan, driver = kernel.adversary_plan, kernel.adversary
        realized = driver.realized()
        if realized:
            meta["adversary_realized"] = realized
        if plan.pollutes or plan.lies:
            meta["stall_window"] = kernel._stall_window
        meta.update(driver.telemetry())
        meta.update(driver.events())


class _Bandwidth(Axis):
    name = slot = "bandwidth"
    support, levels = "bandwidth_support", BANDWIDTH_SUPPORT_LEVELS

    def lacking(self, level, spec):
        if level == "none":
            return "heterogeneous bandwidth classes"
        if level == "download" and any(t.upload != 1 for t in spec.tiers):
            return "per-node upload tiers (set every tier's upload to 1)"
        return None

    def arm(self, kernel, spec, seed):
        # The realized per-node model replaces ``model`` for the whole
        # run: capacity charging, verification and metadata.
        kernel.bandwidth = spec
        kernel.model = spec.realize(kernel.n, seed, base=kernel.model)

    def describe(self, kernel, meta, completions):
        super().describe(kernel, meta, completions)
        meta["tier_counts"] = kernel.model.tier_counts()


class _Telemetry(Axis):
    name = slot = "telemetry"

    def is_null(self, spec):
        return False

    def require(self, kernel, spec):
        if not kernel.keep_log:
            raise ConfigError(
                "telemetry digests the completed transfer log, which "
                "keep_log=False discards; arm telemetry with "
                "keep_log=True or drop the TelemetrySpec"
            )

    def needs_seed(self, spec):
        return False

    def describe(self, kernel, meta, completions):
        # Post-run log digestion: zero hot-path cost, zero RNG.
        meta["telemetry"] = digest_run(
            kernel.telemetry,
            n=kernel.n,
            k=kernel.k,
            model=kernel.model,
            log=kernel.log,
            completions=completions,
            ticks=kernel.tick,
        )


#: The scenario axes in arming order, which is also the order their
#: child seeds are drawn from the decision stream. Appending an axis
#: keeps every existing stream (and golden fixture) where it was;
#: reordering this tuple changes every armed run.
AXES: tuple[Axis, ...] = (
    _Faults(),
    _Workload(),
    _Adversary(),
    _Bandwidth(),
    _Telemetry(),
)


class TickKernel:
    """One tick-synchronous run of one policy; see module docstring.

    Every engine facade and ``*_run`` helper forwards its keywords past
    its own decision parameters here, so this is the one place the run
    options are documented; an unknown keyword raises ``TypeError``.

    Parameters
    ----------
    n, k:
        Swarm size (server included) and number of blocks.
    policy:
        The :class:`~repro.sim.policy.TickPolicy` deciding uploads.
    model:
        Bandwidth model; defaults to ``d = u`` (one download per tick).
    rng:
        A :class:`random.Random`, a seed, or ``None`` — the *decision*
        stream, exposed to the policy as ``kernel.rng``.
    max_ticks:
        Abort threshold; a run that exceeds it returns an incomplete
        :class:`~repro.core.log.RunResult`.
    keep_log:
        Record every transfer (needed for verification); off saves
        memory on huge sweeps — per-tick upload counts are kept anyway.
    faults, workload, adversary, bandwidth, telemetry:
        The optional scenario specs — a
        :class:`~repro.faults.plan.FaultPlan`, a
        :class:`~repro.workloads.spec.WorkloadSpec` (executed by
        :class:`~repro.sim.membership.MembershipRuntime`), an
        :class:`~repro.adversary.plan.AdversaryPlan` (checked against
        ``policy.adversary_support``), a
        :class:`~repro.core.bandwidth.BandwidthClasses` (checked against
        ``policy.bandwidth_support``; the realized per-node model
        replaces ``model``) and a :class:`~repro.telemetry.TelemetrySpec`
        (a post-run log digest in ``meta["telemetry"]``; needs
        ``keep_log=True``). Each is armed by its entry in :data:`AXES`,
        in that tuple's order: a null spec costs nothing and changes
        nothing, and a spec the policy cannot honor raises
        :class:`~repro.core.errors.ConfigError`.
    recovery:
        :class:`~repro.faults.recovery.RecoveryPolicy` governing stall
        detection and server reseeding; consulted only under faults.
    credit:
        Optional :class:`~repro.core.mechanisms.CreditLimitedBarter`
        whose ledger the kernel charges per attempt (buffered within a
        tick: simultaneous transfers are judged at tick-start balances).
        Not a run option: ``RandomizedEngine`` sets it from its
        mechanism, every other engine passes ``None``, so a ``credit=``
        keyword to a facade raises ``TypeError``.
    backend:
        ``"loop"``/``None`` (default) for the scalar per-attempt path, or
        ``"array"`` for the :mod:`repro.sim.array` backend — ownership
        mirrored into packed ndarrays, deferred bulk logging, vectorized
        tick scans for array-capable policies — with the decision RNG
        untouched, so both backends produce byte-identical runs. An
        :class:`~repro.sim.array.ArrayState` instance (e.g. a BatchRunner
        replica view) is accepted in place of the string. Raises
        :class:`~repro.core.errors.ConfigError` naming the engine when
        the policy lacks array support.
    """

    # Slotted: ``attempt`` / ``_deliver_mask`` run once per transfer
    # across every engine, and slot attribute loads are measurably
    # cheaper than dict lookups on that path.
    __slots__ = (
        "state", "n", "k", "policy", "model", "rng", "max_ticks",
        "keep_log", "log", "tick", "uploads_per_tick", "failures_per_tick",
        "graph", "_pool", "_pool_pos", "_full", "_avail", "_avail_pos",
        "_avail_active", "absent", "credit", "_credit_sends", "_dl_left",
        "_use_dl_ledger", "_tick_delivered", "_tick_failed", "recovery",
        "fault_plan", "faults", "_stall_window", "_judge", "_deliver",
        "array", "_log_delivery", "_log_failure", "workload", "_membership",
        "_mid_tick", "_stall_idle", "_ckpt_interval", "_ckpt_hook",
        "_heartbeat", "adversary_plan", "adversary", "bandwidth",
        "telemetry", "_dl_caps",
    )

    def __init__(
        self,
        n: int,
        k: int,
        policy: TickPolicy,
        *,
        model: BandwidthModel | None = None,
        rng: random.Random | int | None = None,
        max_ticks: int | None = None,
        keep_log: bool = True,
        faults: FaultPlan | None = None,
        recovery: RecoveryPolicy | None = None,
        credit: CreditLimitedBarter | None = None,
        backend: object | None = None,
        workload: WorkloadSpec | None = None,
        adversary: AdversaryPlan | None = None,
        bandwidth: BandwidthClasses | None = None,
        telemetry: TelemetrySpec | None = None,
    ) -> None:
        self.state = SwarmState(n, k)
        self.n, self.k = n, k
        self.policy = policy
        self.model = model or BandwidthModel.symmetric()
        self.rng = rng if isinstance(rng, random.Random) else random.Random(rng)
        self.max_ticks = max_ticks or default_max_ticks(n, k)
        self.keep_log = keep_log
        self.log = TransferLog()
        self.tick = 0
        self.uploads_per_tick: list[int] = []
        self.failures_per_tick: list[int] = []
        #: Current overlay view; policies that use one keep it updated so
        #: block-selection policies can consult ``kernel.graph``.
        self.graph: Graph | None = None

        # Incomplete-node pool with O(1) membership/removal: the
        # candidate set for complete-graph sampling, kept in sync by
        # deliveries and crash/rejoin events.
        self._pool: list[int] = list(range(1, n))
        self._pool_pos: dict[int, int] = {v: i for i, v in enumerate(self._pool)}
        self._full = (1 << k) - 1
        # Per-tick receiver pool (incomplete nodes with download capacity
        # left); active only when the policy asks for it.
        self._avail: list[int] = []
        self._avail_pos: dict[int, int] = {}
        self._avail_active = False
        #: Nodes currently out of the swarm (crashes, workload membership).
        self.absent: set[int] = set()

        self.credit = credit
        self._credit_sends: list[tuple[int, int]] = []
        self._dl_left: list[int] | None = None
        self._use_dl_ledger = policy.uses_download_ledger
        self._tick_delivered = 0
        self._tick_failed = 0
        # Checkpointing: boundary guard, persisted stall counter (part of
        # the run verdict state, so it must survive a restore), and the
        # optional armed writer/heartbeat (see arm_checkpoints).
        self._mid_tick = False
        self._stall_idle = 0
        self._ckpt_interval = 0
        self._ckpt_hook: Callable[[dict], None] | None = None
        self._heartbeat: Callable[[int], None] | None = None

        # Scenario-axis slots, unarmed until the AXES loop below.
        self.recovery = recovery or RecoveryPolicy()
        self.fault_plan: FaultPlan | None = None
        self.faults: FaultInjector | None = None
        self._judge: Callable[[int, int, int], bool] | None = None
        self._stall_window = 0
        self.workload: WorkloadSpec | None = None
        self._membership: MembershipRuntime | None = None
        self.adversary_plan: AdversaryPlan | None = None
        self.adversary: AdversaryDriver | None = None
        self.bandwidth: BandwidthClasses | None = None
        self.telemetry: TelemetrySpec | None = None
        # Policies may own delivery application entirely (network coding
        # inserts basis rows instead of setting mask bits).
        deliver = getattr(policy, "deliver", None)
        self._deliver: Callable[[int, int, int], None] = (
            deliver if deliver is not None else self._deliver_mask
        )

        # Execution backend. ``"loop"`` (default) is the scalar
        # per-attempt path; ``"array"`` mirrors ownership into packed
        # ndarrays, defers log materialisation and lets array-capable
        # policies vectorize their tick scans — with the decision RNG
        # untouched, so both backends produce byte-identical runs. A
        # preconstructed :class:`~repro.sim.array.ArrayState` (e.g. a
        # BatchRunner replica view) is accepted in place of the string.
        self.array = None
        if backend is not None and backend != "loop":
            from .array.backend import ArrayBackend
            from .array.state import ArrayState

            if isinstance(backend, ArrayState):
                arr_state: ArrayState | None = backend
            elif backend == "array":
                arr_state = None
            else:
                raise ConfigError(
                    f"unknown backend {backend!r}; choose 'loop' or 'array' "
                    f"(or pass an ArrayState)"
                )
            if not policy.supports_array:
                from .registry import ENGINES

                capable = (s.name for s in ENGINES.values() if s.array_backend)
                raise ConfigError(
                    f"the {policy.name} engine does not support the array "
                    f"backend; use backend='loop' or one of: "
                    f"{', '.join(capable)}"
                )
            self.array = ArrayBackend(self, arr_state)
        if not keep_log:
            self._log_delivery: Callable | None = None
            self._log_failure: Callable | None = None
        elif self.array is not None:
            self._log_delivery = self.array.push_delivery
            self._log_failure = self.array.push_failure
        else:
            self._log_delivery = self.log.record
            self._log_failure = self.log.record_failure
        # Binding comes first: the membership runtime calls policy hooks.
        policy.bind(self)

        specs = {
            "faults": faults,
            "workload": workload,
            "adversary": adversary,
            "bandwidth": bandwidth,
            "telemetry": telemetry,
        }
        for axis in AXES:
            spec = specs[axis.name]
            if spec is None or axis.is_null(spec):
                continue
            axis.require(self, spec)
            seed = self.rng.getrandbits(63) if axis.needs_seed(spec) else None
            axis.arm(self, spec, seed)
        if self.credit is not None and getattr(
            self.credit, "tier_multipliers", None
        ):
            # Paid-tier credit multipliers resolve against the realized
            # tier assignment (ConfigError without one): the online gate
            # and the offline verifier then judge the same per-node
            # limits.
            self.credit.bind_tiers(self.model)

        # Per-tick download capacities, precomputed once. Uniform models
        # keep the historical [cap] * n shape; heterogeneous realizations
        # get per-node entries, with a large sentinel standing in for
        # unbounded nodes in an otherwise bounded swarm (it can never
        # reach the <= 0 receiver-pool eviction).
        if not self._use_dl_ledger:
            self._dl_caps: list[int] | None = None
        elif getattr(self.model, "is_uniform", True):
            cap = self.model.download
            self._dl_caps = None if cap is None else [cap] * n
        else:
            caps = [self.model.download_capacity(v) for v in range(n)]
            if all(c is None for c in caps):
                self._dl_caps = None
            else:
                self._dl_caps = [(1 << 30) if c is None else c for c in caps]

    # -- pools -------------------------------------------------------------

    @property
    def incomplete_pool(self) -> list[int]:
        """Clients still missing blocks (live list; do not mutate)."""
        return self._pool

    @property
    def pool_positions(self) -> dict[int, int]:
        """Node -> index in :attr:`incomplete_pool` (live mapping; do
        not mutate). Positions move as the pool shrinks."""
        return self._pool_pos

    def _pool_add(self, v: int) -> None:
        if v not in self._pool_pos:
            self._pool_pos[v] = len(self._pool)
            self._pool.append(v)

    def _pool_remove(self, v: int) -> None:
        pos = self._pool_pos.pop(v, None)
        if pos is None:
            return
        last = self._pool.pop()
        if last != v:
            self._pool[pos] = last
            self._pool_pos[last] = pos

    def activate_receiver_pool(self) -> list[int]:
        """Arm the per-tick receiver pool from the incomplete pool.

        Complete-graph policies call this at tick start; the kernel then
        shrinks the pool as receivers complete or exhaust their download
        capacity, so late uploaders never re-sample saturated receivers.
        Returns the live pool list.
        """
        self._avail = list(self._pool)
        self._avail_pos = {v: i for i, v in enumerate(self._avail)}
        self._avail_active = True
        return self._avail

    @property
    def receiver_pool(self) -> list[int]:
        """The live per-tick receiver pool (valid after activation)."""
        return self._avail

    def _avail_remove(self, v: int) -> None:
        pos = self._avail_pos.pop(v, None)
        if pos is None:
            return
        last = self._avail.pop()
        if last != v:
            self._avail[pos] = last
            self._avail_pos[last] = pos

    # -- per-attempt primitive ---------------------------------------------

    def attempt(self, src: int, dst: int, block: int) -> bool:
        """Attempt one transfer; returns whether it was delivered.

        The single hot path shared by every engine: judges the attempt
        against the fault injector (a failed attempt consumes the
        receiver's download slot and any barter credit but delivers
        nothing), then against the adversary driver (a polluted or
        phantom delivery is charged the same way and logged in its own
        stream), applies the delivery, charges the capacity ledger, and
        records the appropriate log stream. An attempt toward a receiver
        that has blacklisted the sender is refused outright: no capacity
        is charged and nothing is logged — the pair no longer talks.
        """
        adv = self.adversary
        if adv is not None and adv.refuses(src, dst):
            return False
        judge = self._judge
        if judge is not None and judge(self.tick, src, dst):
            dl = self._dl_left
            if dl is not None:
                left = dl[dst] = dl[dst] - 1
                if left <= 0 and self._avail_active:
                    self._avail_remove(dst)
            if self.credit is not None:
                self._credit_sends.append((src, dst))
            rec = self._log_failure
            if rec is not None:
                rec(self.tick, src, dst, block)
            self._tick_failed += 1
            return False
        if adv is not None:
            verdict = adv.judge(self.tick, src, dst)
            if verdict is not None:
                # Polluted/phantom deliveries are charged exactly like
                # failures — the bandwidth and credit are spent before
                # the receiver's integrity check rejects the block — but
                # land in their own log streams (recorded eagerly even
                # under the array backend: the streams carry independent
                # tick-order invariants, so eager and deferred rows never
                # interleave).
                dl = self._dl_left
                if dl is not None:
                    left = dl[dst] = dl[dst] - 1
                    if left <= 0 and self._avail_active:
                        self._avail_remove(dst)
                if self.credit is not None:
                    self._credit_sends.append((src, dst))
                if self.keep_log:
                    if verdict is PHANTOM:
                        self.log.record_phantom(self.tick, src, dst, block)
                    else:
                        self.log.record_polluted(self.tick, src, dst, block)
                self._tick_failed += 1
                return False
        self._deliver(src, dst, block)
        dl = self._dl_left
        if dl is not None:
            left = dl[dst] = dl[dst] - 1
            if left <= 0 and self._avail_active:
                self._avail_remove(dst)
        if self.credit is not None:
            self._credit_sends.append((src, dst))
        rec = self._log_delivery
        if rec is not None:
            rec(self.tick, src, dst, block)
        self._tick_delivered += 1
        return True

    def _deliver_mask(self, src: int, dst: int, block: int) -> None:
        state = self.state
        state.receive(dst, block)
        if state.masks[dst] == self._full:
            self._pool_remove(dst)
            if self._avail_active:
                self._avail_remove(dst)

    @property
    def download_ledger(self) -> list[int] | None:
        """Per-node download slots left this tick (``None`` = unbounded
        or ledger disabled by the policy)."""
        return self._dl_left

    def server_available(self) -> bool:
        """Whether the server may upload this tick (outage windows)."""
        inj = self.faults
        return inj is None or not inj.server_down(self.tick)

    def sync_log(self) -> None:
        """Materialise any deferred (array-backend) log records.

        The loop backend records eagerly, so this is a no-op there. The
        run loop calls it before assembling the result; manual steppers
        reading ``kernel.log`` mid-run should call it themselves.
        """
        if self.array is not None:
            self.array.sync_log()

    # -- fault events ------------------------------------------------------

    def _apply_fault_events(self, inj: FaultInjector) -> None:
        """Apply this tick's crash and rejoin events (before the
        snapshot). Rejoins land first: a node returning with retained
        blocks re-enters the goal set before this tick's crash hazard is
        drawn over the present clients."""
        state = self.state
        absent = self.absent
        policy = self.policy
        crashes, rejoins = inj.begin_tick(
            self.tick, [v for v in range(1, self.n) if v not in absent]
        )
        for node, retained in rejoins:
            absent.discard(node)
            state.enroll(node)
            policy.restore_retained(node, retained)
            if state.masks[node] != self._full:
                self._pool_add(node)
            policy.after_rejoin(node)
        for node in crashes:
            inj.note_crash(
                self.tick,
                node,
                state.masks[node],
                sample_retained=policy.crash_retention_sampler(node),
            )
            absent.add(node)
            state.retire(node)
            self._pool_remove(node)
            policy.after_crash(node)

    # -- tick loop ---------------------------------------------------------

    def step(self) -> int:
        """Advance exactly one tick; returns delivered transfers.

        Failed attempts are counted separately in ``failures_per_tick``.
        """
        self.tick += 1
        self._mid_tick = True
        policy = self.policy
        membership = self._membership
        if membership is not None:
            membership.begin_tick(self.tick)
        policy.pre_tick(self.tick)
        inj = self.faults
        if inj is not None and inj.tick_events_possible():
            self._apply_fault_events(inj)
        snapshot = self.state.begin_tick()
        if self.array is not None:
            # Snapshot the word matrix at the same instant as the bigints.
            self.array.state.begin_tick()
        caps = self._dl_caps
        self._dl_left = list(caps) if caps is not None else None
        self._avail_active = False
        self._tick_delivered = 0
        self._tick_failed = 0
        policy.run_tick(snapshot)
        credit = self.credit
        if credit is not None and self._credit_sends:
            # Balances were judged at tick start (transfers within a tick
            # are simultaneous); flush the buffered ledger updates now.
            note = credit.note_send
            for src, dst in self._credit_sends:
                note(src, dst)
            self._credit_sends.clear()
        if membership is not None:
            membership.end_tick(self.tick)
        made = self._tick_delivered
        self.uploads_per_tick.append(made)
        self.failures_per_tick.append(self._tick_failed)
        self._mid_tick = False
        return made

    def _goal_reached(self) -> bool:
        return (
            self.policy.all_complete()
            and (self.faults is None or not self.faults.pending_rejoins())
            and (self._membership is None or self._membership.goal_ok())
        )

    def _zero_tick_conclusive(self) -> bool:
        if not self.policy.zero_tick_conclusive():
            return False
        if self._membership is not None and self._membership.events_pending():
            # A future arrival, return from downtime, or departure can
            # revive the swarm or change the goal — not a deadlock yet.
            return False
        if self.adversary is not None and not self.adversary.zero_attempt_conclusive(
            self.tick
        ):
            # Free-riders with a finite activation window can revive the
            # swarm when the window ends — not a deadlock yet.
            return False
        return self.faults is None or self.faults.zero_attempt_conclusive(self.tick)

    def membership_events_pending(self) -> bool:
        """Whether the workload still has scheduled membership events
        (arrivals, downtime returns, departures); always ``False``
        without a workload. Policies' stall heuristics consult this the
        way they consult ``faults.pending_rejoins()``."""
        membership = self._membership
        return membership is not None and membership.events_pending()

    # -- checkpoint / restore ----------------------------------------------

    def _config_fingerprint(self) -> dict[str, object]:
        """Shape of this run, validated on restore. The execution backend
        is deliberately absent: loop and array runs are byte-identical,
        so resuming across backends is legal (and tested)."""
        fingerprint: dict[str, object] = {
            "n": self.n,
            "k": self.k,
            "policy": self.policy.name,
            "max_ticks": self.max_ticks,
            "keep_log": self.keep_log,
            "credit": self.credit is not None,
        }
        for axis in AXES:
            fingerprint[axis.name] = axis.fingerprint(self)
        return fingerprint

    def checkpoint(self) -> dict[str, object]:
        """Capture the complete tick-boundary state as a JSON-shaped dict.

        Pass the result to :func:`repro.checkpoint.save_checkpoint` (or
        an armed sink — see :meth:`arm_checkpoints`). The ``"log"``
        entry holds per-stream row counts and this kernel's log, not the
        rows (:class:`repro.checkpoint.LogPrefix`), so a capture costs
        nothing per logged row. Tick-boundary-only:
        raises :class:`~repro.core.errors.ConfigError` when called from
        inside :meth:`step` (policy hooks, fault events, progress
        callbacks fired mid-tick), because intra-tick scratch state
        (download ledger, live receiver pool, buffered credit sends) is
        deliberately not serialized.
        """
        if self._mid_tick:
            raise ConfigError(
                "checkpoints are tick-boundary-only: checkpoint() cannot "
                "be called from inside step() — wait for the tick to "
                "finish (or use arm_checkpoints, which writes between "
                "ticks)"
            )
        self.sync_log()
        state = self.state
        payload: dict[str, object] = {
            "config": self._config_fingerprint(),
            "tick": self.tick,
            "rng": rng_state_to_json(self.rng.getstate()),
            "masks": list(state.masks),
            "incomplete": sorted(state._incomplete),
            "pool": list(self._pool),
            "absent": sorted(self.absent),
            "uploads_per_tick": list(self.uploads_per_tick),
            "failures_per_tick": list(self.failures_per_tick),
            "stall_idle": self._stall_idle,
            "policy": self.policy.capture_state(),
        }
        if self.credit is not None:
            payload["credit"] = self.credit.ledger.capture_state()
        if self.keep_log:
            # Row counts, not rows: the log is append-only, so its
            # prefix stays what it is now (see repro.checkpoint).
            streams = STREAMS if self.adversary is not None else STREAMS[:2]
            payload["log"] = capture_log(self.log, streams)
        for axis in AXES:
            runtime = axis.state(self)
            if runtime is not None:
                payload[axis.state_key] = runtime.capture_state()
        return payload

    def restore_checkpoint(self, document: dict[str, object]) -> None:
        """Restore a :meth:`checkpoint` document into this kernel.

        The kernel must be freshly constructed with the same arguments as
        the checkpointed run (construction replays the derived-stream
        seeding draws; the captured RNG states then overwrite them) and
        must not have stepped yet. The continuation is bit-identical to
        the uninterrupted run — the golden sweep suite enforces it.
        """
        if self.tick != 0:
            raise CheckpointError(
                f"restore_checkpoint needs a freshly constructed kernel; "
                f"this one is at tick {self.tick}"
            )
        config = document.get("config")
        expected = self._config_fingerprint()
        if config != expected:
            raise CheckpointError(
                f"checkpoint was taken from a differently-configured run: "
                f"checkpoint {config!r} != kernel {expected!r}"
            )
        self.tick = document["tick"]
        self.rng.setstate(rng_state_from_json(document["rng"]))
        self.state.restore_masks(document["masks"], document["incomplete"])
        self._pool = [int(v) for v in document["pool"]]
        self._pool_pos = {v: i for i, v in enumerate(self._pool)}
        self.absent = set(document["absent"])
        self.uploads_per_tick = list(document["uploads_per_tick"])
        self.failures_per_tick = list(document["failures_per_tick"])
        self._stall_idle = document["stall_idle"]
        # Intra-tick scratch is dead at a tick boundary; reset, don't load.
        self._dl_left = None
        self._avail = []
        self._avail_pos = {}
        self._avail_active = False
        self._credit_sends = []
        self._tick_delivered = 0
        self._tick_failed = 0
        if self.credit is not None:
            self.credit.ledger.restore_state(document["credit"])
        if self.keep_log:
            log = restore_log(document["log"])
            self.log = log
            if self.array is not None:
                # Deferred buffers restart empty; sync_log targets
                # kernel.log dynamically, so no rebinding is needed.
                self.array._deliveries.clear()
                self.array._failures.clear()
            else:
                self._log_delivery = log.record
                self._log_failure = log.record_failure
        if self.array is not None:
            # Rebuild the packed word mirror from the restored masks and
            # re-register it on the swarm state.
            self.array.state.attach(self.state)
        for axis in AXES:
            runtime = axis.state(self)
            if runtime is not None:
                runtime.restore_state(document[axis.state_key])
        self.policy.restore_state(document["policy"])

    def arm_checkpoints(
        self,
        interval: int,
        *,
        path: str | None = None,
        sink: Callable[[dict], None] | None = None,
        heartbeat: Callable[[int], None] | None = None,
    ) -> None:
        """Write a checkpoint every ``interval`` ticks during :meth:`run`.

        Exactly one of ``path`` (file writes through
        :func:`repro.checkpoint.save_checkpoint`: each appends the new
        log rows to the sidecar and atomically replaces the document)
        or ``sink`` (called with the in-memory payload dict) must be
        given.
        ``heartbeat``, when set, is called as ``heartbeat(tick)`` after
        *every* tick — the campaign layer points it at a liveness file
        its watchdog reads. Checkpoints are written only after all of the
        tick's verdict checks pass, so a checkpoint never shadows a
        same-tick goal/deadlock/stall/abort outcome.
        """
        if interval < 1:
            raise ConfigError(
                f"checkpoint interval must be >= 1 tick, got {interval}"
            )
        if (path is None) == (sink is None):
            raise ConfigError(
                "arm_checkpoints needs exactly one of path= or sink="
            )
        if path is not None:
            from ..checkpoint import save_checkpoint

            def sink(payload: dict, _path=path) -> None:  # noqa: F811
                save_checkpoint(_path, payload)

        self._ckpt_interval = int(interval)
        self._ckpt_hook = sink
        self._heartbeat = heartbeat

    # -- whole run ---------------------------------------------------------

    def run(self, progress: Callable[[int, int], None] | None = None) -> RunResult:
        """Run until the goal holds or ``max_ticks`` elapse.

        ``progress`` (optional) is called as ``progress(tick,
        transfers)`` after each tick. A run can also end on a proven
        deadlock or, under fault injection, on stall detection — see
        :attr:`~repro.core.log.RunResult.abort`.
        """
        deadlocked = False
        abort: str | None = None
        # Stall detection runs whenever a window is armed: every fault
        # plan arms one, and so does an adversary plan with polluters or
        # liars (their spoiled attempts burn ticks without progress).
        watch_stall = self._stall_window > 0
        while self.tick < self.max_ticks and not self._goal_reached():
            made = self.step()
            if progress is not None:
                progress(self.tick, made)
            heartbeat = self._heartbeat
            if heartbeat is not None:
                heartbeat(self.tick)
            if self._goal_reached():
                # Checked *before* the deadlock guard: a tick can make
                # zero transfers and still reach the goal (a departure
                # at tick start may remove the last incomplete client),
                # and that must never read as a deadlock.
                break
            if made + self.failures_per_tick[-1] == 0 and self._zero_tick_conclusive():
                deadlocked = True
                break
            if watch_stall:
                # A quiet gap while the workload still has arrivals or
                # returns scheduled is a lull, not a stall. The counter
                # is a kernel attribute (not a loop local) so a
                # checkpoint carries it and a resumed run issues the
                # stall verdict on the same tick.
                if made == 0 and not self.membership_events_pending():
                    self._stall_idle += 1
                else:
                    self._stall_idle = 0
                if self._stall_idle >= self._stall_window:
                    # No delivery for a whole window: not provably
                    # permanent (faults are stochastic), but hopeless
                    # enough that the recovery policy gives up.
                    abort = "stall"
                    break
            reason = self.policy.post_tick(made, self.failures_per_tick[-1])
            if reason is not None:
                abort = reason
                break
            # Armed checkpoints are written here — after every verdict
            # check has passed — so "checkpoint at tick T" means exactly
            # "the boundary state given the run continues"; a resumed run
            # re-enters at the loop condition just like this one does.
            hook = self._ckpt_hook
            if hook is not None and self.tick % self._ckpt_interval == 0:
                hook(self.checkpoint())

        self.sync_log()
        completed = self._goal_reached()
        membership = self._membership
        # Membership tracks completion ticks directly: they must survive
        # ``keep_log=False`` and departures.
        completions = (
            self.policy.completions()
            if membership is None
            else membership.completed_ticks()
        )
        meta = self.policy.result_meta()
        meta["deadlocked"] = deadlocked
        if deadlocked:
            abort = "deadlock"
        meta["abort"] = None if completed else (abort or "max-ticks")
        for axis in AXES:
            if getattr(self, axis.slot) is not None:
                axis.describe(self, meta, completions)
        return RunResult(
            n=self.n,
            k=self.k,
            completion_time=self.tick if completed else None,
            client_completions=completions,
            log=self.log,
            meta=meta,
        )
