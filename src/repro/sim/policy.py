"""The policy side of the simulation kernel contract.

A :class:`TickPolicy` answers exactly one question per tick — *who
uploads what to whom* — while :class:`~repro.sim.kernel.TickKernel` owns
everything mechanical about a run: the tick loop, the start-of-tick
snapshot, live upload/download capacity, fault-attempt judging,
crash/rejoin processing, transfer logging, progress callbacks and the
uniform ``None | deadlock | stall | max-ticks`` abort verdict.

Concrete policies live next to the engines they power:

* randomized sampling (cooperative / credit-limited barter) —
  :mod:`repro.randomized.engine`;
* strict-barter pairwise exchange — :mod:`repro.randomized.exchange`;
* BitTorrent choking — :mod:`repro.randomized.bittorrent`;
* GF(2) network coding — :mod:`repro.coding.engine`;
* continuous-time event windows — :mod:`repro.asynchronous.policy`;
* randomized triangular (cyclic) barter with a credit line —
  :mod:`repro.randomized.triangular` (a ``*_run`` helper, no registry
  entry);
* deterministic schedules — :mod:`repro.sim.schedule`, run through
  :func:`~repro.core.engine.execute_schedule` (no registry entry: a
  schedule, not ``(n, k)``, defines the run).

Each engine's construction facade takes only that policy's decision
parameters (overlay, block policy, mechanism, ...) and passes every
other keyword to :class:`~repro.sim.kernel.TickKernel`, whose docstring
is the one reference for the run options.

Every policy carries the full fault model and open-system workloads. A
policy declares how much of the adversary and bandwidth-class models it
can honor via ``adversary_support`` and ``bandwidth_support``; the
kernel's scenario axes (:data:`~repro.sim.kernel.AXES`) refuse
(``ConfigError``) any spec the policy cannot carry, so scenarios are
never silently ignored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .kernel import TickKernel

__all__ = [
    "TickPolicy",
    "ADVERSARY_SUPPORT_LEVELS",
    "BANDWIDTH_SUPPORT_LEVELS",
]

#: Valid ``TickPolicy.adversary_support`` values, weakest to strongest:
#: ``"none"`` rejects every non-null
#: :class:`~repro.adversary.plan.AdversaryPlan`; ``"free-riders"``
#: carries free-riders (clients that never upload) but rejects polluters
#: and liars; ``"full"`` carries every axis including pollution, lies
#: and the strike-based blacklist defense.
ADVERSARY_SUPPORT_LEVELS = ("none", "free-riders", "full")

#: Valid ``TickPolicy.bandwidth_support`` values, weakest to strongest:
#: ``"none"`` rejects every non-null
#: :class:`~repro.core.bandwidth.BandwidthClasses` spec; ``"download"``
#: honors per-node *download* capacities (the kernel's ledger and the
#: verifier charge them per node) but keeps client uploads structurally
#: at 1 block/tick, so a spec with any tier ``upload != 1`` is refused;
#: ``"full"`` honors both axes.
BANDWIDTH_SUPPORT_LEVELS = ("none", "download", "full")


class TickPolicy:
    """Base class for per-tick upload decision policies.

    Subclasses implement :meth:`run_tick` using the kernel's
    :meth:`~repro.sim.kernel.TickKernel.attempt` primitive, and override
    the remaining hooks only where their engine's semantics differ from
    the defaults (which encode the plain randomized engine's behavior).
    """

    #: Engine name recorded in run metadata and used by the registry.
    name = "policy"

    #: Whether the kernel should maintain the per-tick download-capacity
    #: ledger (``dl_left``). Policies that enforce capacity structurally
    #: (pairwise exchange) switch it off.
    uses_download_ledger = True

    #: Whether the policy commits server sends inside a fault plan's
    #: server outage windows, which must then fail through the fault
    #: judge. Live policies bench the server during a window instead
    #: (``kernel.server_available()``), so only a fixed plan
    #: (:mod:`repro.sim.schedule`) sets this.
    judges_server_windows = False

    #: Whether this policy can run on the array backend
    #: (:mod:`repro.sim.array`): deliveries are plain mask bits (no
    #: custom ``deliver``) and the policy either drives the batched
    #: attempt machinery itself or is content with the kernel's
    #: per-attempt path over the mirrored array state. The kernel raises
    #: :class:`~repro.core.errors.ConfigError` naming the engine when
    #: ``backend="array"`` is requested without it.
    supports_array = False

    #: Adversary axes this policy can honor; see
    #: :data:`ADVERSARY_SUPPORT_LEVELS`. The kernel refuses
    #: (``ConfigError``) any :class:`~repro.adversary.plan.AdversaryPlan`
    #: axis the policy cannot carry, so adversaries are never silently
    #: ignored. Defaults to ``"none"``: a policy must opt in explicitly.
    adversary_support = "none"

    #: Bandwidth-class axes this policy can honor; see
    #: :data:`BANDWIDTH_SUPPORT_LEVELS`. The kernel refuses
    #: (``ConfigError``) any :class:`~repro.core.bandwidth.BandwidthClasses`
    #: axis the policy cannot carry, so heterogeneous capacities are never
    #: silently flattened back to uniform. Defaults to ``"none"``.
    bandwidth_support = "none"

    kernel: "TickKernel"

    # -- lifecycle ---------------------------------------------------------

    def bind(self, kernel: "TickKernel") -> None:
        """Attach the kernel; called once, before the scenario axes are
        armed (the membership runtime calls policy hooks)."""
        self.kernel = kernel

    def pre_tick(self, tick: int) -> None:
        """Hook after membership events, before fault events and the
        snapshot (dynamic overlays)."""

    def run_tick(self, snapshot: list[int]) -> None:
        """Decide and attempt this tick's uploads via ``kernel.attempt``.

        ``snapshot`` is the start-of-tick holdings list: senders must
        read their own content from it (a block received this tick cannot
        be forwarded until the next), while receiver holdings are read
        live from ``kernel.state.masks``.
        """
        raise NotImplementedError

    def post_tick(self, delivered: int, failed: int) -> str | None:
        """Optional extra abort check after a tick; return a verdict
        string (e.g. ``"stall"``) to end the run, else ``None``."""
        return None

    # -- goal and verdict hooks --------------------------------------------

    def all_complete(self) -> bool:
        """Whether every tracked client holds the complete file."""
        return self.kernel.state.all_complete

    def zero_tick_conclusive(self) -> bool:
        """Whether a zero-attempt tick proves permanent deadlock, as far
        as the policy's own dynamics are concerned. The kernel separately
        asks the fault injector about fault-side revivals."""
        return True

    # -- result assembly ---------------------------------------------------

    def completions(self) -> dict[int, int]:
        """Per-client completion ticks for the result."""
        kernel = self.kernel
        if not kernel.keep_log:
            return {}
        return kernel.log.completion_ticks(kernel.n, kernel.k)

    def result_meta(self) -> dict[str, object]:
        """Engine-specific run metadata; the kernel adds the uniform
        verdict and fault-telemetry keys on top."""
        return {"algorithm": self.name}

    # -- checkpoint hooks --------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Engine-side mutable state for a tick-boundary checkpoint.

        Returns a JSON-shaped dict (lists/dicts/str/int/float/bool/None
        only; encode non-str dict keys as item lists) containing every
        policy attribute that evolves across ticks and cannot be replayed
        by reconstructing the engine with the same arguments. The default
        captures nothing — correct for stateless-per-tick policies (the
        plain randomized sampler, pairwise exchange), whose cross-tick
        state lives entirely in the kernel.

        Contract: after ``restore_state(capture_state())`` on a freshly
        constructed twin, the continuation must be bit-identical — the
        golden sweep in ``tests/sim/test_checkpoint_resume.py`` enforces
        this for every registry engine.
        """
        return {}

    def restore_state(self, state: dict[str, object]) -> None:
        """Restore :meth:`capture_state` output into this policy.

        Called after the kernel's own state (masks, pools, RNG streams,
        fault latches, membership timeline) has been restored, on a
        policy constructed with the same arguments as the checkpointed
        one. JSON round-tripping turns tuples into lists; overrides must
        re-tuple where identity of draws depends on it.
        """

    # -- fault-event hooks -------------------------------------------------

    def after_crash(self, node: int) -> None:
        """Called after the kernel retires a crashed client."""

    def after_rejoin(self, node: int) -> None:
        """Called after the kernel re-enrolls a rejoined client."""

    def crash_retention_sampler(self, node: int):
        """Optional custom sampler for what a crashing node retains.

        Mask engines return ``None`` (the default): the injector samples
        each held *block bit* independently with ``rejoin_retention`` and
        the retained state is a mask. Engines whose per-node state is not
        a block mask (network coding's GF(2) bases) return a callable
        ``sample(rng, retention) -> retained`` instead; it is invoked by
        :meth:`~repro.faults.injector.FaultInjector.note_crash` on the
        injector's own RNG stream, *before* the node's state is cleared,
        and whatever it returns is handed back verbatim through the
        rejoin event and :meth:`restore_retained`.
        """
        return None

    def restore_retained(self, node: int, retained) -> None:
        """Re-apply a rejoining node's retained state.

        The default seeds the retained block mask into the swarm state;
        engines with non-mask retained state (coding's basis rows)
        override this to rebuild their own structures.
        """
        if retained:
            self.kernel.state.seed(node, retained)

    # -- membership hooks (open-system workloads) --------------------------

    def node_complete(self, node: int) -> bool:
        """Whether ``node`` holds the complete file right now.

        The membership runtime's completion scan; mask engines read the
        swarm state, engines with other content structures (coding's
        bases) override.
        """
        return self.kernel.state.masks[node] == self.kernel._full

    def capture_retained(self, node: int):
        """Snapshot what ``node`` keeps across an availability nap.

        Called *before* the node is retired; the value is handed back
        verbatim through :meth:`restore_retained` when it returns. A
        nap, unlike a crash, loses nothing — the default keeps the
        whole block mask.
        """
        return self.kernel.state.masks[node]

    def after_arrival(self, node: int) -> None:
        """Called after the kernel enrolls a fresh workload arrival.

        The default reuses :meth:`after_rejoin`: engines already treat
        a rejoiner with nothing retained as a fresh bootstrap
        (BitTorrent grants the server-side optimistic unchoke, async
        marks the node idle-eligible).
        """
        self.after_rejoin(node)

    def after_departure(self, node: int) -> None:
        """Called after the kernel retires a workload departure.

        The default reuses :meth:`after_crash`: a departure leaves the
        swarm through the same door a crash does (its copies vanish),
        it just never comes back.
        """
        self.after_crash(node)
