"""Randomized triangular barter (the paper's closing future-work item).

Section 3.3: "we intend to investigate randomized algorithms for
triangular barter, and their potential use in low-degree overlay networks
in future work." This module is that investigation.

Per tick, nodes are matched into simultaneous *useful cycles*:

* 2-cycles — plain exchanges ``a <-> b`` (strict barter's only move);
* 3-cycles — ``a -> b -> c -> a`` where each hop transfers a block the
  receiver lacks, even though no *pair* has mutual interest;
* one-way *credit gifts* within a pairwise limit ``s`` (the paper's
  "combination of triangular barter with a credit limit", which it calls
  "rather intriguing") — without them no barter variant can deliver a
  first block beyond the server's own neighbors on a sparse overlay.

Cycles cancel exactly, so each tick satisfies
:class:`~repro.core.mechanisms.TriangularBarter` with credit limit ``s``
by construction. The server seeds one block per tick for free, as
everywhere in the paper.

The point of triangles: on a low-degree overlay, pairwise mutual interest
gets scarce (the Figure 6 wall); a triangle only needs *one-way* interest
along each edge of a short cycle, which is far more common — so
triangular matching needs less credit slack than pure exchange at equal
degree. The ``ext-triangular`` experiment quantifies it.

On the :mod:`repro.sim` kernel the matching is
:class:`TriangularTickPolicy`; :func:`randomized_triangular_run` is the
one-call entry point.
"""

from __future__ import annotations

import random

from ..core.ledger import CreditLedger
from ..core.log import RunResult
from ..core.model import SERVER
from ..core.state import SwarmState
from ..overlays.graph import CompleteGraph, Graph
from ..sim.kernel import TickKernel
from ..sim.policy import TickPolicy
from .policies import BlockPolicy, RandomPolicy

__all__ = ["TriangularTickPolicy", "randomized_triangular_run"]

_PARTNER_TRIES = 8
#: Quiet ticks in a row before the run gives up as a stall.
_STALL_TICKS = 8


class TriangularTickPolicy(TickPolicy):
    """Per-tick random matching into useful 2-/3-cycles and credit gifts.

    Per tick: the server seeds one random incomplete neighbor; clients
    holding data are scanned in random order, each unmatched one taking
    a sampled cycle through itself (:func:`_find_cycle`) or, failing
    that, a one-way gift within ``credit_limit`` (:func:`_find_gift`).
    A client takes part in at most one cycle or gift per tick (plus the
    seed when it has a second download unit), so download capacity is
    structural and the kernel's ledger is switched off. Gifts are
    charged to the policy's own :class:`~repro.core.ledger.CreditLedger`
    at tick end; cycles cancel and charge nothing.
    """

    name = "randomized-triangular"
    uses_download_ledger = False

    def __init__(
        self,
        graph: Graph,
        block_policy: BlockPolicy,
        allow_triangles: bool = True,
        credit_limit: int = 1,
    ) -> None:
        self.graph = graph
        self.block_policy = block_policy
        self.allow_triangles = allow_triangles
        self.credit_limit = credit_limit
        self.ledger = CreditLedger()
        self._stalled = 0

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        kernel.graph = self.graph
        self._full = (1 << kernel.k) - 1

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        state = kernel.state
        masks = state.masks
        rng = kernel.rng
        graph = self.graph
        policy = self.block_policy
        attempt = kernel.attempt
        ledger = self.ledger
        # Absent clients (crashed, napping, not yet arrived) hold nothing
        # and may receive nothing: starting them busy keeps them out of
        # every cycle and gift.
        busy = set(kernel.absent)

        # Server seeding (free, one block per tick). The server holds
        # every block, so every incomplete client is interested.
        if kernel.server_available():
            full = self._full
            candidates = [
                v
                for v in graph.neighbors(SERVER)
                if v not in busy and masks[v] != full
            ]
            if candidates:
                seeded = candidates[rng.randrange(len(candidates))]
                block = policy.choose(
                    snapshot[SERVER] & ~masks[seeded], kernel, SERVER, seeded
                )
                attempt(SERVER, seeded, block)
                model = kernel.model
                if not (model.unbounded_download or (model.download or 1) >= 2):
                    busy.add(seeded)

        order = [v for v in range(1, kernel.n) if snapshot[v]]
        rng.shuffle(order)
        gifts: list[tuple[int, int]] = []
        for a in order:
            if a in busy:
                continue
            cycle = _find_cycle(
                a, graph, snapshot, state, busy, rng, self.allow_triangles
            )
            if cycle is None:
                gift = _find_gift(
                    a, graph, snapshot, state, busy, ledger, self.credit_limit, rng
                )
                if gift is None:
                    continue
                cycle = [gift]
                gifts.append(gift)
            for src, dst in cycle:
                block = policy.choose(snapshot[src] & ~masks[dst], kernel, src, dst)
                attempt(src, dst, block)
            busy.update(node for hop in cycle for node in hop)
        # Cycles cancel; only one-way gifts consume credit (flushed at
        # tick end — balances are judged at tick start). A lost gift
        # still spent its credit, as the verifier counts it.
        for src, dst in gifts:
            ledger.record_send(src, dst)

    def post_tick(self, delivered: int, failed: int) -> str | None:
        """The matching is sampled, so a few quiet ticks prove nothing;
        :data:`_STALL_TICKS` of them in a row end the run as a stall. A
        quiet wait for scheduled workload arrivals or returns is a lull,
        not a stall, so the count holds off while events are pending."""
        if delivered or self.kernel.membership_events_pending():
            self._stalled = 0
            return None
        self._stalled += 1
        return "stall" if self._stalled >= _STALL_TICKS else None

    def zero_tick_conclusive(self) -> bool:
        """The sampled cycle search is not exhaustive, so a quiet tick is
        at most a stall, never a *proven* deadlock."""
        return False

    def result_meta(self) -> dict[str, object]:
        return {
            "algorithm": self.name,
            "policy": self.block_policy.name,
            "mechanism": "triangular-barter",
            "allow_triangles": self.allow_triangles,
            "max_ticks": self.kernel.max_ticks,
        }

    def capture_state(self) -> dict[str, object]:
        return {"ledger": self.ledger.capture_state(), "stalled": self._stalled}

    def restore_state(self, state: dict[str, object]) -> None:
        self.ledger.restore_state(state["ledger"])
        self._stalled = state["stalled"]


def randomized_triangular_run(
    n: int,
    k: int,
    overlay: Graph | None = None,
    policy: BlockPolicy | None = None,
    *,
    allow_triangles: bool = True,
    credit_limit: int = 1,
    **options,
) -> RunResult:
    """Run randomized cyclic barter until completion, stall or timeout.

    ``credit_limit`` bounds one-way gifts per ordered pair (judged at
    tick start, as everywhere); ``allow_triangles=False`` restricts the
    matching to 2-cycles — i.e. credit-limited pairwise exchange — so the
    marginal value of triangles is a one-flag ablation. Every other
    keyword is a kernel run option (see
    :class:`~repro.sim.kernel.TickKernel`); the policy carries faults and
    workloads but refuses adversaries and bandwidth tiers.
    """
    tick_policy = TriangularTickPolicy(
        overlay if overlay is not None else CompleteGraph(n),
        policy or RandomPolicy(),
        allow_triangles,
        credit_limit,
    )
    # Gifts are charged to the policy's own ledger: a ``credit=``
    # keyword collides with this one and raises TypeError.
    return TickKernel(n, k, tick_policy, credit=None, **options).run()


def _find_cycle(
    a: int,
    graph: Graph,
    snapshot: list[int],
    state: SwarmState,
    busy: set[int],
    rng: random.Random,
    allow_triangles: bool,
) -> list[tuple[int, int]] | None:
    """A useful 2- or 3-cycle through ``a`` among free clients, or None.

    Sampled: a bounded number of random neighbors are probed for an
    exchange; failing that, random (b, c) probes for a triangle
    ``a -> b -> c -> a``. Every node in the returned cycle is currently
    unmatched and every hop is useful at this instant.
    """
    masks = state.masks

    def eligible(v: int) -> bool:
        return v != SERVER and v != a and v not in busy

    neighbors = [v for v in graph.neighbors(a) if eligible(v)]
    if not neighbors:
        return None

    # 2-cycles first: mutual interest.
    for _ in range(min(_PARTNER_TRIES, len(neighbors))):
        b = neighbors[rng.randrange(len(neighbors))]
        if snapshot[a] & ~masks[b] and snapshot[b] & ~masks[a]:
            return [(a, b), (b, a)]

    if not allow_triangles:
        # Exhaustive fallback for the pure-exchange baseline.
        for b in neighbors:
            if snapshot[a] & ~masks[b] and snapshot[b] & ~masks[a]:
                return [(a, b), (b, a)]
        return None

    # Triangles: a -> b -> c -> a with one-way interest per hop.
    for _ in range(_PARTNER_TRIES):
        b = neighbors[rng.randrange(len(neighbors))]
        if not snapshot[a] & ~masks[b] or not snapshot[b]:
            continue
        b_neighbors = [
            c
            for c in graph.neighbors(b)
            if eligible(c) and c != b and graph.has_edge(c, a)
        ]
        if not b_neighbors:
            continue
        for _ in range(min(_PARTNER_TRIES, len(b_neighbors))):
            c = b_neighbors[rng.randrange(len(b_neighbors))]
            if snapshot[b] & ~masks[c] and snapshot[c] & ~masks[a]:
                return [(a, b), (b, c), (c, a)]
    return None


def _find_gift(
    a: int,
    graph: Graph,
    snapshot: list[int],
    state: SwarmState,
    busy: set[int],
    ledger: CreditLedger,
    credit_limit: int,
    rng: random.Random,
) -> tuple[int, int] | None:
    """A one-way within-credit transfer from ``a``, or ``None``.

    This is the credit line of "triangular barter with a credit limit":
    a node whose upload would otherwise idle gives a block to a random
    interested neighbor it has not over-extended — the only way a sparse
    overlay's far nodes ever receive their first block.
    """
    masks = state.masks
    candidates = [
        v
        for v in graph.neighbors(a)
        if v != SERVER
        and v != a
        and v not in busy
        and snapshot[a] & ~masks[v]
        and ledger.within_limit(a, v, credit_limit)
    ]
    if not candidates:
        return None
    return a, candidates[rng.randrange(len(candidates))]
