"""Randomized content distribution with network coding.

The paper's related work cites network coding [Gkantsidis &
Rodriguez-Rodriguez, INFOCOM 2005] as an alternative tailored to
"locality, robustness, and rapid peer arrivals/departures". This engine
implements it inside the same tick model so it can be compared head-on
with the paper's block-based algorithms:

* every node accumulates *coded blocks* — GF(2) linear combinations of
  the file's ``k`` blocks, tracked by their coefficient vectors in a
  :class:`~repro.coding.gf2.Gf2Basis`;
* per tick, each node with any data picks a uniformly random neighbor for
  which it holds something *innovative* (its span is not contained in the
  receiver's) and with download capacity left, and sends one random
  member of its span;
* a client completes when its basis reaches rank ``k`` (it can decode).

Why it is interesting here: block selection is the paper's Achilles heel
under barter (Figure 7's rarest-first dependence) and in the endgame
(coupon collector). Coding removes the choice entirely — any random
combination is innovative with probability ``>= 1/2`` over GF(2), and
higher fields push that toward 1. The ``ext-coding`` experiment measures
what that buys on low-degree overlays.

On the :mod:`repro.sim` kernel, delivery means inserting the coded
vector into the receiver's basis (the policy overrides the kernel's
delivery hook), and the engine gains the full fault model: transfer
loss, link/server outages, stall abort, progress callbacks, and node
crash/rejoin. Retained state across a crash is *rows of the GF(2)
basis*, not block bits: each basis row survives independently with
probability ``rejoin_retention``, and the rejoining node's basis is
rebuilt (rank recomputed) from the surviving rows — a strict subspace
of what it held at crash time.
"""

from __future__ import annotations

from typing import Callable

from ..core.errors import ConfigError
from ..core.log import RunResult
from ..core.model import SERVER
from ..overlays.graph import CompleteGraph, Graph
from ..sim.kernel import TickKernel
from ..sim.policy import TickPolicy
from .gf2 import Gf2Basis

__all__ = ["CodingTickPolicy", "NetworkCodingEngine", "network_coding_run"]


class CodingTickPolicy(TickPolicy):
    """Random GF(2) combinations as a kernel policy.

    Swarm content lives in per-node bases, not block masks, so this
    policy overrides the kernel's delivery hook (:meth:`deliver`) and the
    completion predicate; the logged "block" of a delivery is the pivot
    of the received coefficient vector (logged even when the combination
    turns out redundant — bandwidth was spent either way).
    """

    name = "network-coding"
    # Free-riders only: a polluted coded vector would desynchronise the
    # coding_vectors streams from the kernel log (verify_coding_log
    # replays spans row-for-row), so pollution/lie plans are refused
    # rather than half-honored.
    adversary_support = "free-riders"
    # Coded uploads are one combination per node per tick structurally
    # (the span snapshot is rebuilt per round and re-broadcast rules are
    # causal); only per-node download capacities are honored.
    bandwidth_support = "download"

    def __init__(self, k: int, n: int, graph: Graph, field: str) -> None:
        self.field = field
        self._graph = graph
        self.bases: list[Gf2Basis] = [Gf2Basis(k) for _ in range(n)]
        self.bases[SERVER] = Gf2Basis.full(k)
        self.redundant = 0
        self._incomplete = set(range(1, n))
        self._completions: dict[int, int] = {}
        self._vector = 0  # coefficient vector of the in-flight attempt
        # Coefficient vectors of logged attempts, parallel to the
        # kernel log's delivery / failure streams (keep_log-gated), so
        # :func:`repro.coding.verify.verify_coding_log` can replay spans.
        self.coding_vectors: list[int] = []
        self.coding_failed_vectors: list[int] = []
        # Canonical copies of the bases, reused while a node's basis is
        # the same object at the same rank (see ``Gf2Basis.canonical_copy``).
        # Derived state: not checkpointed.
        self._copy_of: list[Gf2Basis | None] = [None] * n
        self._copy_rank = [0] * n
        self._copies: list[Gf2Basis | None] = [None] * n

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        kernel.graph = self._graph
        self._full = (1 << kernel.k) - 1

    def _snapshots(self) -> list[Gf2Basis]:
        """Start-of-tick canonical copies of every basis."""
        copy_of, copy_rank, copies = self._copy_of, self._copy_rank, self._copies
        for v, basis in enumerate(self.bases):
            rank = basis.rank
            if copy_of[v] is not basis or copy_rank[v] != rank:
                copy_of[v] = basis
                copy_rank[v] = rank
                copies[v] = basis.canonical_copy()
        return copies

    def _open(self, v: int) -> bool:
        """Whether ``v`` can take a coded block now: present, with a
        download slot left (or no ledger), and not yet decodable."""
        dl_left = self.kernel.download_ledger
        return (
            v not in self.kernel.absent
            and (dl_left is None or dl_left[v] > 0)
            and self.bases[v].pivots != self._full
        )

    def run_tick(self, snapshot: list[int]) -> None:
        # ``snapshot`` (block masks) is meaningless here; senders use
        # their start-of-tick *span*: a row received this tick must not be
        # re-broadcast until next tick (causality).
        kernel = self.kernel
        rng = kernel.rng
        attempt = kernel.attempt
        bases = self.bases
        snapshots = self._snapshots()
        is_open = self._open
        # On the complete graph every receiver comes from one ascending
        # list of open nodes, built per tick and pruned as attempts fill
        # ledgers or complete receivers (nothing else changes mid-tick).
        receivers = (
            [v for v in range(kernel.n) if is_open(v)]
            if isinstance(kernel.graph, CompleteGraph)
            else None
        )

        server_ok = kernel.server_available()
        riders = (
            kernel.adversary.free_riders_at(kernel.tick)
            if kernel.adversary is not None
            else frozenset()
        )
        uploaders = [
            v
            for v in range(kernel.n)
            if snapshots[v].rank
            and (v != SERVER or server_ok)
            and v not in riders
        ]
        rng.shuffle(uploaders)
        server_rounds = kernel.model.server_upload
        for src in uploaders:
            rounds = server_rounds if src == SERVER else 1
            src_basis = snapshots[src]
            for _ in range(rounds):
                dst = self._pick_destination(src, src_basis, receivers)
                if dst is None:
                    break
                vector = src_basis.random_member(rng)
                if self.field == "ideal":
                    # Large-field limit: a random combination is innovative
                    # with probability -> 1 whenever the spans differ.
                    # Model it by re-drawing random combinations until one
                    # is innovative (one exists since eligibility required
                    # span(src) ⊄ span(dst); each draw succeeds w.p. >= 1/2
                    # even over GF(2), so this terminates fast) — keeping
                    # the *random mixing* that coding's benefit rests on.
                    while bases[dst].contains(vector):
                        vector = src_basis.random_member(rng)
                self._vector = vector
                delivered = attempt(src, dst, vector.bit_length() - 1)
                if receivers is not None and not is_open(dst):
                    receivers.remove(dst)
                if kernel.keep_log:
                    if delivered:
                        self.coding_vectors.append(vector)
                    else:
                        self.coding_failed_vectors.append(vector)

    def deliver(self, src: int, dst: int, block: int) -> None:
        """Kernel delivery hook: insert the coded vector (not a block)."""
        innovative = self.bases[dst].insert(self._vector)
        if not innovative:
            # Random combination happened to lie in the receiver's span
            # (probability <= 1/2 per try over GF(2)).
            self.redundant += 1
        elif dst != SERVER and self.bases[dst].is_full():
            self._incomplete.discard(dst)
            self._completions[dst] = self.kernel.tick

    def _pick_destination(
        self, src: int, src_basis: Gf2Basis, receivers: list[int] | None
    ) -> int | None:
        """A uniform draw among the open receivers ``src_basis`` holds
        something innovative for: ``receivers`` on the complete graph,
        else ``src``'s open neighbours, in list order."""
        kernel = self.kernel
        bases = self.bases
        if receivers is None:
            is_open = self._open
            receivers = [v for v in kernel.graph.neighbors(src) if is_open(v)]
        innovative = src_basis.has_innovative_for
        pivots = src_basis.pivots
        # A sender pivot the receiver lacks settles the test without the
        # call (``has_innovative_for``'s own first check, inlined).
        pool = [
            v
            for v in receivers
            if v != src
            and (pivots & ~bases[v].pivots or innovative(bases[v]))
        ]
        if not pool:
            return None
        return pool[kernel.rng.randrange(len(pool))]

    def all_complete(self) -> bool:
        return not self._incomplete

    def zero_tick_conclusive(self) -> bool:
        """The destination search is an exhaustive scan, so a tick with
        zero attempts proves no node holds anything innovative for any
        reachable incomplete receiver — permanent on a static overlay."""
        return True

    def completions(self) -> dict[int, int]:
        # Completion is tracked from basis ranks directly, so it survives
        # ``keep_log=False`` (unlike mask engines, which recover it from
        # the transfer log).
        return dict(self._completions)

    # -- crash/rejoin ------------------------------------------------------

    def crash_retention_sampler(self, node: int):
        """Sample retained *basis rows* instead of block bits.

        Each row of the node's crash-time basis (pivot-descending, the
        canonical :meth:`~repro.coding.gf2.Gf2Basis.basis_rows` order)
        survives independently with probability ``rejoin_retention`` —
        one RNG draw per row, on the injector's stream, even at
        retention 1, so telemetry draws stay aligned across retention
        settings. The surviving rows span a subspace of the crash-time
        span; rank is recomputed on rejoin.
        """
        rows = self.bases[node].basis_rows()

        def sample(rng, retention) -> tuple[int, ...]:
            if retention <= 0.0 or not rows:
                return ()
            return tuple(r for r in rows if rng.random() < retention)

        return sample

    def after_crash(self, node: int) -> None:
        """Void the crashed node's basis; it is out of the goal set."""
        self.bases[node] = Gf2Basis(self.kernel.k)
        self._incomplete.discard(node)
        self._completions.pop(node, None)

    def restore_retained(self, node: int, retained) -> None:
        """Rebuild the rejoined node's basis from its surviving rows."""
        basis = Gf2Basis(self.kernel.k, retained or ())
        self.bases[node] = basis
        if node != SERVER:
            if basis.is_full():
                self._completions[node] = self.kernel.tick
            else:
                self._incomplete.add(node)

    # -- membership (open-system workloads) --------------------------------

    def node_complete(self, node: int) -> bool:
        """Completion is basis rank, not a block mask."""
        return self.bases[node].is_full()

    def capture_retained(self, node: int):
        """A nap keeps the whole basis (rows in canonical order), unlike
        a crash's sampled subset; :meth:`restore_retained` rebuilds it
        verbatim on return."""
        return tuple(self.bases[node].basis_rows())

    def after_arrival(self, node: int) -> None:
        """A fresh arrival starts with an empty basis and belongs in the
        goal set (it may have been purged if this id was re-planned)."""
        self.bases[node] = Gf2Basis(self.kernel.k)
        self._incomplete.add(node)

    # -- checkpoint --------------------------------------------------------

    def capture_state(self) -> dict[str, object]:
        """Per-node bases are captured in exact ``_rows`` insertion order
        (see :meth:`~repro.coding.gf2.Gf2Basis.capture_rows` — the order
        feeds ``random_member``'s coefficient draw), alongside the
        completion bookkeeping and the keep_log-gated vector streams."""
        return {
            "bases": [basis.capture_rows() for basis in self.bases],
            "redundant": self.redundant,
            "incomplete": sorted(self._incomplete),
            "completions": [list(p) for p in sorted(self._completions.items())],
            "coding_vectors": list(self.coding_vectors),
            "coding_failed_vectors": list(self.coding_failed_vectors),
        }

    def restore_state(self, state: dict[str, object]) -> None:
        k = self.kernel.k
        self.bases = [Gf2Basis.restore_rows(k, rows) for rows in state["bases"]]
        self.redundant = state["redundant"]
        self._incomplete = set(state["incomplete"])
        self._completions = {node: tick for node, tick in state["completions"]}
        self.coding_vectors = [int(v) for v in state["coding_vectors"]]
        self.coding_failed_vectors = [
            int(v) for v in state["coding_failed_vectors"]
        ]

    def result_meta(self) -> dict[str, object]:
        kernel = self.kernel
        meta: dict[str, object] = {
            "algorithm": self.name,
            "field": self.field,
            "mechanism": "cooperative",
            "redundant_combinations": self.redundant,
            "uploads_per_tick": kernel.uploads_per_tick,
            "final_holdings": [b.rank for b in self.bases],
        }
        if kernel.keep_log:
            # Parallel to the log's delivery/failure streams; lets
            # verify_coding_log replay the run at the vector level.
            meta["coding_vectors"] = list(self.coding_vectors)
            meta["coding_failed_vectors"] = list(self.coding_failed_vectors)
        return meta


class NetworkCodingEngine:
    """Tick-synchronous swarm exchanging random GF(2) combinations.

    ``overlay`` (default: the complete graph) and ``field`` (``"binary"``
    for GF(2), ``"ideal"`` for the large-field limit) are the engine's
    own; every other keyword is a kernel run option (see
    :class:`~repro.sim.kernel.TickKernel`).
    """

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | None = None,
        *,
        field: str = "binary",
        **options,
    ) -> None:
        if n < 2:
            raise ConfigError(f"need a server and at least one client, got n={n}")
        if k < 1:
            raise ConfigError(f"file must have at least one block, got k={k}")
        if field not in ("binary", "ideal"):
            raise ConfigError(
                f"field must be 'binary' (GF(2)) or 'ideal' (large-field "
                f"limit: every combination innovative), got {field!r}"
            )
        self.n, self.k = n, k
        self.field = field
        graph = overlay if overlay is not None else CompleteGraph(n)
        if graph.n != n:
            raise ConfigError(f"overlay has {graph.n} nodes, swarm has {n}")
        self.tick_policy = CodingTickPolicy(k, n, graph, field)
        # Coding is cooperative: a ``credit=`` keyword collides with this
        # one and raises TypeError.
        self.kernel = TickKernel(n, k, self.tick_policy, credit=None, **options)

    @property
    def bases(self) -> list[Gf2Basis]:
        return self.tick_policy.bases

    @property
    def redundant(self) -> int:
        return self.tick_policy.redundant

    def run(self, progress: Callable[[int, int], None] | None = None) -> RunResult:
        """Run until every client can decode, or the tick guard trips."""
        return self.kernel.run(progress)


def network_coding_run(
    n: int, k: int, overlay: Graph | None = None, **options
) -> RunResult:
    """One network-coded run; see :class:`NetworkCodingEngine`."""
    return NetworkCodingEngine(n, k, overlay, **options).run()
