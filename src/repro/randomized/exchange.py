"""Randomized strict-barter exchange matching (library extension).

The paper analyses strict barter only through the deterministic riffle
pipeline; this module adds the natural randomized counterpart, so the
price of barter can also be measured for unstructured swarms: each tick a
random matching of *mutually interested* adjacent client pairs is formed,
and every matched pair swaps one block in each direction simultaneously —
each tick satisfies :class:`~repro.core.mechanisms.StrictBarter` exactly.
The server seeds one interested client per tick for free (the paper's one
exception to barter).

This directly exposes the start-up bottleneck of Theorem 2: only clients
already holding data can be matched, so the swarm warms up linearly.

Matching reads one interest matrix per tick. The server seed lands
first; then clients in shuffled order each take a random unmatched,
mutually interested neighbour. Inside that loop only the two clients of
a new pair receive blocks, and a matched client is never a candidate
again, so among the *unmatched* clients mutual interest is fixed once
the seed has landed. One ``gives & gives.T`` bool matrix over the
tick's eligible clients — ``gives[a, b]``: a's start-of-tick blocks
include one that b lacks after the seed — therefore answers every
partner query of the loop exactly as a fresh scan of the live masks
would. Rows are packed into Python ints, so an initiator's candidates
are one AND with the unmatched set, and every RNG draw is the one the
per-client scan made.

Fault injection (:mod:`repro.faults`) applies per *direction* of a swap:
a lost direction consumes its bandwidth — and keeps the tick's pairing
symmetric, so the strict-barter constraint still holds over the tick's
attempts — but delivers nothing. Crashed clients leave the swarm (their
copies vanish) and may rejoin with retained blocks; the server sits out
its outage windows.

On the :mod:`repro.sim` kernel the matching logic is
:class:`ExchangeTickPolicy`; :class:`ExchangeEngine` is the construction
facade and :func:`randomized_exchange_run` the one-call entry point.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.blocks import nth_set_bit
from ..core.errors import ConfigError
from ..core.log import RunResult
from ..core.model import SERVER
from ..overlays.graph import CompleteGraph, Graph
from ..sim.kernel import TickKernel
from ..sim.policy import TickPolicy
from .policies import BlockPolicy, RandomPolicy

__all__ = ["ExchangeEngine", "ExchangeTickPolicy", "randomized_exchange_run"]


def _words(masks: list[int], nbytes: int) -> np.ndarray:
    """Bitmasks as a ``(len(masks), nbytes // 8)`` little-endian word matrix."""
    raw = b"".join([mask.to_bytes(nbytes, "little") for mask in masks])
    return np.frombuffer(raw, dtype="<u8").reshape(len(masks), -1)


class ExchangeTickPolicy(TickPolicy):
    """Per-tick random matching of mutually interested client pairs.

    Per tick: the server sends one block to a random interested client;
    clients are scanned in random order, each unmatched client picking a
    random unmatched neighbor with which a mutually useful swap exists,
    and the pair exchanges blocks chosen by the block policy in both
    directions. Download capacity is enforced structurally (one swap per
    client, plus the seeded client needing a second unit), so the
    kernel's per-node download ledger is switched off.

    Mutual interest is computed once per tick, after the seed (see the
    module docstring for why that is exact), by :meth:`_interest_rows`
    over the clients that can barter this tick: present, not
    free-riding, holding data, still incomplete, and not the seeded
    client unless it has a second download unit. An initiator's
    candidates keep ``graph.neighbors`` order — ascending node order on
    a :class:`CompleteGraph`, where the draw picks the r-th set bit of
    its row directly — so ``randrange`` sees the same list length and
    picks the same partner as a full scan would.
    """

    name = "randomized-exchange"
    uses_download_ledger = False
    # Matching is sequential in the RNG (each initiator's draw depends
    # on whom earlier initiators took), so exchange keeps the
    # per-attempt path on the array backend; it reads the mirrored
    # ownership words for its interest matrix and gains deferred bulk
    # logging.
    supports_array = True
    adversary_support = "full"
    # One swap per client per tick is structural here — a fast tier's
    # extra upload capacity cannot be spent — so only the download axis
    # is honored (which is exactly the strict regime's asymmetry the
    # heterogeneity experiment measures).
    bandwidth_support = "download"

    def __init__(self, block_policy: BlockPolicy, graph: Graph) -> None:
        self.block_policy = block_policy
        self._graph = graph

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        kernel.graph = self._graph
        self._full = (1 << kernel.k) - 1
        self._nbytes = 8 * ((kernel.k + 63) >> 6)

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        state = kernel.state
        masks = state.masks
        rng = kernel.rng
        graph = kernel.graph
        absent = kernel.absent
        policy = self.block_policy
        attempt = kernel.attempt
        tick = kernel.tick

        # Server seeding: one free block per tick to a random client that
        # is interested in the server's content. The server holds every
        # block, so that is any incomplete client.
        seeded = None
        if kernel.server_available():
            full = self._full
            candidates = [
                v
                for v in graph.neighbors(SERVER)
                if v != SERVER and v not in absent and masks[v] != full
            ]
            if candidates:
                seeded = candidates[rng.randrange(len(candidates))]
                block = policy.choose(
                    snapshot[SERVER] & ~masks[seeded], kernel, SERVER, seeded
                )
                attempt(SERVER, seeded, block)

        # Pairwise matching of mutually interested clients. A node the
        # server seeded this tick (even if the seed was lost in transit —
        # the slot is spent) may only also barter with a second unit of
        # download capacity.
        model = kernel.model
        seed_cap = None if seeded is None else model.download_capacity(seeded)
        seed_can_barter = seeded is None or seed_cap is None or seed_cap >= 2
        # Free-riders refuse to upload, and a barter swap *is* an upload
        # in each direction — so they can neither initiate nor accept a
        # match. They stay eligible for the free server seed above (the
        # paper's one exception to barter), which is exactly the strict
        # regime's point: that seed is all a free-rider ever gets.
        riders = (
            kernel.adversary.free_riders_at(tick)
            if kernel.adversary is not None
            else frozenset()
        )
        order = [
            v
            for v in range(1, kernel.n)
            if snapshot[v] and v not in absent and v not in riders
        ]
        rng.shuffle(order)
        barred = None if seed_can_barter else seeded
        nodes, rows = self._interest_rows(snapshot, order, barred)
        m = len(nodes)
        # ``pos[v]`` is v's bit in the rows; nodes outside the matrix map
        # to bit m, which no row has, so they are never offered a partner.
        pos = [m] * kernel.n
        for i, v in enumerate(nodes):
            pos[v] = i
        complete = isinstance(graph, CompleteGraph)
        free = (1 << m) - 1  # the unmatched rows
        for a in order:
            i = pos[a]
            if not free >> i & 1:
                continue
            cand = rows[i] & free
            if not cand:
                continue
            if complete:
                # neighbors(a) is ascending node order, which is bit order.
                b = nodes[nth_set_bit(cand, rng.randrange(cand.bit_count()))]
            else:
                partners = [b for b in graph.neighbors(a) if cand >> pos[b] & 1]
                if not partners:
                    continue
                b = partners[rng.randrange(len(partners))]
            block_ab = policy.choose(snapshot[a] & ~masks[b], kernel, a, b)
            block_ba = policy.choose(snapshot[b] & ~masks[a], kernel, b, a)
            # Each direction is judged independently; the *attempts* stay
            # paired, which is what strict barter constrains.
            attempt(a, b, block_ab)
            attempt(b, a, block_ba)
            free &= ~(1 << i | 1 << pos[b])

    def _interest_rows(
        self, snapshot: list[int], order: list[int], barred: int | None
    ) -> tuple[list[int], list[int]]:
        """Mutual interest among this tick's possible barter partners.

        Returns ``(nodes, rows)``: ``nodes`` are the ascending clients
        of ``order`` (``barred`` left out) that still lack a block, and
        bit ``j`` of ``rows[i]`` says ``nodes[i]`` and ``nodes[j]`` each
        hold, at tick start, a block the other lacks now; ``rows[m]`` is
        0. For m nodes and ``w = ceil(k / 64)`` words this costs
        O(m²·w) word operations but only O(m²) bytes: ``gives[a, b]``
        is accumulated one word column at a time, so the largest
        temporary is one ``m x m`` word matrix, never an ``m x m x w``
        broadcast.
        """
        kernel = self.kernel
        masks = kernel.state.masks
        full = self._full
        nodes = sorted(v for v in order if v != barred and masks[v] != full)
        m = len(nodes)
        if m < 2:
            return nodes, [0] * (m + 1)
        mirror = kernel.state.mirror
        if mirror is not None:
            index = np.array(nodes)
            have = mirror.snap_words[index]
            live = mirror.words[index]
        else:
            have = _words([snapshot[v] for v in nodes], self._nbytes)
            live = _words([masks[v] for v in nodes], self._nbytes)
        lacks = ~live
        gives = np.zeros((m, m), dtype=bool)
        cell = np.empty((m, m), dtype=np.uint64)
        for j in range(have.shape[1]):
            np.bitwise_and(have[:, j, None], lacks[:, j], out=cell)
            gives |= cell != 0
        # The diagonal is clear (tick-start holdings are a subset of the
        # live ones), so no client is ever its own candidate.
        mutual = gives & gives.T
        packed = np.packbits(mutual, axis=1, bitorder="little").tobytes()
        width = (m + 7) >> 3
        rows = [
            int.from_bytes(packed[at : at + width], "little")
            for at in range(0, m * width, width)
        ]
        rows.append(0)
        return nodes, rows

    def zero_tick_conclusive(self) -> bool:
        """The partner scan is exhaustive — the interest matrix tests
        every pair of eligible clients — so a tick without a single
        attempt proves no legal move exists; the state can never change
        again (the kernel separately rules out fault-side revivals)."""
        return True

    def completions(self) -> dict[int, int]:
        kernel = self.kernel
        if not kernel.keep_log:
            return {}
        absent = kernel.absent
        return {
            c: t
            for c, t in kernel.log.completion_ticks(kernel.n, kernel.k).items()
            if c not in absent
        }

    def result_meta(self) -> dict[str, object]:
        return {
            "algorithm": self.name,
            "policy": self.block_policy.name,
            "mechanism": "strict-barter",
            "max_ticks": self.kernel.max_ticks,
            # Per-tick delivered counts survive log-less results (cache
            # hits, replica summaries) — the resilience readers' fallback
            # for delivered-transfer totals, like every other engine.
            "uploads_per_tick": self.kernel.uploads_per_tick,
        }


class ExchangeEngine:
    """Randomized strict-barter exchange swarm; see module docstring.

    ``overlay`` (default: the complete graph) and the block ``policy``
    are the engine's own; every other keyword is a kernel run option
    (see :class:`~repro.sim.kernel.TickKernel`).

    A strict-barter swarm can deadlock short of completion (no pair has
    mutual interest and the server cannot help); a zero-transfer tick
    proves it and the run aborts with ``meta["deadlocked"] = True``.
    Under fault injection the proof needs the injector's say-so (a rejoin
    or outage end could revive the swarm), and a stall window aborts runs
    that merely stop progressing.
    """

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | None = None,
        policy: BlockPolicy | None = None,
        **options,
    ) -> None:
        self.n, self.k = n, k
        self.policy = policy or RandomPolicy()
        graph = overlay if overlay is not None else CompleteGraph(n)
        if graph.n != n:
            raise ConfigError(
                f"overlay has {graph.n} nodes but the swarm has {n}"
            )
        self.tick_policy = ExchangeTickPolicy(self.policy, graph)
        # Strict barter keeps no credit ledger: a ``credit=`` keyword
        # collides with this one and raises TypeError.
        self.kernel = TickKernel(n, k, self.tick_policy, credit=None, **options)

    def run(self, progress: Callable[[int, int], None] | None = None) -> RunResult:
        return self.kernel.run(progress)


def randomized_exchange_run(
    n: int,
    k: int,
    overlay: Graph | None = None,
    policy: BlockPolicy | None = None,
    **options,
) -> RunResult:
    """Run randomized strict-barter exchange until completion or timeout;
    see :class:`ExchangeEngine`."""
    return ExchangeEngine(n, k, overlay, policy, **options).run()
