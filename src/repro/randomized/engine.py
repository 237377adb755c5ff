"""The synchronous randomized simulation engine (Sections 2.4 and 3.2.3).

Per tick, every node holding data tries to upload one block:

1. pick a uniformly random *eligible* neighbor — one that is interested
   (lacks a block the uploader holds), still has download capacity this
   tick, and (under a barter mechanism) is reachable within the credit
   limit;
2. send it one useful block chosen by the block-selection policy.

The paper resolves simultaneous-choice collisions with a handshake
protocol; a synchronous simulation models that by processing uploaders in
random order against live download-capacity counters and live receiver
holdings (so no duplicate deliveries happen), while *senders* read their
own holdings from the start-of-tick snapshot (a block received this tick
cannot be forwarded until the next).

Eligible-neighbor sampling stays exactly uniform: up to a bounded number
of rejection samples over the neighbor list (uniform conditioned on
acceptance), then a full scan choosing uniformly among the eligible. On a
complete graph the candidate pool is the set of still-incomplete nodes,
maintained incrementally so big swarms (the paper's n = 10,000 run) stay
fast.

Since the :mod:`repro.sim` refactor the mechanics live in
:class:`~repro.sim.kernel.TickKernel`; this module contributes
:class:`RandomizedTickPolicy` (the upload decisions above) and keeps
:class:`RandomizedEngine` as the stable construction facade.
"""

from __future__ import annotations

from functools import reduce
from itertools import islice
from operator import and_
from typing import Callable

import numpy as np

from ..core.blocks import nth_set_bit
from ..core.errors import ConfigError
from ..core.log import RunResult
from ..core.mechanisms import Cooperative, CreditLimitedBarter, Mechanism
from ..core.model import SERVER
from ..overlays.dynamic import DynamicOverlay
from ..overlays.graph import CompleteGraph, Graph
from ..sim.array.state import _WBIT
from ..sim.kernel import TickKernel, default_max_ticks
from ..sim.policy import TickPolicy
from .policies import BlockPolicy, RandomPolicy

__all__ = ["RandomizedEngine", "RandomizedTickPolicy", "default_max_ticks"]

_REJECTION_TRIES = 12


class RandomizedTickPolicy(TickPolicy):
    """Randomized uniform-neighbor sampling as a kernel policy.

    Holds the decision-side configuration (block policy, barter gate,
    throttling, overlay); the kernel owns the swarm state, capacity,
    faults, free-riders and logging. Construct through
    :class:`RandomizedEngine`, which validates arguments.
    """

    name = "randomized"
    supports_array = True
    adversary_support = "full"
    bandwidth_support = "full"

    def __init__(
        self,
        block_policy: BlockPolicy,
        mechanism: Mechanism,
        *,
        throttle: dict[int, float] | None = None,
        graph: Graph | None = None,
        dynamic: DynamicOverlay | None = None,
    ) -> None:
        self.block_policy = block_policy
        self.mechanism = mechanism
        self.throttle = dict(throttle or {})
        self._graph = graph
        self._dynamic = dynamic
        self._gated = not isinstance(mechanism, Cooperative)
        self._common = 0  # refreshed at every tick start
        self._pool_and = 0  # see _pool_covers; reset with _common

    def bind(self, kernel: TickKernel) -> None:
        super().bind(kernel)
        kernel.graph = self._graph

    def pre_tick(self, tick: int) -> None:
        if self._dynamic is not None:
            self.kernel.graph = self._dynamic.at_tick(tick)

    def run_tick(self, snapshot: list[int]) -> None:
        kernel = self.kernel
        backend = kernel.array
        if backend is not None and self._vectorizable():
            self._run_tick_array(snapshot, backend)
            return
        # Every other tick (either backend) takes the scalar path, whose
        # attempts all run through ``kernel.attempt``; on the array
        # backend that keeps the word mirror and deferred log in step.
        state = kernel.state
        masks = state.masks
        rng = kernel.rng
        graph = kernel.graph
        dl_left = kernel.download_ledger
        complete_graph = isinstance(graph, CompleteGraph)
        # Per-tick receiver pool for complete graphs: incomplete nodes
        # with download capacity left. Shrinks as capacity is spent, so
        # late uploaders don't re-sample saturated receivers.
        if complete_graph:
            kernel.activate_receiver_pool()

        riders = (
            kernel.adversary.free_riders_at(kernel.tick)
            if kernel.adversary is not None
            else frozenset()
        )
        throttle = self.throttle
        uploaders = [
            v
            for v in range(1, kernel.n)
            if snapshot[v]
            and v not in riders
            and (not throttle or (p := throttle.get(v)) is None or rng.random() >= p)
        ]
        if kernel.server_available():
            uploaders.append(SERVER)
        rng.shuffle(uploaders)

        # Server reseeding (recovery): blocks crashes made server-only
        # again (global holder count 1) get priority in server picks.
        reseed_rare = 0
        if kernel.faults is not None and kernel.recovery.reseed:
            for b, count in enumerate(state.freq):
                if count == 1:
                    reseed_rare |= 1 << b

        # Blocks held by *every* incomplete client at tick start: an
        # uploader whose content is a subset of this can interest nobody
        # and is skipped outright (a large saving near the endgame).
        common = -1
        for v in kernel.incomplete_pool:
            common &= snapshot[v]
            if common == 0:
                break
        self._common = common
        self._pool_and = 0

        attempt = kernel.attempt
        choose = self.block_policy.choose
        pick = self._pick_destination
        model = kernel.model
        server_rounds = model.server_upload
        # Per-node upload rounds under heterogeneous tiers; None keeps
        # the historical single-round client path (and its exact
        # branch shape) for uniform models.
        up_rounds = (
            None
            if getattr(model, "is_uniform", True)
            else [model.upload_capacity(v) for v in range(kernel.n)]
        )
        # Hot-loop hoists: the receiver pool is one live list per tick
        # (mutated in place as capacity drains), so its reference — like
        # the rng and absent set — is loop-invariant and passed down
        # rather than re-fetched through kernel properties per pick.
        pool = kernel.receiver_pool if complete_graph else None
        absent = kernel.absent
        for src in uploaders:
            if src == SERVER:
                rounds = server_rounds
            else:
                rounds = 1 if up_rounds is None else up_rounds[src]
            for _ in range(rounds):
                dst = pick(src, snapshot, masks, dl_left, pool, rng, absent)
                if dst is None:
                    break
                useful = snapshot[src] & ~masks[dst]
                if reseed_rare and src == SERVER and useful & reseed_rare:
                    useful &= reseed_rare
                block = choose(useful, kernel, src, dst)
                attempt(src, dst, block)

    def _vectorizable(self) -> bool:
        """Whether this tick takes :meth:`_run_tick_array`.

        Read before the tick's first RNG draw; the reseed test reads only
        ``state.freq``, which no draw changes.
        """
        kernel = self.kernel
        faults = kernel.faults
        model = kernel.model
        return (
            kernel.adversary is None
            and isinstance(kernel.graph, CompleteGraph)
            and (faults is None or not faults.judges_links)
            and kernel.credit is None
            and not self._gated
            and kernel.download_ledger is not None
            and getattr(model, "is_uniform", True)
            and model.download == 1
            and not (
                faults is not None
                and kernel.recovery.reseed
                and 1 in kernel.state.freq
            )
        )

    def _run_tick_array(self, snapshot: list[int], backend) -> None:
        """Vectorized tick of the paper's cooperative model on the array
        backend (Sections 2.4 and 3.2.3).

        :meth:`_vectorizable` admits a tick only when all of these hold:
        complete graph, no adversary, no link-fault judge, no credit
        ledger, an ungated mechanism, a uniform bandwidth model with a
        download ledger and ``download == 1``, and no block made
        server-only by crashes under reseeding recovery. Every other
        tick takes the scalar path, so ``kernel.attempt`` stays the only
        place that judges, charges credit and logs failures.

        Under that predicate no attempt can fail and every recipient
        leaves the receiver pool the instant it receives (capacity 1),
        so pool members' live masks equal their snapshot all tick. That
        licenses inlining the delivery and deferring the word-mirror and
        frequency updates to one batch at tick end.

        Byte-identity contract: every ``kernel.rng`` draw the scalar path
        makes is replicated here, in order, with the same bounds —
        throttle skips, the uploader shuffle, the bounded rejection
        sampling (``randrange`` inlined as its ``getrandbits`` rejection
        loop, which is exactly CPython's ``_randbelow``), the fallback
        choice among eligible candidates, and the block policy's own
        draws. Only the *deterministic* work between draws is vectorized:
        uploader/interest discovery over the packed snapshot words and
        the fallback eligibility scan. Receiver-pool layout feeds the
        uniform draws, so the array pool's activation order and
        swap-removals mirror the scalar pool's.

        The fallback starts with the scalar path's empty-pool proof
        (:meth:`_pool_covers`, over the live pool's snapshot masks, which
        are its live masks here): when it holds, the round ends exactly
        where an empty eligible set would end it. It sits after the
        rejection draws and an empty scan draws nothing, so no draw moves.
        """
        kernel = self.kernel
        state = kernel.state
        masks = state.masks
        incomplete = state._incomplete
        rng = kernel.rng
        getrandbits = rng.getrandbits
        dl_left = kernel.download_ledger
        arr = backend.state
        snap_words = arr.snap_words

        backend.activate_pool(kernel.incomplete_pool)
        self._pool_and = 0

        # Uploaders: nodes holding data at tick start, ascending, minus
        # throttle skips (same draw order as the scalar listcomp over
        # range(1, n); no adversary, so no free-riders); held[0] is
        # always the server.
        held = np.flatnonzero(snap_words.any(axis=1)).tolist()
        throttle = self.throttle
        rnd = rng.random
        uploaders = [
            v
            for v in held[1:]
            if not throttle or (p := throttle.get(v)) is None or rnd() >= p
        ]
        if kernel.server_available():
            uploaders.append(SERVER)
        # rng.shuffle inlined (identical Fisher-Yates draws, without the
        # per-element _randbelow call overhead).
        for i in range(len(uploaders) - 1, 0, -1):
            hi = i + 1
            nb = hi.bit_length()
            r = getrandbits(nb)
            while r >= hi:
                r = getrandbits(nb)
            uploaders[i], uploaders[r] = uploaders[r], uploaders[i]

        pool_arr = backend.pool
        size = backend.size
        if size == 0:
            return
        # Interest screen: src can interest someone iff it holds a block
        # not common to every pool member at tick start (the scalar
        # path's `have & ~common` test, batched for all nodes at once).
        common_words = np.bitwise_and.reduce(snap_words[pool_arr[:size]], axis=0)
        can = (snap_words & ~common_words).any(axis=1).tolist()

        choose = self.block_policy.choose
        random_block = type(self.block_policy) is RandomPolicy
        server_rounds = kernel.model.server_upload
        full = kernel._full
        tick = kernel.tick
        kernel_pool_remove = kernel._pool_remove
        log_buf = backend._deliveries if kernel.keep_log else None
        d_buf: list[int] = []
        b_buf: list[int] = []
        pos = backend.pos
        # The pool is worked as a plain list (indexing beats
        # ndarray.item at this call volume) kept in sync with the
        # backend's array, which the vectorized fallback reads.
        pool_l = pool_arr[:size].tolist()
        # Pool members keep their snapshot masks all tick (capacity
        # 1), so the inverted snapshot serves every interest test.
        notm = [~m for m in snapshot]
        # Lazy per-tick unpacked ownership: has_bits[v, b] says v
        # held block b at tick start. Capacity 1 keeps pool members'
        # masks at their snapshot all tick, so one build serves
        # every fallback; eligibility for a src holding few blocks
        # is then a gather of that many columns instead of a
        # packed-row reduction over the whole pool.
        has_bits = None
        k_blocks = arr.k
        for src in uploaders:
            if not can[src]:
                continue
            have = snapshot[src]
            rounds = server_rounds if src == SERVER else 1
            for _ in range(rounds):
                if size == 0:
                    break
                iv = 0
                nbits = size.bit_length()
                for _t in range(
                    _REJECTION_TRIES if size > _REJECTION_TRIES else size
                ):
                    r = getrandbits(nbits)
                    while r >= size:
                        r = getrandbits(nbits)
                    v = pool_l[r]
                    if v != src:
                        iv = have & notm[v]
                        if iv:
                            dst = v
                            break
                else:
                    # Empty-pool proof first: when every member
                    # already holds all of src's blocks the scan below
                    # would find nobody and draw nothing.
                    if self._pool_covers(have, snapshot, islice(pool_l, size)):
                        break
                    # Full scan in pool order. A member is eligible
                    # iff it lacks at least one of src's blocks:
                    # with few blocks held, AND the per-block
                    # ownership rows; otherwise reduce the packed
                    # snapshot rows (identical eligible set and
                    # draw either way).
                    cand = pool_arr[:size]
                    c_have = have.bit_count()
                    if c_have <= 64:
                        if has_bits is None:
                            has_bits = np.unpackbits(
                                snap_words.view(np.uint8),
                                axis=1,
                                bitorder="little",
                            )[:, :k_blocks]
                        if c_have == 1:
                            eligible = (
                                has_bits[cand, have.bit_length() - 1]
                                == 0
                            )
                        else:
                            held_b = []
                            m = have
                            while m:
                                held_b.append((m & -m).bit_length() - 1)
                                m &= m - 1
                            eligible = (
                                has_bits[np.ix_(cand, held_b)]
                                .all(axis=1)
                                == 0
                            )
                    else:
                        eligible = (
                            snap_words[src] & ~snap_words[cand]
                        ).any(axis=1)
                    sp = pos[src]
                    if 0 <= sp < size:
                        eligible[sp] = False
                    idx = np.flatnonzero(eligible)
                    csize = idx.shape[0]
                    if csize == 0:
                        break
                    nbits = csize.bit_length()
                    r = getrandbits(nbits)
                    while r >= csize:
                        r = getrandbits(nbits)
                    dst = pool_l[idx.item(r)]
                    iv = have & notm[dst]

                if random_block:
                    # Inlined random_set_bit: same single
                    # randrange(popcount) draw, wrapper-free.
                    c = iv.bit_count()
                    if c == 1:
                        block = iv.bit_length() - 1
                    else:
                        nbits = c.bit_length()
                        r = getrandbits(nbits)
                        while r >= c:
                            r = getrandbits(nbits)
                        d = c - 1 - r
                        if r <= d:
                            if r <= 64:
                                m = iv
                                for _i in range(r):
                                    m &= m - 1
                                block = (m & -m).bit_length() - 1
                            else:
                                block = nth_set_bit(iv, r)
                        elif d <= 64:
                            # Clear the d highest set bits instead
                            # of walking r low ones.
                            m = iv
                            for _i in range(d):
                                m ^= 1 << (m.bit_length() - 1)
                            block = m.bit_length() - 1
                        else:
                            block = nth_set_bit(iv, r)
                else:
                    block = choose(iv, kernel, src, dst)

                m_new = masks[dst] | (1 << block)
                masks[dst] = m_new
                d_buf.append(dst)
                b_buf.append(block)
                if log_buf is not None:
                    log_buf.append((tick, src, dst, block))
                if m_new == full:
                    incomplete.discard(dst)
                    kernel_pool_remove(dst)
                # Unconditional eviction (capacity 1), inline
                # swap-remove on both pool representations.
                p = pos[dst]
                size -= 1
                last = pool_l[size]
                if last != dst:
                    pool_l[p] = last
                    pool_arr[p] = last
                    pos[last] = p
                pos[dst] = -1
                dl_left[dst] = 0

        backend.size = size
        if d_buf:
            arr_d = np.asarray(d_buf, dtype=np.int64)
            arr_b = np.asarray(b_buf, dtype=np.int64)
            state.freq += np.bincount(arr_b, minlength=k_blocks)
            # Each dst receives at most one block per tick here, so
            # the (row, word) index pairs are unique and a fancy |=
            # is safe (no lost updates).
            arr.words[arr_d, arr_b >> 6] |= _WBIT[arr_b & 63]
        kernel._tick_delivered += len(d_buf)

    def _pick_destination(
        self,
        src: int,
        snapshot: list[int],
        masks: list[int],
        dl_left: list[int] | None,
        pool: list[int] | None,
        rng,
        absent: set[int],
    ) -> int | None:
        """Uniformly random eligible destination for ``src``, or ``None``.

        Bounded rejection sampling over the candidate pool (uniform over
        the eligible subset, conditioned on acceptance), then a full scan
        choosing uniformly outright — the combination is exactly uniform.
        The eligibility predicate is inlined twice for speed: this is the
        hottest loop of the whole library. ``pool`` is the complete-graph
        receiver pool (``None`` on sparse overlays).

        Late in a tick most fallback scans find nobody: an uploader whose
        blocks every remaining receiver already holds. On the pool, an
        exact proof (:meth:`_pool_covers`, an AND of member masks cached
        for the tick) returns ``None`` before such a scan. It runs after
        the rejection draws, and an empty scan draws nothing, so every
        RNG draw stays where it was.
        """
        have = snapshot[src]
        gated = self._gated
        allows = self.mechanism.allows

        if pool is not None:
            # Nobody can be interested if every incomplete client already
            # held all of src's content at tick start.
            if have & ~self._common == 0:
                return None
            candidates_pool = pool
        else:
            candidates_pool = self.kernel.graph.neighbors(src)
        size = len(candidates_pool)
        if size == 0:
            return None

        for _ in range(min(_REJECTION_TRIES, size)):
            v = candidates_pool[rng.randrange(size)]
            if (
                v != src
                and (dl_left is None or dl_left[v] > 0)
                and have & ~masks[v]
                and (not absent or v not in absent)
                and (not gated or allows(src, v))
            ):
                return v
        if pool is not None and self._pool_covers(have, masks, pool):
            return None
        candidates = [
            v
            for v in candidates_pool
            if v != src
            and (dl_left is None or dl_left[v] > 0)
            and masks[v] & have != have
            and (not absent or v not in absent)
            and (not gated or allows(src, v))
        ]
        if not candidates:
            return None
        return candidates[rng.randrange(len(candidates))]

    def _pool_covers(self, have: int, masks: list[int], pool) -> bool:
        """Exact proof that no receiver-pool member lacks a block of
        ``have``: true iff the AND of the members' masks covers it.

        Within one tick the receiver pool only shrinks (swap-removes) and
        its members' masks only grow: crashes, rejoins and membership
        changes all land before the pool is armed, and failed, polluted
        and phantom attempts set no bits. An AND taken earlier in the
        tick is therefore a subset of the live pool's AND, so a cached
        AND that covers ``have`` already proves the pool uninterested;
        only when it does not is the AND recomputed over ``pool``. The
        cache (``_pool_and``) resets at every tick start and is never
        checkpointed.
        """
        if have & self._pool_and == have:
            return True
        self._pool_and = covered = reduce(and_, map(masks.__getitem__, pool), -1)
        return have & covered == have

    def zero_tick_conclusive(self) -> bool:
        """The destination search is exhaustive (bounded rejection
        sampling *plus* a full fallback scan), so a tick with zero
        attempts proves no legal transfer exists; with a static overlay
        the state can never change again. Random throttling makes a
        silent tick non-conclusive (a skipped uploader may act next
        tick); the kernel separately asks the fault injector about
        fault-side revivals (rejoins, a server outage ending)."""
        return self._dynamic is None and not self.throttle

    def result_meta(self) -> dict[str, object]:
        kernel = self.kernel
        return {
            "algorithm": self.name,
            "policy": self.block_policy.name,
            "mechanism": self.mechanism.name,
            "overlay": type(kernel.graph).__name__,
            "max_ticks": kernel.max_ticks,
            "uploads_per_tick": kernel.uploads_per_tick,
            "final_holdings": [m.bit_count() for m in kernel.state.masks],
        }


class RandomizedEngine:
    """One randomized run over a (possibly dynamic) overlay.

    A construction facade: validates arguments, builds a
    :class:`RandomizedTickPolicy` and the :class:`~repro.sim.kernel.
    TickKernel` that drives it. Run state (``state``, ``log``, ``tick``,
    ``graph``, ...) lives on ``engine.kernel``.

    Parameters
    ----------
    n, k:
        Swarm size (server included) and number of blocks.
    overlay:
        A :class:`~repro.overlays.graph.Graph`, a
        :class:`~repro.overlays.dynamic.DynamicOverlay`, or ``None`` for
        the complete graph.
    policy:
        Block-selection policy; defaults to Random.
    mechanism:
        ``Cooperative()`` (default) or ``CreditLimitedBarter(s)``, whose
        ledger the kernel charges. Strict barter needs paired exchanges
        and has its own engine (:mod:`repro.randomized.exchange`).
    throttle:
        Mapping ``client -> p`` where a throttled client *skips* each
        tick's upload independently with probability ``p`` (0 = fully
        compliant, 1 = free-rider). The strategic knob for incentive
        analysis (:mod:`repro.incentives`). Clients that never upload at
        all are an ``AdversaryPlan(free_riders=...)``: under credit-limited
        barter they exhaust their ``s``-per-neighbor credit and starve —
        the incentive loophole of Section 3.2.1.
    **options:
        The kernel's run options (``model``, ``rng``, ``max_ticks``,
        ``keep_log``, ``faults``, ``recovery``, ``backend`` and the
        scenario axes), documented once on
        :class:`~repro.sim.kernel.TickKernel`. The array backend runs
        clean cooperative complete-graph ticks vectorized, every other
        tick on the scalar path, with byte-identical results.
    """

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | DynamicOverlay | None = None,
        policy: BlockPolicy | None = None,
        mechanism: Mechanism | None = None,
        *,
        throttle: dict[int, float] | None = None,
        **options,
    ) -> None:
        self.n, self.k = n, k
        self.policy = policy or RandomPolicy()
        self.mechanism = mechanism or Cooperative()
        self.mechanism.reset()

        dynamic = overlay if isinstance(overlay, DynamicOverlay) else None
        if dynamic is not None:
            graph: Graph = dynamic.at_tick(1)
        else:
            graph = overlay if overlay is not None else CompleteGraph(n)
        if graph.n != n:
            raise ConfigError(
                f"overlay has {graph.n} nodes but the swarm has {n}"
            )

        for node, p in (throttle or {}).items():
            if node == SERVER or not 1 <= node < n:
                raise ConfigError(f"throttle for invalid client {node}")
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"throttle probability must be in [0, 1], got {p}")
        # Zero entries are dropped so an all-zero throttle is bit-for-bit
        # identical to no throttle (no RNG draws are spent on it).
        self.throttle = {node: p for node, p in (throttle or {}).items() if p > 0}

        self.tick_policy = RandomizedTickPolicy(
            self.policy,
            self.mechanism,
            throttle=self.throttle,
            graph=graph,
            dynamic=dynamic,
        )
        credit = (
            self.mechanism if isinstance(self.mechanism, CreditLimitedBarter) else None
        )
        self.kernel = TickKernel(n, k, self.tick_policy, credit=credit, **options)

    def run(self, progress: Callable[[int, int], None] | None = None) -> RunResult:
        """Run until every client completes or ``max_ticks`` elapse.

        ``progress`` (optional) is called as ``progress(tick, transfers)``
        after each tick. A run can also end on a proven deadlock (the
        paper's "off the charts" barter runs) or, under fault injection,
        on stall detection — see :attr:`~repro.core.log.RunResult.abort`.
        """
        return self.kernel.run(progress)
