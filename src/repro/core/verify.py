"""Independent verification of transfer logs.

Every algorithm in this library produces a :class:`~repro.core.log.TransferLog`.
This module re-executes a log from scratch against the bandwidth model and a
mechanism, checking every rule of the paper's data-transfer model
(Section 2.1) plus the mechanism's constraints (Section 3). It shares no
code with the engines that *produced* the log, so a bug in an engine cannot
hide itself.

Checked rules:

* **causality** — a sender must have held the block at the *start* of the
  tick (a block received during tick ``t`` is only forwardable at ``t+1``);
* **usefulness** — the receiver must not already hold the block (the paper's
  transfers are always of needed blocks; redundant sends can optionally be
  tolerated and counted instead);
* **upload capacity** — at most ``u = 1`` block per node per tick
  (``server_upload`` for the server);
* **download capacity** — at most ``d`` blocks per node per tick;
* **no self-transfers**, and optionally **overlay confinement** — transfers
  only along edges of a given overlay network;
* the **mechanism** per-tick constraints (strict / credit-limited /
  triangular barter).

Failed attempts (:mod:`repro.faults`) are replayed under the same rules:
a failed send must still have been *legal* when attempted — the sender
held the block at tick start, the receiver lacked it, the link is an
overlay edge — and it consumes upload capacity, download capacity and
barter credit exactly like a delivery. Only the delivery itself is
skipped: a failed transfer never updates the receiver's holdings.

Adversarial rows (:mod:`repro.adversary`) replay the same way: a
``polluted`` row (a corrupted block, caught by integrity verification)
obeys every static rule and consumes capacity and credit but never sets
a mask bit — so a log tampered to count pollution as progress surfaces
as a usefulness or completion violation; a ``phantom`` row (a liar
serving a block it never held) is additionally exempt from the
causality and usefulness checks, since the advertisement itself was the
lie. With ``strike_threshold=`` the verifier independently replays the
strike-based blacklist: each polluted/phantom row is a strike against
its ``(src, dst)`` pair, the threshold-th strike bans the pair from that
tick on, and *any* row on a banned pair at a strictly later tick is a
``blacklist`` violation (same-tick rows are tolerated — within a tick
the log carries no ordering).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

from .blocks import full_mask
from .errors import ScheduleViolation
from .log import STREAMS, Transfer, TransferLog
from .mechanisms import Cooperative, Mechanism
from .model import SERVER, BandwidthModel

__all__ = ["VerificationReport", "verify_log"]


@dataclass(slots=True)
class VerificationReport:
    """Statistics gathered during a successful verification pass."""

    n: int
    k: int
    ticks: int
    transfers: int
    redundant_transfers: int
    server_uploads: int
    client_uploads: int
    peak_downloads_per_tick: int
    all_complete: bool
    busy_ticks: int = 0
    upload_efficiency: float = 0.0
    failed_transfers: int = 0
    polluted_transfers: int = 0
    phantom_transfers: int = 0
    extras: dict[str, object] = field(default_factory=dict)

    @property
    def attempted_transfers(self) -> int:
        """Deliveries plus failed, polluted and phantom attempts."""
        return (
            self.transfers
            + self.failed_transfers
            + self.polluted_transfers
            + self.phantom_transfers
        )

    @property
    def wasted_upload_fraction(self) -> float:
        """Fraction of attempted uploads that delivered nothing."""
        attempts = self.attempted_transfers
        wasted = attempts - self.transfers
        return wasted / attempts if attempts else 0.0


def verify_log(
    log: TransferLog,
    n: int,
    k: int,
    model: BandwidthModel | None = None,
    mechanism: Mechanism | None = None,
    *,
    overlay=None,
    require_completion: bool = True,
    allow_redundant: bool = False,
    crash_events=None,
    rejoin_events=None,
    strike_threshold: int | None = None,
) -> VerificationReport:
    """Replay ``log`` and check every model rule; see module docstring.

    Parameters
    ----------
    overlay:
        Optional object with a ``has_edge(a, b)`` method (any
        :class:`repro.overlays.Graph`); when given, every transfer must run
        along one of its edges.
    require_completion:
        When True (default), every client must hold all ``k`` blocks after
        the log; partial logs can be verified with False.
    allow_redundant:
        When True, a transfer of a block the receiver already holds is
        counted (``redundant_transfers``) rather than fatal.
    crash_events, rejoin_events:
        Fault-injection event histories (``meta["crash_events"]`` /
        ``meta["rejoin_events"]`` of a faulted run): ``(tick, node)``
        crashes zero the node's holdings at the start of that tick, and
        ``(tick, node, retained)`` rejoins restore exactly the retained
        mask (an int; a list of retained GF(2) basis rows is reduced to
        its pivot-block mask). Without them, a crash run's re-deliveries
        would
        read as usefulness violations (the verifier would believe the
        receiver still held the lost blocks).
    strike_threshold:
        When set (a positive int, the plan's ``strike_threshold``), the
        strike-based blacklist is replayed independently: polluted and
        phantom rows accrue strikes per ``(src, dst)`` pair, the
        threshold-th strike bans the pair, and any later-tick row on a
        banned pair raises a ``blacklist`` violation.

    Raises
    ------
    ScheduleViolation
        On the first rule breach encountered, in tick order.
    """
    model = model or BandwidthModel.symmetric()
    mechanism = mechanism or Cooperative()
    mechanism.reset()

    masks = [0] * n
    masks[SERVER] = full_mask(k)

    # Crash/rejoin events, merged in application order: within a tick the
    # engines apply rejoins before drawing crashes.
    events: list[tuple[int, int, int, int]] = [
        (int(e[0]), 0, int(e[1]), _retained_mask(e[2]))
        for e in (rejoin_events or ())
    ] + [(int(e[0]), 1, int(e[1]), 0) for e in (crash_events or ())]
    events.sort()
    next_event = 0

    redundant = 0
    server_uploads = 0
    peak_downloads = 0
    busy_ticks = 0

    # Independent blacklist replay (strike_threshold): strikes accrued
    # from adversarial rows in tick order; a banned pair must never
    # appear again at a strictly later tick, in any stream.
    strikes: Counter[tuple[int, int]] = Counter()
    banned: dict[tuple[int, int], int] = {}
    for tick, transfers, failures, polluted, phantoms in _tick_groups(log):
        while next_event < len(events) and events[next_event][0] <= tick:
            _, kind, node, mask = events[next_event]
            masks[node] = mask if kind == 0 else 0
            next_event += 1
        tick_downloads = _check_tick(
            tick,
            transfers,
            failures,
            polluted,
            phantoms,
            masks,
            n=n,
            k=k,
            model=model,
            overlay=overlay,
            allow_redundant=allow_redundant,
        )
        if strike_threshold:
            for t in (*transfers, *failures, *polluted, *phantoms):
                ban_tick = banned.get((t.src, t.dst))
                if ban_tick is not None and tick > ban_tick:
                    raise ScheduleViolation(
                        f"node {t.src} serves {t.dst} at tick {tick} "
                        f"despite being blacklisted at tick {ban_tick}",
                        tick=tick,
                        rule="blacklist",
                    )
            for t in (*polluted, *phantoms):
                pair = (t.src, t.dst)
                strikes[pair] += 1
                if strikes[pair] == strike_threshold and pair not in banned:
                    banned[pair] = tick
        # A failed send consumed barter credit like any other — and so do
        # polluted and phantom ones: mechanisms judge the tick's
        # *attempts* (the exchange engine's paired swaps stay symmetric
        # even when one direction is lost or spoiled in transit).
        mechanism.check_tick(
            tick,
            [
                t
                for t in (*transfers, *failures, *polluted, *phantoms)
                if t.src != SERVER and t.dst != SERVER
            ],
        )
        # Apply receipts only after the whole tick is validated (synchrony);
        # failed, polluted and phantom attempts deliver nothing — polluted
        # blocks never count toward completion.
        for _, src, dst, block in transfers:
            if masks[dst] >> block & 1:
                redundant += 1
            masks[dst] |= 1 << block
            if src == SERVER:
                server_uploads += 1
        peak_downloads = max(peak_downloads, tick_downloads)
        busy_ticks += 1

    # Events after the last active tick still count (a late fail-stop
    # crash zeroes its node), and a node whose *last* event is a crash is
    # out of the swarm — it is excused from the completion requirement.
    for _, kind, node, mask in events[next_event:]:
        masks[node] = mask if kind == 0 else 0
    gone: set[int] = set()
    for _, kind, node, _ in events:
        if kind == 1:
            gone.add(node)
        else:
            gone.discard(node)

    full = full_mask(k)
    all_complete = all(masks[c] == full for c in range(1, n) if c not in gone)
    if require_completion and not all_complete:
        unfinished = [c for c in range(1, n) if masks[c] != full and c not in gone]
        raise ScheduleViolation(
            f"{len(unfinished)} client(s) never completed "
            f"(first few: {unfinished[:5]})",
            rule="completion",
        )

    total = len(log)
    ticks = log.last_attempt_tick
    # Upload efficiency: achieved transfers relative to the ceiling of each
    # node's upload capacity per tick over the run (the paper's "fraction of
    # nodes that upload data in each step"; per-node capacities generalise
    # the uniform n - 1 + server_upload ceiling).
    capacity = ticks * (
        sum(model.upload_capacity(v) for v in range(1, n)) + model.server_upload
    )
    efficiency = total / capacity if capacity else 0.0

    return VerificationReport(
        n=n,
        k=k,
        ticks=ticks,
        transfers=total,
        redundant_transfers=redundant,
        server_uploads=server_uploads,
        client_uploads=total - server_uploads,
        peak_downloads_per_tick=peak_downloads,
        all_complete=all_complete,
        busy_ticks=busy_ticks,
        upload_efficiency=efficiency,
        failed_transfers=log.failed_count,
        polluted_transfers=log.polluted_count,
        phantom_transfers=log.phantom_count,
        extras={"bans_replayed": len(banned)} if strike_threshold else {},
    )


_Rows = list[Transfer]


def _tick_groups(log: TransferLog) -> Iterator[tuple[int, _Rows, _Rows, _Rows, _Rows]]:
    """Merge the log's four per-stream tick groups, in tick order.

    Yields ``(tick, transfers, failures, polluted, phantoms)`` for every
    tick active in any stream; a stream idle at that tick contributes an
    empty list. Each stream is walked lazily, one tick at a time, so the
    replay never holds the whole log as rows.
    """
    streams = [log.groups(name) for name in STREAMS]
    heads = [next(groups, None) for groups in streams]
    while True:
        tick = min((head[0] for head in heads if head is not None), default=None)
        if tick is None:
            return
        rows = []
        for i, head in enumerate(heads):
            if head is not None and head[0] == tick:
                rows.append(head[1])
                heads[i] = next(streams[i], None)
            else:
                rows.append([])
        yield (tick, *rows)


def _retained_mask(retained) -> int:
    """Block mask a rejoin event's retained payload amounts to.

    Mask engines record an int and it passes through unchanged. The
    coding engine records its retained GF(2) basis rows (a list/tuple of
    int-coded vectors); block-level replay conservatively credits the
    rejoined node with the *pivot* blocks of those rows — the blocks its
    truncated basis can still express alone — which is exactly the mask
    :class:`repro.coding.gf2.Gf2Basis` rebuilt from the rows reports.
    Full row-level replay of coding logs lives in
    :func:`repro.coding.verify.verify_coding_log`.
    """
    if isinstance(retained, (list, tuple)):
        mask = 0
        for row in retained:
            row = int(row)
            if row:
                mask |= 1 << (row.bit_length() - 1)
        return mask
    return int(retained)


def _check_tick(
    tick: int,
    transfers: list[Transfer],
    failures: list[Transfer],
    polluted: list[Transfer],
    phantoms: list[Transfer],
    masks: list[int],
    *,
    n: int,
    k: int,
    model: BandwidthModel,
    overlay,
    allow_redundant: bool,
) -> int:
    """Check one tick's static rules; return its peak per-node downloads."""
    uploads: Counter[int] = Counter()
    downloads: Counter[int] = Counter()
    incoming_blocks: set[tuple[int, int]] = set()

    # Failed attempts obey every static rule and consume capacity, but are
    # exempt from the duplicate-delivery check: a failed send followed by a
    # successful (or another failed) send of the same block to the same
    # receiver within one tick is legal — nothing arrived the first time.
    # Polluted rows replay like failures (the polluter genuinely held the
    # block and the receiver genuinely lacked it; the *content* was bad);
    # phantom rows are additionally exempt from causality and usefulness —
    # the advertisement itself was the lie, so no holding is implied.
    for attempt_failed, phantom, rows in (
        (False, False, transfers),
        (True, False, failures),
        (True, False, polluted),
        (True, True, phantoms),
    ):
        for t in rows:
            _, src, dst, block = t
            if not (0 <= src < n and 0 <= dst < n):
                raise ScheduleViolation(
                    f"transfer {t} references a node outside 0..{n - 1}",
                    tick=tick,
                    rule="node-range",
                )
            if src == dst:
                raise ScheduleViolation(
                    f"node {src} transfers to itself", tick=tick, rule="self-transfer"
                )
            if not 0 <= block < k:
                raise ScheduleViolation(
                    f"block {block} outside 0..{k - 1}", tick=tick, rule="block-range"
                )
            if overlay is not None and not overlay.has_edge(src, dst):
                raise ScheduleViolation(
                    f"transfer {src} -> {dst} is not an overlay edge",
                    tick=tick,
                    rule="overlay",
                )
            if not phantom and not masks[src] >> block & 1:
                raise ScheduleViolation(
                    f"node {src} sends block {block} it does not hold at "
                    f"tick start",
                    tick=tick,
                    rule="causality",
                )
            if not phantom and masks[dst] >> block & 1 and not allow_redundant:
                raise ScheduleViolation(
                    f"node {dst} already holds block {block} sent by {src}",
                    tick=tick,
                    rule="usefulness",
                )
            if not attempt_failed:
                if (dst, block) in incoming_blocks and not allow_redundant:
                    raise ScheduleViolation(
                        f"node {dst} receives block {block} twice in one tick",
                        tick=tick,
                        rule="usefulness",
                    )
                incoming_blocks.add((dst, block))
            uploads[src] += 1
            downloads[dst] += 1

    for node, count in uploads.items():
        cap = model.upload_capacity(node)
        if count > cap:
            raise ScheduleViolation(
                f"node {node} uploads {count} blocks in one tick (capacity {cap})",
                tick=tick,
                rule="upload-capacity",
            )
    if not model.unbounded_download:
        for node, count in downloads.items():
            cap = model.download_capacity(node)
            if cap is not None and count > cap:
                raise ScheduleViolation(
                    f"node {node} downloads {count} blocks in one tick "
                    f"(capacity {cap})",
                    tick=tick,
                    rule="download-capacity",
                )
    return max(downloads.values(), default=0)
