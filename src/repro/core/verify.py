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

Two paths check the same rules:

* the **scalar replay** (:func:`_replay`) walks the log tick by tick with
  a Python bitmask per node. It is the reference: it names the first
  violation in tick order, and it is the only path for crash/rejoin
  events, ``strike_threshold``, ``overlay`` and every mechanism other
  than :class:`Cooperative` and :class:`StrictBarter` (credit-limited,
  triangular, subclasses);
* the **proof** (:func:`_prove`) covers the rest. Without crash or
  rejoin events holdings only grow, so each rule is a whole-array test
  over :meth:`TransferLog.windows`: tick-aligned windows of a quarter
  chunk, checked against a bool "held before this window" matrix, with the
  window's own first receipts resolved from its sorted ``(dst, block)``
  keys, and per-node counts taken over sorted ``(tick, node)`` keys.

The proof only ever *accepts*: it returns the same
:class:`VerificationReport` the replay would, or nothing, and then
:func:`verify_log` runs the replay, which raises the exact
:class:`ScheduleViolation` (rule, tick and message) a violation earns.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .blocks import full_mask
from .errors import ScheduleViolation
from .log import CHUNK_ROWS, STREAMS, Transfer, TransferLog
from .mechanisms import Cooperative, Mechanism, StrictBarter
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

    A log with no crash/rejoin events, strike threshold or overlay,
    under :class:`Cooperative` or :class:`StrictBarter` exactly, is first
    checked by the whole-array proof; anything the proof does not accept
    goes to the scalar replay, which raises or returns the same report.
    """
    model = model or BandwidthModel.symmetric()
    mechanism = mechanism or Cooperative()
    if _provable(mechanism, overlay, crash_events, rejoin_events, strike_threshold):
        report = _prove(
            log,
            n,
            k,
            model,
            strict=type(mechanism) is StrictBarter,
            require_completion=require_completion,
            allow_redundant=allow_redundant,
        )
        if report is not None:
            return report
    return _replay(
        log,
        n,
        k,
        model,
        mechanism,
        overlay=overlay,
        require_completion=require_completion,
        allow_redundant=allow_redundant,
        crash_events=crash_events,
        rejoin_events=rejoin_events,
        strike_threshold=strike_threshold,
    )


def _provable(mechanism, overlay, crash_events, rejoin_events, strike_threshold) -> bool:
    """Whether :func:`verify_log`'s arguments admit the whole-array proof:
    no overlay, crash/rejoin events or strike threshold, and exactly
    :class:`Cooperative` or :class:`StrictBarter` (a subclass may add
    rules the proof does not know)."""
    return (
        type(mechanism) in (Cooperative, StrictBarter)
        and overlay is None
        and not (crash_events or rejoin_events or strike_threshold)
    )


def _replay(
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
    """The scalar replay: :func:`verify_log`'s reference path, which
    takes the same arguments and walks the log one tick at a time."""
    model = model or BandwidthModel.symmetric()
    mechanism = mechanism or Cooperative()
    mechanism.reset()
    upload_caps, download_caps = _capacities(model, n)

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
            upload_caps=upload_caps,
            download_caps=download_caps,
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

    return _report(
        log,
        n,
        k,
        model,
        upload_caps,
        redundant=redundant,
        server_uploads=server_uploads,
        peak_downloads=peak_downloads,
        all_complete=all_complete,
        busy_ticks=busy_ticks,
        extras={"bans_replayed": len(banned)} if strike_threshold else {},
    )


def _capacities(model: BandwidthModel, n: int) -> tuple[list[int], list | None]:
    """Every node's upload capacity, and download capacity (``None`` for
    a model with unbounded downloads), read from ``model`` once."""
    uploads = [model.upload_capacity(v) for v in range(n)]
    if model.unbounded_download:
        return uploads, None
    return uploads, [model.download_capacity(v) for v in range(n)]


def _report(
    log: TransferLog,
    n: int,
    k: int,
    model: BandwidthModel,
    upload_caps: list[int],
    *,
    redundant: int,
    server_uploads: int,
    peak_downloads: int,
    all_complete: bool,
    busy_ticks: int,
    extras: dict[str, object],
) -> VerificationReport:
    """The report both paths return for a log they accept."""
    total = len(log)
    ticks = log.last_attempt_tick
    # Upload efficiency: achieved transfers relative to the ceiling of each
    # node's upload capacity per tick over the run (the paper's "fraction of
    # nodes that upload data in each step"; per-node capacities generalise
    # the uniform n - 1 + server_upload ceiling).
    capacity = ticks * (sum(upload_caps[1:]) + model.server_upload)
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
        extras=extras,
    )


#: Rows per stream in one proof window (plus the rest of its last tick):
#: a quarter chunk keeps the window's keys and sort buffers small.
_WINDOW_ROWS = CHUNK_ROWS // 4

#: Stands in for an unbounded per-node download capacity.
_UNCAPPED = np.iinfo(np.int64).max


def _prove(
    log: TransferLog,
    n: int,
    k: int,
    model: BandwidthModel,
    *,
    strict: bool,
    require_completion: bool,
    allow_redundant: bool,
) -> VerificationReport | None:
    """Check an event-free log with whole-array tests, window by window.

    Returns the report the scalar replay would return, or ``None`` when
    any rule fails (the caller then replays the log to name the
    violation). ``strict`` adds StrictBarter's pairwise symmetry.

    State is ``held``, an n×k bool matrix of the blocks each node held
    before the current window (the server's row all set). Inside a
    window a node holds a block at the start of tick ``t`` when ``held``
    says so or the window delivered it before ``t``; the window's first
    receipt per ``(dst, block)`` key comes from its sorted deliveries.
    """
    upload_caps, download_caps = _capacities(model, n)
    up = np.array(upload_caps, np.int64)
    down = None
    if download_caps is not None:
        down = np.array(
            [_UNCAPPED if cap is None else cap for cap in download_caps], np.int64
        )
    held = np.zeros(n * k, bool)
    held[:k] = True  # the server's row
    redundant = server_uploads = peak_downloads = busy_ticks = 0

    for window in log.windows(_WINDOW_ROWS):
        tick, src, dst, block = (_join(cols) for cols in zip(*window))
        delivered = window[0][0].size
        attempted = tick.size - window[3][0].size  # every row but phantoms
        first = int(tick.min())
        span = int(tick.max()) - first + 1
        if (
            src.min() < 0
            or src.max() >= n
            or dst.min() < 0
            or dst.max() >= n
            or block.min() < 0
            or block.max() >= k
            or (src == dst).any()
            or n * max(n, k) * span >= 2**62  # the keys below fit int64
        ):
            return None
        # Every key below is at most n * max(n, k) * span.
        wide = np.int32 if n * max(n, k) * span < 2**31 else np.int64
        rel = tick - first

        # The window's deliveries sorted by (dst, block, tick): each key's
        # first run entry carries its first receipt tick.
        receipts = _keys(dst[:delivered], block[:delivered], k, wide)
        receipts *= span
        receipts += rel[:delivered]
        receipts.sort()
        keys = receipts // span
        fresh = _run_bounds(keys)[:-1]
        keys = keys[fresh]
        key_ticks = receipts[fresh] - keys * span
        del receipts
        if not allow_redundant and (keys.size < delivered or held[keys].any()):
            return None  # a key delivered twice, or to a node holding it

        # Causality for deliveries, failures and polluted rows; usefulness
        # for failures and polluted rows (deliveries were checked above).
        rows = slice(None, attempted)
        sent = _keys(src[rows], block[rows], k, wide)
        if not _held(sent, rel[rows], held, keys, key_ticks).all():
            return None
        if not allow_redundant and attempted > delivered:
            rows = slice(delivered, attempted)
            wanted = _keys(dst[rows], block[rows], k, wide)
            if _held(wanted, rel[rows], held, keys, key_ticks).any():
                return None

        # Capacity: rows per (tick, node) over all four streams.
        slots = rel.astype(wide) * n
        counts, nodes, runs = _counts(slots + src, n)
        if (counts > up[nodes]).any():
            return None
        busy_ticks += int(np.count_nonzero(runs[1:] // n != runs[:-1] // n)) + 1
        counts, nodes, _ = _counts(slots + dst, n)
        if down is not None and (counts > down[nodes]).any():
            return None
        peak_downloads = max(peak_downloads, int(counts.max()))
        del slots

        if strict and not _barter_balanced(rel, src, dst, n, wide):
            return None

        if allow_redundant:
            redundant += delivered - int(np.count_nonzero(~held[keys]))
        held[keys] = True
        server_uploads += int(np.count_nonzero(src[:delivered] == SERVER))

    all_complete = bool(held[k:].all())
    if require_completion and not all_complete:
        return None
    return _report(
        log,
        n,
        k,
        model,
        upload_caps,
        redundant=redundant,
        server_uploads=server_uploads,
        peak_downloads=peak_downloads,
        all_complete=all_complete,
        busy_ticks=busy_ticks,
        extras={},
    )


def _keys(major: np.ndarray, minor, size: int, dtype) -> np.ndarray:
    """``major * size + minor`` as a new ``dtype`` array."""
    keys = major.astype(dtype)
    keys *= size
    keys += minor
    return keys


def _join(columns: tuple[np.ndarray, ...]) -> np.ndarray:
    """One column of a window, its four streams end to end in
    :data:`STREAMS` order (no copy when only one stream has rows)."""
    live = [col for col in columns if col.size]
    return live[0] if len(live) == 1 else np.concatenate(columns)


def _held(
    keys: np.ndarray,
    ticks: np.ndarray,
    held: np.ndarray,
    receipts: np.ndarray,
    receipt_ticks: np.ndarray,
) -> np.ndarray:
    """Whether each ``node * k + block`` key is held at the start of its
    window-relative tick: held before the window, or first received in
    it (sorted ``receipts``, at ``receipt_ticks``) at an earlier tick."""
    have = held[keys]
    late = np.flatnonzero(~have)
    if late.size and receipts.size:
        at = np.minimum(np.searchsorted(receipts, keys[late]), receipts.size - 1)
        have[late] = (receipts[at] == keys[late]) & (receipt_ticks[at] < ticks[late])
    return have


def _run_bounds(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values in sorted ``keys`` starts, then
    ``keys.size``."""
    change = np.ones(keys.size + 1, bool)
    np.not_equal(keys[1:], keys[:-1], out=change[1:-1])
    return np.flatnonzero(change)


def _counts(slots: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``tick * n + node`` keys in place; return each distinct key's
    count, its node and the distinct keys."""
    slots.sort()
    bounds = _run_bounds(slots)
    runs = slots[bounds[:-1]]
    return np.diff(bounds), runs % n, runs


def _barter_balanced(
    ticks: np.ndarray, src: np.ndarray, dst: np.ndarray, n: int, dtype
) -> bool:
    """StrictBarter's rule: per tick, every client pair sends as many
    blocks one way as the other (server rows exempt) — the sorted
    ``(tick, lo, hi)`` keys of the rows sent upwards equal those of the
    rows sent downwards."""
    clients = (src != SERVER) & (dst != SERVER)
    upward, downward = clients & (src < dst), clients & (src > dst)
    lo_hi = []
    for rows, lo, hi in ((upward, src, dst), (downward, dst, src)):
        keys = _keys(ticks[rows], lo[rows], n, dtype)
        keys *= n
        keys += hi[rows]
        keys.sort()
        lo_hi.append(keys)
    return np.array_equal(*lo_hi)


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
    upload_caps: list[int],
    download_caps: list | None,
    overlay,
    allow_redundant: bool,
) -> int:
    """Check one tick's static rules; return its peak per-node downloads.

    ``download_caps`` is ``None`` when downloads are unbounded. Counts
    are plain dicts in row order, so the first node over its capacity
    is the first one reported.
    """
    uploads: dict[int, int] = {}
    downloads: dict[int, int] = {}
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
            uploads[src] = uploads.get(src, 0) + 1
            downloads[dst] = downloads.get(dst, 0) + 1

    for node, count in uploads.items():
        cap = upload_caps[node]
        if count > cap:
            raise ScheduleViolation(
                f"node {node} uploads {count} blocks in one tick (capacity {cap})",
                tick=tick,
                rule="upload-capacity",
            )
    if download_caps is not None:
        for node, count in downloads.items():
            cap = download_caps[node]
            if cap is not None and count > cap:
                raise ScheduleViolation(
                    f"node {node} downloads {count} blocks in one tick "
                    f"(capacity {cap})",
                    tick=tick,
                    rule="download-capacity",
                )
    return max(downloads.values(), default=0)
