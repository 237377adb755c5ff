"""Transfer logs: the ground-truth record of what a run did.

Every engine in this library — deterministic schedule executors and the
randomized simulators alike — emits a :class:`TransferLog`: the list of
``(tick, src, dst, block)`` transfers that actually happened. The log is
what the independent verifier checks, what completion times are computed
from, and what the efficiency analysis ("amortization") consumes.

Each stream is stored as int32 columns (tick, src, dst, block) rather
than one Python tuple per row: a million-row log costs ~17 MB instead of
~130 MB, is invisible to the cyclic garbage collector, and pickles as raw
byte buffers. :class:`Transfer` rows are built lazily when read, and
:meth:`TransferLog.groups` walks a stream one tick at a time, so a
verifier pass never rebuilds the whole log as tuples.

The columns are kept in fixed-size chunks of :data:`CHUNK_ROWS` rows
(32 KB a column): once the live chunk is full it is sealed and a new one
started. No column is ever reallocated past 32 KB, so a process that
runs many long simulations one after another reuses freed chunks
instead of fragmenting its heap with ever larger buffers. Readers walk
the chunks in row order (:meth:`TransferLog.groups`,
:meth:`TransferLog.windows`, :meth:`TransferLog.completion_ticks`,
:meth:`TransferLog.as_lists`);
:meth:`TransferLog.columns` concatenates them, a copy once a stream
spans more than one chunk.

Failed transfers (:mod:`repro.faults`) are first-class records: a failed
send consumed the tick's upload and download bandwidth — and, under a
barter mechanism, credit — but delivered nothing. They are kept in a
separate stream (``failures``) so every historical accessor
(``by_tick``, ``uploads_per_tick``, ``completion_ticks`` ...) still
describes *delivered* blocks only and fault-free logs are bit-identical
to what they always were.

Adversarial deliveries (:mod:`repro.adversary`) follow the same design
with two more streams: ``polluted`` records corrupted blocks the
receiver's integrity check rejected, ``phantoms`` records advertised
blocks a liar never actually sent. Both consumed the attempt's bandwidth
(and credit) like a failure, both deliver nothing, and neither ever
counts toward completion — which the independent verifier re-checks.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .model import SERVER

__all__ = ["STREAMS", "Transfer", "TransferLog", "RunResult"]


class Transfer(NamedTuple):
    """One block moving from ``src`` to ``dst`` during ``tick`` (1-based)."""

    tick: int
    src: int
    dst: int
    block: int


#: The log's four streams, in the order every multi-stream API takes them.
STREAMS = ("transfers", "failures", "polluted", "phantoms")

_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1

#: Rows per sealed column chunk: 8,192 int32 values, 32 KB a column.
#: Measured on glibc, 64 KB columns still let the heap grow by ~20% from
#: the first 600k-row log built in a process to the third; 32 KB does
#: not.
CHUNK_ROWS = 1 << 13


def _as_transfers(rows: Iterable[tuple[int, int, int, int]]) -> Iterator[Transfer]:
    """Retype 4-tuples as :class:`Transfer` rows, in C (no Python-level
    ``__new__`` per row): the lazy row view of the columns."""
    return map(tuple.__new__, repeat(Transfer), rows)


class _Stream:
    """One stream of a :class:`TransferLog`: int32 columns in chunks.

    Rows land in four live columns (tick, src, dst, block). Every
    :data:`CHUNK_ROWS` rows the live columns are sealed into
    ``sealed`` and fresh ones started, so no column outgrows 32 KB and
    a long run never reallocates one large buffer.
    """

    __slots__ = ("name", "label", "tick", "src", "dst", "block", "last", "sealed")

    def __init__(self, name: str, label: str) -> None:
        self.name = name
        #: How tick-order errors name the stream.
        self.label = label
        self.tick = array("i")
        self.src = array("i")
        self.dst = array("i")
        self.block = array("i")
        self.last = 0
        #: Full chunks (``CHUNK_ROWS`` rows each), oldest first.
        self.sealed: list[tuple[array, array, array, array]] = []

    def __len__(self) -> int:
        return len(self.sealed) * CHUNK_ROWS + len(self.block)

    def cols(self) -> tuple[array, array, array, array]:
        """The live chunk's columns."""
        return self.tick, self.src, self.dst, self.block

    def chunks(self) -> list[tuple[array, array, array, array]]:
        """Every chunk's columns in row order, the live chunk last."""
        return [*self.sealed, self.cols()]

    def seal(self) -> None:
        self.sealed.append(self.cols())
        self.tick, self.src, self.dst, self.block = (
            array("i"), array("i"), array("i"), array("i")
        )

    def check_first_tick(self, tick: int) -> None:
        if tick < 1:
            raise ConfigError(f"ticks are 1-based, got {tick}")
        if tick < self.last:
            raise ConfigError(
                f"{self.label} must be appended in tick order "
                f"({tick} after {self.last})"
            )

    def add(self, tick: int, src: int, dst: int, block: int) -> None:
        if tick < self.last or tick < 1:
            self.check_first_tick(tick)
        if len(self.block) >= CHUNK_ROWS:
            self.seal()
        try:
            self.tick.append(tick)
            self.src.append(src)
            self.dst.append(dst)
            self.block.append(block)
        except (OverflowError, TypeError, BufferError):
            self._add_slow((tick, src, dst, block))
        self.last = tick

    def _add_slow(self, row: tuple) -> None:
        """Undo a partial append, then reject the row or unshare and retry."""
        self.rollback()
        self.check_values(row)
        self.unshare()
        for col, value in zip(self.cols(), row):
            col.append(value)

    def rollback(self) -> None:
        """Trim the live columns that took a row the last column did not.

        Sealed chunks are never appended to, so only the live chunk can
        hold a partial row.
        """
        size = len(self.block)  # columns grow in order; block is last
        for col in self.cols():
            if len(col) > size:
                del col[size:]

    def check_values(self, values: Iterable) -> None:
        """Raise :class:`ConfigError` on the first value no int32 holds."""
        for value in values:
            try:
                fits = _INT32_MIN <= operator.index(value) <= _INT32_MAX
            except TypeError:
                fits = False
            if not fits:
                raise ConfigError(
                    f"{self.name} row value {value!r} does not fit the "
                    f"log's int32 columns"
                )

    def unshare(self) -> None:
        """Copy any live column a :meth:`TransferLog.columns` view still
        holds.

        An ``array`` cannot grow while a buffer export is alive; the view
        keeps the old copy as a snapshot and the stream appends to a
        fresh one. Sealed chunks never grow and are never copied.
        """
        self.tick, self.src, self.dst, self.block = (
            array("i", col) for col in self.cols()
        )

    def extend(self, rows) -> None:
        if not len(rows):
            return
        table = np.asarray(rows)
        if table.ndim != 2 or table.shape[1] != 4:
            raise ConfigError(
                f"{self.name} batch must be (tick, src, dst, block) rows, "
                f"got shape {table.shape}"
            )
        if table.dtype.kind not in "biu" or (
            table.size
            and (int(table.min()) < _INT32_MIN or int(table.max()) > _INT32_MAX)
        ):
            self.check_values(value for row in rows for value in row)
        table = table.astype(np.int32)
        ticks = table[:, 0]
        self.check_first_tick(int(ticks[0]))
        if ticks.size > 1 and (ticks[1:] < ticks[:-1]).any():
            raise ConfigError(f"{self.label} batch rows are not in tick order")
        table = np.ascontiguousarray(table.T)
        start, stop = 0, table.shape[1]
        while start < stop:
            if len(self.block) >= CHUNK_ROWS:
                self.seal()
            end = min(stop, start + CHUNK_ROWS - len(self.block))
            self._append_piece(table[:, start:end])
            start = end
        self.last = int(ticks[-1])

    def _append_piece(self, piece: np.ndarray) -> None:
        """Append a ``(4, m)`` int32 block that fits the live chunk."""
        columns = [memoryview(col).cast("B") for col in piece]
        try:
            for col, values in zip(self.cols(), columns):
                col.frombytes(values)
        except BufferError:
            self.rollback()
            self.unshare()
            for col, values in zip(self.cols(), columns):
                col.frombytes(values)

    def __iter__(self) -> Iterator[Transfer]:
        return _as_transfers(
            chain.from_iterable(zip(*cols) for cols in self.chunks())
        )

    def row(self, i: int) -> Transfer:
        size = len(self)
        i = operator.index(i)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"{self.name} index out of range")
        chunk, j = divmod(i, CHUNK_ROWS)
        cols = self.sealed[chunk] if chunk < len(self.sealed) else self.cols()
        return Transfer(*(col[j] for col in cols))

    def groups(self) -> Iterator[tuple[int, list[Transfer]]]:
        """``(tick, rows)`` per active tick, chunk by chunk; a tick that
        straddles a seal is merged into one group."""
        tick = rows = None
        for cols in self.chunks():
            size = len(cols[3])
            if not size:
                continue
            ticks = np.frombuffer(cols[0], np.int32)
            ends = (np.flatnonzero(ticks[1:] != ticks[:-1]) + 1).tolist()
            del ticks  # release the buffer export before yielding
            ends.append(size)
            start = 0
            for end in ends:
                chunk_rows = _chunk_rows(cols, start, end)
                if cols[0][start] == tick:
                    rows.extend(chunk_rows)
                else:
                    if rows is not None:
                        yield tick, rows
                    tick, rows = cols[0][start], chunk_rows
                start = end
        if rows is not None:
            yield tick, rows

    def checked_chunks(
        self, n: int, k: int
    ) -> Iterator[tuple[array, np.ndarray, np.ndarray]]:
        """``(tick, dst, block)`` columns of each non-empty chunk, each
        row's destination checked against ``0..n-1`` and block against
        ``0..k-1`` (:class:`ConfigError` on the first that is not).

        ``dst`` and ``block`` are int32 views of the chunk, no copy.
        """
        for tick, _, dst, block in self.chunks():
            if not block:
                continue
            dst, block = np.frombuffer(dst, np.int32), np.frombuffer(block, np.int32)
            if dst.min() < 0 or dst.max() >= n or block.min() < 0 or block.max() >= k:
                i = int(np.argmax((dst < 0) | (dst >= n) | (block < 0) | (block >= k)))
                if not 0 <= dst[i] < n:
                    raise ConfigError(
                        f"transfer destination {dst[i]} outside 0..{n - 1}"
                    )
                raise ConfigError(f"transfer block {block[i]} outside 0..{k - 1}")
            yield tick, dst, block


def _chunk_rows(cols, start: int, stop: int) -> list[Transfer]:
    """Rows ``start:stop`` of one chunk, as :class:`Transfer` rows."""
    return list(_as_transfers(zip(*(col[start:stop].tolist() for col in cols))))


def _take_window(chunks: list, pos: list[int], last: int) -> tuple[np.ndarray, ...]:
    """The rows of ``chunks`` from chunk ``pos[0]``, row ``pos[1]`` on whose
    tick is at most ``last``, as read-only int32 columns; advances ``pos``
    past them."""
    pieces = []
    while pos[0] < len(chunks):
        cols = chunks[pos[0]]
        ticks = np.frombuffer(cols[0], np.int32)
        stop = int(np.searchsorted(ticks, last, "right"))
        if stop > pos[1]:
            pieces.append([np.frombuffer(col, np.int32)[pos[1] : stop] for col in cols])
        if stop < ticks.size:
            pos[1] = stop
            break
        pos[0], pos[1] = pos[0] + 1, 0
    if not pieces:
        window = [np.empty(0, np.int32) for _ in range(4)]
    elif len(pieces) == 1:
        window = pieces[0]
    else:
        window = list(map(np.concatenate, zip(*pieces)))
    for col in window:
        col.flags.writeable = False
    return tuple(window)


class TransferLog:
    """An append-only, tick-ordered record of transfers.

    Transfers must be appended in non-decreasing tick order; engines are
    tick-synchronous so this is natural, and it lets per-tick grouping be a
    single pass. Successful deliveries, failed attempts, polluted
    deliveries and phantom deliveries form four streams (:data:`STREAMS`)
    with independent tick-order invariants, so a log can be rebuilt stream
    by stream (serde) as well as interleaved (engines).

    Each stream is stored as four int32 columns (tick, src, dst, block):
    16 bytes a row, not a Python object per row. :class:`Transfer` stays
    the row type; iteration, indexing and the per-stream tuples build rows
    on demand, and :meth:`columns` exposes the raw columns as numpy views.
    A value outside the int32 range raises :class:`ConfigError`.
    """

    # ``__weakref__``: an in-memory checkpoint payload names its log by
    # a token that resolves through a weak registry (repro.checkpoint).
    __slots__ = (
        "_streams", "_deliveries", "_failures", "_polluted", "_phantoms",
        "__weakref__",
    )

    def __init__(
        self,
        transfers: Iterable[Transfer] = (),
        failures: Iterable[Transfer] = (),
        polluted: Iterable[Transfer] = (),
        phantoms: Iterable[Transfer] = (),
    ) -> None:
        self._streams = (
            _Stream("transfers", "transfers"),
            _Stream("failures", "failures"),
            _Stream("polluted", "polluted rows"),
            _Stream("phantoms", "phantom rows"),
        )
        self._deliveries, self._failures, self._polluted, self._phantoms = (
            self._streams
        )
        streams = (transfers, failures, polluted, phantoms)
        for stream, rows in zip(self._streams, streams):
            for t in rows:
                stream.add(*t)

    def _stream(self, name: str) -> _Stream:
        try:
            return self._streams[STREAMS.index(name)]
        except ValueError:
            raise ConfigError(
                f"unknown log stream {name!r}; expected one of {STREAMS}"
            ) from None

    def append(self, transfer: Transfer) -> None:
        """Record one transfer; ticks must be non-decreasing and >= 1."""
        self._deliveries.add(*transfer)

    def record(self, tick: int, src: int, dst: int, block: int) -> None:
        """Convenience wrapper around :meth:`append`."""
        self._deliveries.add(tick, src, dst, block)

    def append_failure(self, transfer: Transfer) -> None:
        """Record one *failed* attempt; ticks must be non-decreasing.

        A failed attempt consumed upload/download bandwidth (and, under
        barter, credit) but delivered nothing; it never appears in
        delivery-side accessors such as :meth:`by_tick`.
        """
        self._failures.add(*transfer)

    def record_failure(self, tick: int, src: int, dst: int, block: int) -> None:
        """Convenience wrapper around :meth:`append_failure`."""
        self._failures.add(tick, src, dst, block)

    def append_polluted(self, transfer: Transfer) -> None:
        """Record one *polluted* delivery; ticks must be non-decreasing.

        A polluted delivery consumed upload/download bandwidth (and,
        under barter, credit) but the receiver's integrity check rejected
        the block; it never appears in delivery-side accessors and never
        counts toward completion.
        """
        self._polluted.add(*transfer)

    def record_polluted(self, tick: int, src: int, dst: int, block: int) -> None:
        """Convenience wrapper around :meth:`append_polluted`."""
        self._polluted.add(tick, src, dst, block)

    def append_phantom(self, transfer: Transfer) -> None:
        """Record one *phantom* delivery; ticks must be non-decreasing.

        A phantom is a block the sender advertised but never sent (the
        liar behavior of :mod:`repro.adversary`): the requester's slot
        was wasted, nothing arrived.
        """
        self._phantoms.add(*transfer)

    def record_phantom(self, tick: int, src: int, dst: int, block: int) -> None:
        """Convenience wrapper around :meth:`append_phantom`."""
        self._phantoms.add(tick, src, dst, block)

    def extend_batch(
        self,
        transfers: Sequence[Sequence[int]] = (),
        failures: Sequence[Sequence[int]] = (),
        polluted: Sequence[Sequence[int]] = (),
        phantoms: Sequence[Sequence[int]] = (),
    ) -> None:
        """Bulk-append ``(tick, src, dst, block)`` rows to each stream.

        Each argument is a sequence of rows or an ``(m, 4)`` integer
        array. The materialisation path for deferred logging (the array
        backend buffers raw tuples per attempt and flushes once) and for
        serde and checkpoint loads: one bulk append per column, with the
        stream's tick-order and int32 checks run on the whole batch.
        """
        batches = (transfers, failures, polluted, phantoms)
        for stream, rows in zip(self._streams, batches):
            stream.extend(rows)

    def columns(
        self, stream: str = "transfers", start: int = 0, stop: int | None = None
    ) -> tuple[np.ndarray, ...]:
        """The ``(tick, src, dst, block)`` int32 columns of one stream.

        ``start``/``stop`` select rows ``start:stop`` (default: all of
        them); only the chunks holding those rows are read, so a prefix
        or a tail of a long log costs its own length, not the log's.
        Read-only numpy arrays. Rows within one chunk (:data:`CHUNK_ROWS`
        rows) are views of the log's storage, no copy; a view is a
        snapshot: appending to the stream afterwards copies its columns
        once and leaves the views as they were. Rows spanning chunks are
        concatenated, a copy. A range outside the stream raises
        :class:`ConfigError`.
        """
        source = self._stream(stream)
        size = len(source)
        stop = size if stop is None else stop
        if not 0 <= start <= stop <= size:
            raise ConfigError(
                f"rows {start}:{stop} outside the {size} rows of {stream}"
            )
        chunks = source.chunks()
        first = min(start // CHUNK_ROWS, len(chunks) - 1)
        last = max(first, -(-stop // CHUNK_ROWS) - 1)
        pieces = [
            [
                np.frombuffer(col, np.int32)[
                    max(start - i * CHUNK_ROWS, 0) : stop - i * CHUNK_ROWS
                ]
                for col in chunks[i]
            ]
            for i in range(first, last + 1)
        ]
        if len(pieces) == 1:
            views = tuple(pieces[0])
        else:
            views = tuple(map(np.concatenate, zip(*pieces)))
        for view in views:
            view.flags.writeable = False
        return views

    def as_lists(self, stream: str = "transfers") -> list[list[int]]:
        """One stream's rows as ``[tick, src, dst, block]`` lists.

        The JSON row shape of :mod:`repro.core.serde` documents (and of
        ``repro/checkpoint/v1`` logs), built from the columns one chunk
        at a time.
        """
        rows: list[list[int]] = []
        for cols in self._stream(stream).chunks():
            rows += np.column_stack([np.array(col, np.int32) for col in cols]).tolist()
        return rows

    def groups(self, stream: str = "transfers") -> Iterator[tuple[int, list[Transfer]]]:
        """Lazily yield ``(tick, rows)`` per active tick of one stream.

        Tick boundaries come from the tick column, chunk by chunk (a tick
        split across a chunk seal comes out as one group); each group's
        rows are built only when it is reached, so a pass over a
        million-row log never holds more than two ticks of
        :class:`Transfer` rows.
        """
        return self._stream(stream).groups()

    def windows(self, rows: int) -> Iterator[tuple[tuple[np.ndarray, ...], ...]]:
        """Walk the four streams together in tick-ordered windows.

        Each window is one ``(tick, src, dst, block)`` column tuple per
        stream, in :data:`STREAMS` order (an idle stream gives empty
        columns). A window ends on a tick boundary: at the earliest tick
        among the streams' ``rows``-th next rows, each clipped to the end
        of its current chunk, and the rest of that tick goes wholly into
        the window, also where it spills across a chunk seal. So a window
        holds at most ``rows`` rows per stream plus the rows of its last
        tick, and a pass over the log keeps O(``rows``) rows at a time.
        Columns are read-only int32 views of the chunks, or copies where
        a window spans a seal.
        """
        if rows < 1:
            raise ConfigError(f"windows need at least one row, got {rows}")
        chunks = [[c for c in s.chunks() if len(c[3])] for s in self._streams]
        positions = [[0, 0] for _ in chunks]
        while True:
            ends = [
                c[i][0][min(j + rows, len(c[i][0])) - 1]
                for c, (i, j) in zip(chunks, positions)
                if i < len(c)
            ]
            if not ends:
                return
            last = min(ends)
            yield tuple(_take_window(c, p, last) for c, p in zip(chunks, positions))

    def __len__(self) -> int:
        return len(self._deliveries)

    def __iter__(self) -> Iterator[Transfer]:
        return iter(self._deliveries)

    def __getitem__(self, i: int | slice) -> Transfer | list[Transfer]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return self._deliveries.row(i)

    @property
    def last_tick(self) -> int:
        """The tick of the final transfer (0 for an empty log)."""
        return self._deliveries.last

    @property
    def failures(self) -> tuple[Transfer, ...]:
        """All failed attempts, in tick order."""
        return tuple(self._failures)

    @property
    def failed_count(self) -> int:
        """Number of failed attempts recorded."""
        return len(self._failures)

    @property
    def polluted(self) -> tuple[Transfer, ...]:
        """All polluted deliveries, in tick order."""
        return tuple(self._polluted)

    @property
    def polluted_count(self) -> int:
        """Number of polluted deliveries recorded."""
        return len(self._polluted)

    @property
    def phantoms(self) -> tuple[Transfer, ...]:
        """All phantom deliveries, in tick order."""
        return tuple(self._phantoms)

    @property
    def phantom_count(self) -> int:
        """Number of phantom deliveries recorded."""
        return len(self._phantoms)

    @property
    def attempted(self) -> int:
        """Total attempts: deliveries, failures, polluted and phantoms."""
        return sum(map(len, self._streams))

    @property
    def last_attempt_tick(self) -> int:
        """Tick of the final attempt of any stream (0 if empty)."""
        return max(stream.last for stream in self._streams)

    def by_tick(self, stream: str = "transfers") -> dict[int, list[Transfer]]:
        """Group one stream's rows per tick. Only ticks with activity appear."""
        return dict(self.groups(stream))

    def uploads_per_tick(self) -> list[int]:
        """Number of transfers in each tick ``1 .. last_tick``.

        This is the series behind the paper's "amortization" discussion:
        the fraction of nodes uploading in each tick.
        """
        counts = np.zeros(self.last_tick + 1, np.int64)
        for cols in self._deliveries.chunks():
            counts += np.bincount(np.array(cols[0], np.int32), minlength=counts.size)
        return counts[1:].tolist()

    def completion_ticks(self, n: int, k: int) -> dict[int, int]:
        """Tick at which each client first holds all ``k`` blocks.

        Returns a mapping from client id to completion tick, in the
        order clients completed (by log row); clients that never
        complete are absent. The server (node 0) starts complete and is
        not included. A row whose destination is outside ``0..n-1`` or
        whose block is outside ``0..k-1`` raises :class:`ConfigError`.

        Walks the delivery chunks in row order with an ``n x k`` bool
        first-seen matrix and per-node counts of distinct blocks held;
        no per-row state outlives its chunk.
        """
        done: dict[int, int] = {}
        if not len(self._deliveries):
            return done
        seen = np.zeros(n * k, dtype=bool)
        held = np.zeros(n, dtype=np.int64)
        wide = n * k > _INT32_MAX
        for ticks, dst, block in self._deliveries.checked_chunks(n, k):
            keys = (dst.astype(np.int64) if wide else dst) * k + block
            fresh = ~seen[keys]
            new_keys = keys[fresh]
            rows = None
            ordered = np.sort(new_keys)
            if (ordered[1:] == ordered[:-1]).any():
                # The chunk repeats a key: only its first row is new.
                first = np.unique(new_keys, return_index=True)[1]
                rows = np.flatnonzero(fresh)[np.sort(first)]
                new_keys = keys[rows]
            seen[new_keys] = True
            nodes = dst[fresh] if rows is None else dst[rows]
            before = held.copy()
            held += np.bincount(nodes, minlength=n)
            reached = np.flatnonzero((held == k) & (before < k))
            if not reached.size:
                continue
            if rows is None:
                rows = np.flatnonzero(fresh)
            # A node reached k at its (k - before)-th new row here.
            order = np.argsort(nodes, kind="stable")
            starts = np.searchsorted(nodes[order], reached)
            last = rows[order[starts + k - 1 - before[reached]]]
            for row, node in sorted(zip(last.tolist(), reached.tolist())):
                if node != SERVER:
                    done[node] = ticks[row]
        return done

    def final_masks(self, n: int, k: int) -> list[int]:
        """Block bitmask of every node after the whole log is applied.

        The server starts with the complete file; clients start empty.
        Rows are checked like :meth:`completion_ticks` checks them.
        """
        have = np.zeros((n, k), dtype=bool)
        for _, dst, block in self._deliveries.checked_chunks(n, k):
            have[dst, block] = True
        have[SERVER] = True
        packed = np.packbits(have, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]


@dataclass(slots=True)
class RunResult:
    """Outcome of executing an algorithm on a swarm.

    Attributes
    ----------
    n, k:
        Swarm size (including the server) and number of file blocks.
    completion_time:
        Tick at which the last client completed, or ``None`` if the run
        ended without all clients holding the file.
    client_completions:
        Mapping of client id to its individual completion tick.
    log:
        The full transfer log of the run.
    meta:
        Free-form run metadata (algorithm name, seed, overlay, policy...).
    """

    n: int
    k: int
    completion_time: int | None
    client_completions: dict[int, int]
    log: TransferLog
    meta: dict[str, object] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        """True when every client finished."""
        return self.completion_time is not None

    @property
    def deadlocked(self) -> bool:
        """True when the run aborted on a *proven* permanent deadlock.

        Uniform across engines: randomized runs set
        ``meta["deadlocked"]`` from their conclusive zero-transfer proof;
        engines that can only time out (exchange, triangular) leave it
        unset, which reads as False here. Analysis code should use this
        accessor rather than indexing ``meta`` directly.
        """
        return bool(self.meta.get("deadlocked", False))

    @property
    def abort(self) -> str | None:
        """Why the run stopped short, or ``None`` for a clean completion.

        One of ``"deadlock"`` (proven permanent stall), ``"stall"``
        (no progress for a recovery policy's window under stochastic
        faults — not provably permanent), or ``"max-ticks"`` (tick
        guard exhausted). Engines record it as ``meta["abort"]``;
        legacy results without the key fall back to the completion and
        deadlock flags.
        """
        reason = self.meta.get("abort")
        if reason is not None:
            return str(reason)
        if self.completed:
            return None
        return "deadlock" if self.deadlocked else "max-ticks"

    @property
    def mean_completion(self) -> float | None:
        """Mean individual completion tick over clients (paper's "average
        time for nodes to finish"), or ``None`` if any client is unfinished."""
        if len(self.client_completions) != self.n - 1:
            return None
        return sum(self.client_completions.values()) / (self.n - 1)

    @classmethod
    def from_log(
        cls, n: int, k: int, log: TransferLog, meta: dict[str, object] | None = None
    ) -> "RunResult":
        """Derive completion statistics from a finished log."""
        completions = log.completion_ticks(n, k)
        finished = len(completions) == n - 1
        return cls(
            n=n,
            k=k,
            completion_time=max(completions.values()) if finished and completions else
            (0 if finished else None),
            client_completions=completions,
            log=log,
            meta=dict(meta or {}),
        )
