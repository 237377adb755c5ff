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
from itertools import repeat
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


def _as_transfers(rows: Iterable[tuple[int, int, int, int]]) -> Iterator[Transfer]:
    """Retype 4-tuples as :class:`Transfer` rows, in C (no Python-level
    ``__new__`` per row): the lazy row view of the columns."""
    return map(tuple.__new__, repeat(Transfer), rows)


class _Stream:
    """One stream of a :class:`TransferLog`: four growable int32 columns."""

    __slots__ = ("name", "label", "tick", "src", "dst", "block", "last")

    def __init__(self, name: str, label: str) -> None:
        self.name = name
        #: How tick-order errors name the stream.
        self.label = label
        self.tick = array("i")
        self.src = array("i")
        self.dst = array("i")
        self.block = array("i")
        self.last = 0

    def cols(self) -> tuple[array, array, array, array]:
        return self.tick, self.src, self.dst, self.block

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
        """Trim the columns that took a row the last column did not."""
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
        """Copy any column a :meth:`TransferLog.columns` view still holds.

        An ``array`` cannot grow while a buffer export is alive; the view
        keeps the old copy as a snapshot and the stream appends to a
        fresh one.
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
        columns = [
            memoryview(col).cast("B") for col in np.ascontiguousarray(table.T)
        ]
        try:
            for col, values in zip(self.cols(), columns):
                col.frombytes(values)
        except BufferError:
            self.rollback()
            self.unshare()
            for col, values in zip(self.cols(), columns):
                col.frombytes(values)
        self.last = int(ticks[-1])

    def rows(self, start: int = 0, stop: int | None = None) -> list[Transfer]:
        cols = (col[start:stop].tolist() for col in self.cols())
        return list(_as_transfers(zip(*cols)))

    def groups(self) -> Iterator[tuple[int, list[Transfer]]]:
        size = len(self.tick)
        if not size:
            return
        ticks = np.frombuffer(self.tick, np.int32)
        ends = (np.flatnonzero(ticks[1:] != ticks[:-1]) + 1).tolist()
        del ticks  # release the buffer export before yielding
        ends.append(size)
        start = 0
        for end in ends:
            yield self.tick[start], self.rows(start, end)
            start = end


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

    __slots__ = ("_streams", "_deliveries", "_failures", "_polluted", "_phantoms")

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

    def columns(self, stream: str = "transfers") -> tuple[np.ndarray, ...]:
        """The ``(tick, src, dst, block)`` int32 columns of one stream.

        Read-only numpy views of the log's storage, no copy. A view is a
        snapshot: appending to the stream afterwards copies its columns
        once and leaves the views as they were.
        """
        cols = self._stream(stream).cols()
        views = tuple(np.frombuffer(col, np.int32) for col in cols)
        for view in views:
            view.flags.writeable = False
        return views

    def as_lists(self, stream: str = "transfers") -> list[list[int]]:
        """One stream's rows as ``[tick, src, dst, block]`` lists.

        The JSON row shape of :mod:`repro.core.serde` documents and
        kernel checkpoints, built from the columns in one numpy pass.
        """
        return np.column_stack(self.columns(stream)).tolist()

    def groups(self, stream: str = "transfers") -> Iterator[tuple[int, list[Transfer]]]:
        """Lazily yield ``(tick, rows)`` per active tick of one stream.

        Tick boundaries come from the tick column; each group's rows are
        built only when it is reached, so a pass over a million-row log
        never holds more than one tick of :class:`Transfer` rows.
        """
        return self._stream(stream).groups()

    def __len__(self) -> int:
        return len(self._deliveries.tick)

    def __iter__(self) -> Iterator[Transfer]:
        return _as_transfers(zip(*self._deliveries.cols()))

    def __getitem__(self, i: int | slice) -> Transfer | list[Transfer]:
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return Transfer(*(col[i] for col in self._deliveries.cols()))

    @property
    def last_tick(self) -> int:
        """The tick of the final transfer (0 for an empty log)."""
        return self._deliveries.last

    @property
    def failures(self) -> tuple[Transfer, ...]:
        """All failed attempts, in tick order."""
        return tuple(self._failures.rows())

    @property
    def failed_count(self) -> int:
        """Number of failed attempts recorded."""
        return len(self._failures.tick)

    @property
    def polluted(self) -> tuple[Transfer, ...]:
        """All polluted deliveries, in tick order."""
        return tuple(self._polluted.rows())

    @property
    def polluted_count(self) -> int:
        """Number of polluted deliveries recorded."""
        return len(self._polluted.tick)

    @property
    def phantoms(self) -> tuple[Transfer, ...]:
        """All phantom deliveries, in tick order."""
        return tuple(self._phantoms.rows())

    @property
    def phantom_count(self) -> int:
        """Number of phantom deliveries recorded."""
        return len(self._phantoms.tick)

    @property
    def attempted(self) -> int:
        """Total attempts: deliveries, failures, polluted and phantoms."""
        return sum(len(stream.tick) for stream in self._streams)

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
        ticks = self.columns("transfers")[0]
        return np.bincount(ticks, minlength=self.last_tick + 1)[1:].tolist()

    def completion_ticks(self, n: int, k: int) -> dict[int, int]:
        """Tick at which each client first holds all ``k`` blocks.

        Returns a mapping from client id to completion tick; clients that
        never complete are absent. The server (node 0) starts complete and
        is not included.
        """
        held = [0] * n
        done: dict[int, int] = {}
        goal = (1 << k) - 1
        stream = self._deliveries
        for tick, dst, block in zip(stream.tick, stream.dst, stream.block):
            if not 0 <= dst < n:
                raise ConfigError(f"transfer destination {dst} outside 0..{n - 1}")
            if held[dst] >> block & 1:
                continue
            held[dst] |= 1 << block
            if held[dst] == goal and dst != SERVER:
                done[dst] = tick
        return done

    def final_masks(self, n: int, k: int) -> list[int]:
        """Block bitmask of every node after the whole log is applied.

        The server starts with the complete file; clients start empty.
        """
        held = [0] * n
        held[SERVER] = (1 << k) - 1
        stream = self._deliveries
        for dst, block in zip(stream.dst, stream.block):
            held[dst] |= 1 << block
        return held


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

        Uniform across engines: randomized/churn runs set
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
