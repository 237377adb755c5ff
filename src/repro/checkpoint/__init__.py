"""Deterministic checkpoint/restore for tick-kernel runs.

A checkpoint captures *everything* a
:class:`~repro.sim.kernel.TickKernel` run needs to continue
bit-identically from a tick boundary: the swarm masks and derived pools,
the decision RNG state, the fault injector's stream and latches
(scheduled rejoins, dark links, retained state), the membership
runtime's timeline position, the credit ledger, the
:class:`~repro.core.log.TransferLog` streams (when kept), and whatever
per-engine state the policy declares through
:meth:`~repro.sim.policy.TickPolicy.capture_state`.

Format and integrity (``repro/checkpoint/v2``)
----------------------------------------------
A checkpoint on disk is two files:

* the **document** (``<path>``): one JSON object with everything but
  the log rows. It is encoded once, by the C encoder, and its last field
  is ``"digest"``: the SHA-256 of exactly the bytes written before that
  field (the encoded body, closing brace included). It is replaced
  atomically (tmp file, fsync, ``os.replace``).
* the **sidecar** (``<path>.rows``): the log rows, appended once each
  and never rewritten. Each append is a 16-byte header (four
  little-endian uint32: the rows it adds to each of
  :data:`~repro.core.log.STREAMS`, in order) followed by those rows,
  stream by stream, as little-endian int32 ``(tick, src, dst, block)``
  (16 bytes a row).

The document's ``"log"`` entry records the sidecar's file name, the
per-stream row counts, the sidecar prefix's byte length and that
prefix's SHA-256. A writer appends the rows added since its last save,
fsyncs the sidecar, and only then replaces the document, so a kill at
any instant leaves the previous checkpoint or the new one loadable.
Capture, encode and write therefore cost O(rows added), not O(rows).

:func:`load_checkpoint` verifies the document's digest, then the
sidecar: bytes past the recorded length are a torn append (the writer
died before the document replace) and are cut off with a warning; a
missing or short sidecar, or a prefix whose SHA-256 does not match,
raises :class:`CheckpointError`. A resume never starts from wrong rows.
``repro/checkpoint/v1`` documents (rows inline as JSON lists, digest
over the canonical sorted-keys encoding, :func:`checkpoint_digest`) keep
loading; they are no longer written.

In memory
---------
:meth:`~repro.sim.kernel.TickKernel.checkpoint` does not copy the log.
Its payload's ``"log"`` entry is a :class:`LogPrefix`: per-stream row
counts plus a token naming the kernel's (append-only) log, which it
also holds. Rows below the counts never change, so the payload restores
exactly, also after a JSON round-trip, while the log is alive in this
process. :func:`save_checkpoint` turns it into a document and sidecar.

What is captured
----------------
Only state that survives a tick boundary. Intra-tick scratch (the
download ledger, the per-tick receiver pool, buffered credit sends) is
dead at a boundary and is reset, not serialized. Structures derivable
from captured state (per-block holder counts, the packed array mirror)
are recomputed on restore. Checkpoints are tick-boundary-only:
:meth:`~repro.sim.kernel.TickKernel.checkpoint` raises
:class:`~repro.core.errors.ConfigError` mid-tick.

Resuming
--------
:func:`resume_engine` rebuilds the engine via a caller-supplied factory
with the *same construction arguments* (construction replays the seeding
draws for the injector and workload streams; restore then overwrites
every RNG with its captured state) and restores the checkpoint into its
kernel. A config fingerprint (n, k, policy name, horizon, log retention)
is validated so a checkpoint is never restored into a differently-shaped
run. A writer armed on the resumed kernel with the same path continues
its sidecar; :func:`remove_checkpoint` deletes a document and its
sidecar together.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.errors import CheckpointError
from ..core.log import STREAMS, TransferLog

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "LogPrefix",
    "rng_state_to_json",
    "rng_state_from_json",
    "checkpoint_digest",
    "save_checkpoint",
    "load_checkpoint",
    "remove_checkpoint",
    "resume_engine",
]

#: Format tag written into every checkpoint document.
CHECKPOINT_FORMAT = "repro/checkpoint/v2"
#: The format before the sidecar: read, never written.
V1_FORMAT = "repro/checkpoint/v1"
#: Suffix of the row sidecar's file name, after the document's.
SIDECAR_SUFFIX = ".rows"
#: One append's header: rows added per stream, little-endian uint32.
_HEADER = np.dtype("<u4")
_HEADER_BYTES = _HEADER.itemsize * len(STREAMS)
_ROW = np.dtype("<i4")


# -- RNG state serde ---------------------------------------------------------

def rng_state_to_json(state: tuple) -> list:
    """Encode a ``random.Random.getstate()`` tuple as a JSON-shaped list.

    The Mersenne Twister state is ``(version, (int, ... 625), gauss_next)``;
    Python's JSON round-trips arbitrary-precision ints and floats (repr-
    based) exactly, so the encoding is lossless.
    """
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def rng_state_from_json(data: list) -> tuple:
    """Decode :func:`rng_state_to_json` back into a ``setstate()`` tuple."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


def restore_rng(rng: random.Random, data: list) -> None:
    """Restore one ``random.Random`` in place from its captured state."""
    rng.setstate(rng_state_from_json(data))


# -- the log entry in memory ------------------------------------------------

#: Live logs named by in-memory payloads, by token; a payload's
#: :class:`LogPrefix` holds its log, so an entry lives as long as one.
_LOGS: "weakref.WeakValueDictionary[str, TransferLog]" = weakref.WeakValueDictionary()
_TOKENS: "weakref.WeakKeyDictionary[TransferLog, str]" = weakref.WeakKeyDictionary()
_SERIAL = itertools.count()


class LogPrefix(dict):
    """A checkpoint payload's ``"log"`` entry: the first ``rows[name]``
    rows of each stream of :attr:`log`.

    As JSON it is ``{"rows": {stream: count}, "source": token}``; the
    token resolves to :attr:`log` in this process while any payload
    holding the entry is alive. The log is append-only, so the prefix
    never changes after capture.
    """

    __slots__ = ("log",)

    def __init__(self, log: TransferLog, rows: dict[str, int]) -> None:
        token = _TOKENS.get(log)
        if token is None:
            token = f"{os.getpid()}-{next(_SERIAL)}"
            _TOKENS[log] = token
            _LOGS[token] = log
        super().__init__(rows=rows, source=token)
        self.log = log


def capture_log(log: TransferLog, streams) -> LogPrefix:
    """The log entry of a checkpoint taken now: row counts, no rows."""
    sizes = len(log), log.failed_count, log.polluted_count, log.phantom_count
    return LogPrefix(log, {n: size for n, size in zip(STREAMS, sizes) if n in streams})


def _prefix(entry) -> tuple[TransferLog, dict[str, int]]:
    """``(log, rows)`` of a log entry: a :class:`LogPrefix`, its JSON
    form, or a v1 entry with the rows inline."""
    rows = entry.get("rows")
    if rows is None:
        log = TransferLog()
        log.extend_batch(*(entry.get(name, ()) for name in STREAMS))
        return log, {name: len(entry[name]) for name in STREAMS if name in entry}
    log = getattr(entry, "log", None)
    if log is None:
        log = _LOGS.get(entry.get("source"))
    if log is None:
        raise CheckpointError(
            "this checkpoint payload's log is not in memory: an in-memory "
            "payload restores only in the process that captured it, while "
            "the payload is alive; persist it with save_checkpoint"
        )
    return log, rows


def _table(log: TransferLog, name: str, start: int, stop: int) -> np.ndarray:
    """Rows ``start:stop`` of one stream as an ``(m, 4)`` int32 table."""
    return np.column_stack(log.columns(name, start, stop)).astype(_ROW, copy=False)


def restore_log(entry) -> TransferLog:
    """A fresh :class:`TransferLog` holding exactly a log entry's rows."""
    source, rows = _prefix(entry)
    log = TransferLog()
    log.extend_batch(
        *(_table(source, name, 0, rows.get(name, 0)) for name in STREAMS)
    )
    return log


# -- the row sidecar ---------------------------------------------------------

def _sidecar_path(path: str) -> str:
    return path + SIDECAR_SUFFIX


@dataclass
class _Tail:
    """What one writer has put in a sidecar: which log's rows, how many
    of each stream, how many bytes, their running SHA-256, and the
    document it wrote last (so a changed file is noticed)."""

    log: weakref.ref
    rows: dict[str, int]
    length: int
    hasher: object
    stamp: tuple | None = None

    def entry(self, name: str) -> dict:
        return {
            "sidecar": name,
            "rows": dict(self.rows),
            "bytes": self.length,
            "sha256": self.hasher.hexdigest(),
        }


#: Sidecar writers of this process, by absolute document path.
_TAILS: dict[str, _Tail] = {}


def _stamp(path: str) -> tuple | None:
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


def _parse_rows(data: bytes, where: str) -> dict[str, list[np.ndarray]]:
    """Split a sidecar prefix into per-stream ``(m, 4)`` tables."""
    pieces: dict[str, list[np.ndarray]] = {name: [] for name in STREAMS}
    offset = 0
    while offset < len(data):
        if offset + _HEADER_BYTES > len(data):
            raise CheckpointError(f"sidecar {where!r} ends inside an append header")
        counts = np.frombuffer(data, _HEADER, len(STREAMS), offset).tolist()
        offset += _HEADER_BYTES
        for name, count in zip(STREAMS, counts):
            size = 4 * _ROW.itemsize * count
            if offset + size > len(data):
                raise CheckpointError(f"sidecar {where!r} ends inside an append")
            table = np.frombuffer(data, _ROW, 4 * count, offset).reshape(count, 4)
            pieces[name].append(table)
            offset += size
    return pieces


def _tables(pieces: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(pieces) if pieces else np.empty((0, 4), _ROW)


def _read_sidecar(path: str, entry: dict) -> tuple[dict[str, np.ndarray], object]:
    """Verify and parse the prefix of ``path``'s sidecar that ``entry``
    records; returns the per-stream tables and the prefix's hasher.

    Bytes past the prefix are a torn append and are ignored with a
    warning. A missing or short sidecar, a digest mismatch or row counts
    that disagree with the entry raise :class:`CheckpointError`.
    """
    try:
        sidecar = os.path.join(os.path.dirname(path), entry["sidecar"])
        length, digest, rows = int(entry["bytes"]), entry["sha256"], entry["rows"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path!r} has a malformed log entry") from exc
    try:
        with open(sidecar, "rb") as handle:
            data = handle.read(length)
            size = os.fstat(handle.fileno()).st_size
    except OSError as exc:
        raise CheckpointError(
            f"cannot read the row sidecar of checkpoint {path!r}: {exc}"
        ) from exc
    if len(data) < length:
        raise CheckpointError(
            f"row sidecar {sidecar!r} holds {len(data)} bytes; its checkpoint "
            f"records {length}"
        )
    hasher = hashlib.sha256(data)
    if hasher.hexdigest() != digest:
        raise CheckpointError(
            f"row sidecar {sidecar!r} failed integrity verification; refusing "
            f"to resume from wrong rows"
        )
    if size > length:
        warnings.warn(
            f"row sidecar {sidecar!r} has {size - length} bytes past its "
            f"checkpoint's {length} (a torn append); ignoring them",
            stacklevel=3,
        )
    tables = {name: _tables(p) for name, p in _parse_rows(data, sidecar).items()}
    if any(len(tables[name]) != rows.get(name, 0) for name in STREAMS):
        raise CheckpointError(
            f"row sidecar {sidecar!r} does not hold the rows its checkpoint records"
        )
    return tables, hasher


def _continue_tail(path: str, log: TransferLog, rows: dict[str, int]) -> _Tail | None:
    """Continue the sidecar of the document at ``path`` when its rows are
    a prefix of ``log``'s first ``rows`` (a writer on a kernel resumed
    from ``path``); ``None`` when there is no such document."""
    try:
        document = _read_document(path)
        entry = document["log"]
        if entry["sidecar"] != os.path.basename(_sidecar_path(path)):
            return None
        done = {name: int(count) for name, count in entry["rows"].items()}
        if any(done.get(name, 0) > rows.get(name, 0) for name in STREAMS):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            tables, hasher = _read_sidecar(path, entry)
    except (CheckpointError, KeyError, TypeError, ValueError):
        return None
    for name in STREAMS:
        mine = _table(log, name, 0, done.get(name, 0))
        if not np.array_equal(tables[name], mine):
            return None
    with open(_sidecar_path(path), "r+b") as handle:
        handle.truncate(int(entry["bytes"]))  # drop a torn append
    return _Tail(weakref.ref(log), done, int(entry["bytes"]), hasher, _stamp(path))


def _tail_for(path: str, log: TransferLog, rows: dict[str, int]) -> _Tail:
    """This process's writer state for ``path``, continued or new."""
    key = os.path.abspath(path)
    tail = _TAILS.get(key)
    if (
        tail is not None
        and tail.log() is log
        and tail.stamp == _stamp(path)
        and all(tail.rows.get(name, 0) <= rows.get(name, 0) for name in STREAMS)
    ):
        return tail
    tail = _continue_tail(path, log, rows)
    if tail is None:
        # A new sidecar: whatever checkpoint ``path`` held is discarded
        # first, so no document ever names rows that are not there.
        remove_checkpoint(path)
        with open(_sidecar_path(path), "wb") as handle:
            os.fsync(handle.fileno())
        tail = _Tail(weakref.ref(log), {}, 0, hashlib.sha256())
    _TAILS[key] = tail
    return tail


def _append_rows(path: str, entry) -> dict:
    """Append the rows ``entry`` covers that the sidecar lacks, fsync,
    and return the document's log entry."""
    log, rows = _prefix(entry)
    tail = _tail_for(path, log, rows)
    new = [
        _table(log, name, tail.rows.get(name, 0), rows.get(name, 0))
        for name in STREAMS
    ]
    if any(len(table) for table in new):
        header = np.array([len(table) for table in new], _HEADER)
        blob = b"".join([header.tobytes(), *(table.tobytes() for table in new)])
        with open(_sidecar_path(path), "ab") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        tail.hasher.update(blob)
        tail.length += len(blob)
    tail.rows = {name: int(count) for name, count in rows.items()}
    return tail.entry(os.path.basename(_sidecar_path(path)))


# -- envelope ----------------------------------------------------------------

def checkpoint_digest(document: dict) -> str:
    """The v1 digest: SHA-256 over the canonical (sorted-keys, compact)
    JSON encoding, digest field excluded. v2 documents hash the bytes
    they were written as instead."""
    body = {key: value for key, value in document.items() if key != "digest"}
    canonical = json.dumps(
        body, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _digest_suffix(digest: str) -> bytes:
    return f',"digest":"{digest}"}}'.encode("ascii")


def save_checkpoint(path: str | os.PathLike, payload: dict) -> None:
    """Write ``payload`` (a ``kernel.checkpoint()`` document) as a v2
    checkpoint: the new log rows to the sidecar, then the document.

    The rows the sidecar already holds for the same log are not written
    again. The document is encoded once and appears under its final
    name only once fully written and flushed, after the sidecar's fsync,
    so a worker killed at any point leaves a loadable checkpoint: the
    previous one or this one.
    """
    path = os.fspath(path)
    document = {key: value for key, value in payload.items() if key != "digest"}
    if document.get("log") is not None:
        document["log"] = _append_rows(path, document["log"])
    document["format"] = CHECKPOINT_FORMAT
    body = json.dumps(document, separators=(",", ":"), allow_nan=False).encode()
    data = body[:-1] + _digest_suffix(hashlib.sha256(body).hexdigest())
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    tail = _TAILS.get(os.path.abspath(path))
    if tail is not None:
        tail.stamp = _stamp(path)


def _read_document(path: str) -> dict:
    """Read, format-check and digest-verify one checkpoint document."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    try:
        document = json.loads(data)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint {path!r} is not valid JSON (torn write?): {exc}"
        ) from exc
    if not isinstance(document, dict):
        raise CheckpointError(f"checkpoint {path!r} is not a JSON object")
    fmt = document.get("format")
    digest = document.get("digest")
    if fmt == V1_FORMAT:
        expected = checkpoint_digest(document)
        intact = digest == expected
    elif fmt == CHECKPOINT_FORMAT:
        suffix = _digest_suffix(str(digest))
        expected = hashlib.sha256(data[: -len(suffix)] + b"}").hexdigest()
        intact = data.endswith(suffix) and digest == expected
    else:
        raise CheckpointError(
            f"checkpoint {path!r} has format {fmt!r}; "
            f"this build reads {CHECKPOINT_FORMAT!r} and {V1_FORMAT!r}"
        )
    if not intact:
        raise CheckpointError(
            f"checkpoint {path!r} failed integrity verification "
            f"(digest {digest!r} != {expected!r}); refusing to resume "
            f"from a corrupt snapshot"
        )
    return document


def load_checkpoint(path: str | os.PathLike) -> dict:
    """Read, format-check and digest-verify one checkpoint.

    A v2 document's ``"log"`` entry comes back as a :class:`LogPrefix`
    over the verified sidecar rows; a v1 document comes back as stored.
    """
    path = os.fspath(path)
    document = _read_document(path)
    entry = document.get("log")
    if document["format"] == CHECKPOINT_FORMAT and entry is not None:
        tables, _ = _read_sidecar(path, entry)
        log = TransferLog()
        log.extend_batch(*(tables[name] for name in STREAMS))
        document["log"] = LogPrefix(
            log, {name: int(count) for name, count in entry["rows"].items()}
        )
    return document


def remove_checkpoint(path: str | os.PathLike) -> None:
    """Delete a checkpoint document and its row sidecar, quietly.

    The document goes first, so an interrupted removal never leaves a
    document without its rows.
    """
    path = os.fspath(path)
    _TAILS.pop(os.path.abspath(path), None)
    for name in (path, _sidecar_path(path)):
        try:
            os.remove(name)
        except OSError:
            pass


# -- resume ------------------------------------------------------------------

def resume_engine(path: str | os.PathLike, factory: Callable[[], object]):
    """Rebuild an engine from ``factory`` and restore the checkpoint at
    ``path`` into it.

    ``factory()`` must construct the engine with the *same arguments*
    (including the seed) as the checkpointed run — construction replays
    the derived-stream seeding draws, restore then overwrites every RNG
    state — and return either a kernel or any engine facade exposing a
    ``.kernel`` attribute (every registry engine does). Returns the
    restored engine, positioned at the checkpoint's tick boundary; call
    ``.run()`` / ``.kernel.run()`` to continue.
    """
    document = load_checkpoint(path)
    engine = factory()
    kernel = getattr(engine, "kernel", engine)
    kernel.restore_checkpoint(document)
    return engine
