"""Serialization of schedules, logs and results (JSON-compatible).

Deterministic schedules are valuable artifacts: an operator can compute
the optimal hypercube schedule once, ship it to the swarm, and have every
node follow its own slice. This module round-trips the library's core
objects through plain dicts (JSON-ready), with versioned envelopes so
future format changes stay detectable.

Compactness: transfers are stored as flat ``[tick, src, dst, block]``
rows — a 1000-node, 1000-block optimal schedule serialises to a few MB of
JSON and round-trips losslessly (property-tested).
"""

from __future__ import annotations

import json
from typing import IO

from .engine import Schedule
from .errors import ConfigError
from .log import RunResult, TransferLog

__all__ = [
    "schedule_to_dict",
    "schedule_from_dict",
    "log_to_dict",
    "log_from_dict",
    "result_to_dict",
    "dump_schedule",
    "load_schedule",
]

_SCHEDULE_FORMAT = "repro/schedule/v1"
_LOG_FORMAT = "repro/log/v1"
# v2 adds the failed-attempt stream (repro.faults); emitted only when a
# log actually carries failures, so fault-free documents stay v1
# byte-identical and old readers keep working on them.
_LOG_FORMAT_V2 = "repro/log/v2"
# v3 adds the polluted/phantom streams (repro.adversary); emitted only
# when a log actually carries adversarial rows, so v1 *and* v2 documents
# stay byte-identical to what they always were.
_LOG_FORMAT_V3 = "repro/log/v3"


def schedule_to_dict(schedule: Schedule) -> dict:
    """Plain-dict form of a schedule (JSON-compatible)."""
    return {
        "format": _SCHEDULE_FORMAT,
        "n": schedule.n,
        "k": schedule.k,
        "meta": _jsonable_meta(schedule.meta),
        "transfers": [[t.tick, t.src, t.dst, t.block] for t in schedule],
    }


def schedule_from_dict(data: dict) -> Schedule:
    """Rebuild a schedule; validates the envelope and every transfer."""
    if data.get("format") != _SCHEDULE_FORMAT:
        raise ConfigError(
            f"not a schedule document (format={data.get('format')!r})"
        )
    n, k = int(data["n"]), int(data["k"])
    schedule = Schedule(n, k, meta=data.get("meta") or {})
    for row in data["transfers"]:
        tick, src, dst, block = (int(x) for x in row)
        if not (0 <= src < n and 0 <= dst < n):
            raise ConfigError(f"transfer {row} references a node outside 0..{n - 1}")
        if not 0 <= block < k:
            raise ConfigError(f"transfer {row} references a block outside 0..{k - 1}")
        if tick < 1:
            raise ConfigError(f"transfer {row} has a non-positive tick")
        schedule.add(tick, src, dst, block)
    return schedule


def log_to_dict(log: TransferLog, n: int, k: int) -> dict:
    """Plain-dict form of a transfer log.

    Failed attempts, when present, are stored under ``"failures"`` as the
    same flat ``[tick, src, dst, block]`` rows and the envelope is
    stamped v2; logs without failures keep the historical v1 document.
    Adversarial rows, when present, are stored under ``"polluted"`` /
    ``"phantom"`` and bump the envelope to v3.
    """
    adversarial = log.polluted_count or log.phantom_count
    doc = {
        "format": (
            _LOG_FORMAT_V3
            if adversarial
            else _LOG_FORMAT_V2 if log.failed_count else _LOG_FORMAT
        ),
        "n": n,
        "k": k,
        "transfers": log.as_lists("transfers"),
    }
    if log.failed_count:
        doc["failures"] = log.as_lists("failures")
    if log.polluted_count:
        doc["polluted"] = log.as_lists("polluted")
    if log.phantom_count:
        doc["phantom"] = log.as_lists("phantoms")
    return doc


def log_from_dict(data: dict) -> tuple[TransferLog, int, int]:
    """Rebuild ``(log, n, k)``; validates the envelope (v1, v2 or v3)."""
    if data.get("format") not in (_LOG_FORMAT, _LOG_FORMAT_V2, _LOG_FORMAT_V3):
        raise ConfigError(f"not a log document (format={data.get('format')!r})")
    log = TransferLog()
    log.extend_batch(
        data["transfers"],
        data.get("failures", ()),
        data.get("polluted", ()),
        data.get("phantom", ()),
    )
    return log, int(data["n"]), int(data["k"])


def result_to_dict(result: RunResult) -> dict:
    """Plain-dict summary of a run (log included)."""
    return {
        "n": result.n,
        "k": result.k,
        "completion_time": result.completion_time,
        "client_completions": {str(c): t for c, t in result.client_completions.items()},
        "meta": _jsonable_meta(result.meta),
        "log": log_to_dict(result.log, result.n, result.k),
    }


def dump_schedule(schedule: Schedule, fp: IO[str]) -> None:
    """Write a schedule as JSON to an open text file."""
    json.dump(schedule_to_dict(schedule), fp)


def load_schedule(fp: IO[str]) -> Schedule:
    """Read a schedule from an open JSON text file."""
    return schedule_from_dict(json.load(fp))


def _jsonable_meta(meta: dict) -> dict:
    """Keep only JSON-representable metadata values (stringify the rest).

    Nested lists and string-keyed dicts are kept (fault metadata such as
    ``crash_events`` is a list of ``[tick, node]`` rows); anything else is
    repr'd so the document always serialises.
    """
    return {key: _jsonable(value) for key, value in meta.items()}


def _jsonable(value):
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return {k: _jsonable(v) for k, v in value.items()}
    return repr(value)
