"""Shared timing harness for the benchmark suite.

Two things every benchmark here needs and used to hand-roll:

* :func:`interleaved_best_of` — best-of wall times for a set of
  variants, with the rounds interleaved so a machine load spike cannot
  land on only one of them. Best-of filters scheduler noise far better
  than means for sub-second workloads.
* :func:`update_bench_json` — persist the numbers machine-readably
  (``BENCH_*.json`` at the repo root) so the perf trajectory is tracked
  across PRs instead of scrolling away in CI logs. Every write stamps
  the current git revision.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
import warnings
from typing import Callable, Mapping

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_rev() -> str:
    """Short hash of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def interleaved_best_of(
    fns: Mapping[str, Callable[[], object]], rounds: int = 5
) -> dict[str, dict]:
    """Time each callable ``rounds`` times, interleaving the variants.

    Returns ``{name: {"rounds": [seconds, ...], "best": seconds}}``. A
    callable that returns a float is treated as *self-timed* — the
    returned value is recorded instead of the call's wall time — which
    lets a workload exclude setup or warm-up from its sample.
    """
    times: dict[str, list[float]] = {name: [] for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            start = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - start
            times[name].append(out if isinstance(out, float) else elapsed)
    return {name: {"rounds": ts, "best": min(ts)} for name, ts in times.items()}


def update_bench_json(filename: str, section: str, payload: dict) -> str:
    """Merge ``payload`` under ``section`` in ``<repo root>/<filename>``.

    Read-modify-write so independent benchmark tests can each contribute
    their own section to one trajectory file; the git revision is
    restamped on every update. The write goes through a temporary file
    and ``os.replace``, so an interrupted write never tears the file. An
    existing file that does not parse is not silently dropped: its bytes
    are kept at ``<file>.corrupt`` and a warning names it. Returns the
    file path.
    """
    path = os.path.join(_ROOT, filename)
    doc: dict = {}
    if os.path.exists(path):
        with open(path, "rb") as f:
            raw = f.read()
        try:
            doc = json.loads(raw)
            if not isinstance(doc, dict):
                raise ValueError("not a JSON object")
        except ValueError as exc:
            corrupt = path + ".corrupt"
            with open(corrupt, "wb") as f:
                f.write(raw)
            warnings.warn(
                f"{path} does not parse ({exc}); its bytes are kept at "
                f"{corrupt} and a fresh document replaces it",
                stacklevel=2,
            )
            doc = {}
    doc["git_rev"] = git_rev()
    doc[section] = payload
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)
    return path
