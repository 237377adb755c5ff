"""The whole-array proof in ``verify_log`` against the scalar replay.

``verify_log`` accepts event-free cooperative and strict-barter logs
through a vectorized proof and sends everything else, and anything the
proof rejects, to the scalar replay. These tests pin that contract:

* seeded single-row mutants of clean engine logs: the proof rejects a
  mutant exactly when the replay raises, and every accepted mutant gets
  an equal report (``test_verify.verify_both`` checks each call);
* clean logs never reach the replay, while crash-event, strike,
  credit-limited and overlay verifications always do;
* the proof's memory stays O(n·k) plus a window of rows.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import textwrap
from functools import lru_cache

import pytest

from repro.adversary import AdversaryPlan
from repro.core import verify as verify_module
from repro.core.errors import ConfigError, ScheduleViolation
from repro.core.log import STREAMS, TransferLog
from repro.core.mechanisms import CreditLimitedBarter, StrictBarter, TriangularBarter
from repro.core.model import BandwidthModel
from repro.core.verify import verify_log
from repro.experiments.heterogeneity import mix_spec
from repro.faults import FaultPlan
from repro.overlays.paths import chain
from repro.sim.registry import create_engine

from ..conftest import log_from
from . import test_verify as base

N, K = 20, 10

#: Clean runs at n, k <= 64: (engine, options, mechanism, model from the
#: kernel). "lossy" adds a failures stream and "adversarial" polluted and
#: phantom streams, all without crash events, so every one is a proof log.
CLEAN = {
    "randomized-loop": ("randomized", {"backend": "loop"}, None),
    "randomized-array": ("randomized", {"backend": "array"}, None),
    "exchange": ("exchange", {}, StrictBarter),
    "bittorrent": ("bittorrent", {}, None),
    "async": ("async", {}, None),
    "tiered": ("randomized", {"bandwidth": mix_spec("broadband")}, None),
    "lossy": ("randomized", {"faults": FaultPlan(loss_rate=0.2)}, None),
    "exchange-lossy": ("exchange", {"faults": FaultPlan(loss_rate=0.2)}, StrictBarter),
    "adversarial": (
        "randomized",
        {
            "adversary": AdversaryPlan(
                polluters=(2,), pollution_rate=0.5, liars=(3,), lie_rate=0.5
            )
        },
        None,
    ),
}


@lru_cache(maxsize=None)
def clean_run(name: str):
    """``(log, n, k, model, mechanism class, completed)`` of a clean run."""
    engine, options, mechanism = CLEAN[name]
    eng = create_engine(engine, N, K, rng=7, keep_log=True, **options)
    result = eng.run()
    assert not result.meta.get("crash_events")
    return result.log, N, K, eng.kernel.model, mechanism, result.completed


def _rows(log: TransferLog) -> list[list[tuple]]:
    return [[tuple(row) for row in log.as_lists(stream)] for stream in STREAMS]


def _rebuild(streams: list[list[tuple]]) -> TransferLog | None:
    """The log of four row lists, each sorted by tick; ``None`` when a
    row has a tick below 1 (no log holds one)."""
    try:
        return TransferLog(*(sorted(rows, key=lambda row: row[0]) for rows in streams))
    except ConfigError:
        return None


def mutants(log: TransferLog, n: int, k: int, rng: random.Random, rows: int):
    """Single-row edits of ``rows`` sampled rows of every stream: shift
    the tick by ±1, swap src and dst, duplicate the row, change its
    block, src or dst (out-of-range values included), or move it to
    another stream. Yields ``(label, mutated log)``."""
    streams = _rows(log)
    picks = [(s, i) for s, stream in enumerate(streams) for i in range(len(stream))]
    for s, i in rng.sample(picks, min(rows, len(picks))):
        tick, src, dst, block = row = streams[s][i]
        edits = [
            ("tick+1", s, (tick + 1, src, dst, block)),
            ("tick-1", s, (tick - 1, src, dst, block)),
            ("swap", s, (tick, dst, src, block)),
            ("block", s, (tick, src, dst, rng.randrange(-1, k + 1))),
            ("src", s, (tick, rng.randrange(-1, n + 1), dst, block)),
            ("dst", s, (tick, src, rng.randrange(-1, n + 1), block)),
        ] + [(f"to-{STREAMS[t]}", t, row) for t in range(len(STREAMS)) if t != s]
        for label, target, new in edits:
            edited = [list(rows) for rows in streams]
            del edited[s][i]
            edited[target].append(new)
            yield f"{STREAMS[s]}[{i}] {label}", _rebuild(edited)
        duplicated = [list(rows) for rows in streams]
        duplicated[s].append(row)
        yield f"{STREAMS[s]}[{i}] duplicate", _rebuild(duplicated)


#: Each mutant is checked under one of these, in turn: with and without
#: the completion rule, and with redundant deliveries tolerated.
OPTIONS = (
    {},
    {"require_completion": False},
    {"require_completion": False, "allow_redundant": True},
)


def _verdict(log, n, k, model, mechanism, options) -> str:
    try:
        base.verify_both(log, n, k, model, mechanism() if mechanism else None, **options)
    except ScheduleViolation as err:
        return err.rule
    return "accepted"


@pytest.mark.parametrize("name", list(CLEAN))
def test_clean_log_takes_the_proof(name):
    log, n, k, model, mechanism, completed = clean_run(name)
    report = base.verify_both(
        log, n, k, model, mechanism() if mechanism else None,
        require_completion=completed,
    )
    assert report.transfers == len(log)


@pytest.mark.parametrize("window", [5, verify_module._WINDOW_ROWS])
@pytest.mark.parametrize("name", list(CLEAN))
def test_mutants_agree(name, window, monkeypatch):
    # verify_both raises an AssertionError naming the disagreement. A
    # clean log here is one default window; 5-row windows (each about a
    # tick) carry state across windows.
    monkeypatch.setattr(verify_module, "_WINDOW_ROWS", window)
    log, n, k, model, mechanism, _ = clean_run(name)
    rng = random.Random(f"verify-proof-{name}")
    verdicts = []
    for i, (label, mutant) in enumerate(mutants(log, n, k, rng, rows=20)):
        if mutant is None:
            continue
        options = OPTIONS[i % len(OPTIONS)]
        try:
            verdicts.append(_verdict(mutant, n, k, model, mechanism, options))
        except AssertionError as err:
            raise AssertionError(f"{name}: mutant {label} with {options}: {err}") from err
    # The fuzz is not vacuous: some mutants pass and some break a rule.
    assert "accepted" in verdicts
    assert len(set(verdicts) - {"accepted"}) >= 2


def _with_failure(log: TransferLog, row: tuple) -> TransferLog:
    log.record_failure(*row)
    return log


def test_proof_accepts_exactly_the_replays_logs():
    # Hand-built logs, one per rule, called on the proof directly.
    model = BandwidthModel.double_download()
    cases = [
        (log_from([(1, 0, 1, 0), (2, 0, 2, 0), (2, 1, 3, 0)]), 4, 1, True),
        (log_from([(1, 1, 2, 0)]), 3, 1, False),  # causality
        (log_from([(1, 0, 1, 0), (1, 1, 2, 0)]), 3, 1, False),  # same tick
        (log_from([(1, 0, 1, 0), (2, 0, 1, 0)]), 2, 1, False),  # usefulness
        (log_from([(1, 0, 1, 0), (1, 0, 2, 0)]), 3, 1, False),  # upload
        (log_from([(1, 0, 1, 0), (2, 0, 2, 1), (2, 1, 2, 0), (2, 0, 2, 0)]), 3, 2, False),
        (log_from([(1, 1, 1, 0)]), 2, 1, False),  # self-transfer
        (log_from([(1, 0, 7, 0)]), 3, 1, False),  # node range
        (log_from([(1, 0, 1, 5)]), 2, 2, False),  # block range
        (log_from([(1, 0, 1, 0)]), 3, 1, False),  # completion
        # A failed send and a delivery of one block to one node in one
        # tick is legal; a failed send of a block the node holds is not.
        (_with_failure(log_from([(1, 0, 1, 0), (2, 1, 2, 0)]), (2, 0, 2, 0)), 3, 1, True),
        (_with_failure(log_from([(1, 0, 1, 0), (2, 1, 2, 0)]), (3, 0, 2, 0)), 3, 1, False),
    ]
    for log, n, k, valid in cases:
        proof = verify_module._prove(
            log, n, k, model, strict=False, require_completion=True,
            allow_redundant=False,
        )
        try:
            expected = verify_module._replay(log, n, k, model)
        except ScheduleViolation:
            expected = None
        assert (proof is not None) == (expected is not None) == valid
        assert proof == expected


@pytest.fixture
def replays(monkeypatch):
    """Calls that reach the scalar replay, recorded."""
    calls = []
    real = verify_module._replay

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(verify_module, "_replay", spy)
    return calls


class TestFastPathCoverage:
    @pytest.mark.parametrize(
        "name",
        ["randomized-loop", "randomized-array", "exchange", "bittorrent", "async", "tiered"],
    )
    def test_clean_logs_never_reach_the_replay(self, name, replays):
        log, n, k, model, mechanism, completed = clean_run(name)
        assert completed
        verify_log(log, n, k, model, mechanism() if mechanism else None)
        assert replays == []

    def test_streaming_memory_check_runs_on_the_proof(self, replays):
        base.TestVerifyStreaming().test_replay_never_materialises_the_whole_log()
        assert replays == []

    def test_crash_events_take_the_replay(self, replays):
        plan = FaultPlan(crash_rate=0.02, rejoin_delay=4, rejoin_retention=0.5, max_crashes=5)
        result = create_engine("randomized", N, K, rng=12, keep_log=True, faults=plan).run()
        assert result.meta["crash_events"]
        verify_log(
            result.log, N, K,
            require_completion=result.completed,
            crash_events=result.meta["crash_events"],
            rejoin_events=result.meta.get("rejoin_events"),
        )
        assert len(replays) == 1

    def test_strike_threshold_takes_the_replay(self, replays):
        log, n, k, model, _, completed = clean_run("adversarial")
        verify_log(log, n, k, model, require_completion=completed, strike_threshold=50)
        assert len(replays) == 1

    def test_credit_and_triangular_barter_take_the_replay(self, replays):
        eng = create_engine(
            "randomized", N, K, rng=3, keep_log=True, mechanism=CreditLimitedBarter(2)
        )
        result = eng.run()
        verify_log(
            result.log, N, K, eng.kernel.model, CreditLimitedBarter(2),
            require_completion=result.completed,
        )
        log = log_from([(1, 0, 1, 0), (2, 0, 2, 0)])
        verify_log(log, 3, 1, mechanism=TriangularBarter())
        assert len(replays) == 2

    def test_mechanism_subclass_takes_the_replay(self, replays):
        class Stricter(StrictBarter):
            pass

        verify_log(log_from([(1, 0, 1, 0), (2, 0, 2, 0)]), 3, 1, mechanism=Stricter())
        assert len(replays) == 1

    def test_overlay_takes_the_replay(self, replays):
        verify_log(log_from([(1, 0, 1, 0), (2, 1, 2, 0)]), 3, 1, overlay=chain(3))
        assert len(replays) == 1

    def test_rejected_proof_falls_back_to_the_replay(self, replays):
        with pytest.raises(ScheduleViolation) as err:
            verify_log(log_from([(1, 0, 1, 0), (1, 1, 2, 0)]), 3, 1)
        assert (err.value.rule, err.value.tick) == ("causality", 1)
        assert len(replays) == 1


_RSS_SCRIPT = textwrap.dedent(
    """
    import gc, json, resource
    import numpy as np
    from repro.core import verify
    from repro.core.log import TransferLog

    def no_replay(*args, **kwargs):
        raise AssertionError("the proof did not accept the log")

    verify._replay = no_replay
    n = k = 600
    # A chain pipeline: at tick t, node i sends block t - 1 - i to i + 1.
    log = TransferLog()
    for tick in range(1, k + n - 1):
        senders = np.arange(max(0, tick - k), min(n - 2, tick - 1) + 1)
        log.extend_batch(
            np.column_stack(
                [np.full(senders.size, tick), senders, senders + 1, tick - 1 - senders]
            )
        )
    gc.collect()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report = verify.verify_log(log, n, k)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"grew": (after - before) * 1024, "rows": report.transfers,
                      "complete": report.all_complete}))
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KB on Linux")
def test_proof_peak_rss_is_n_by_k():
    n = k = 600
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    measured = json.loads(out.stdout)
    assert measured["rows"] == (n - 1) * k and measured["complete"]
    assert measured["grew"] <= n * k * 4 + 2 * 2**20
