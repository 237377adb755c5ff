"""Tests for transfer logs and run results."""

from __future__ import annotations

import os
import pickle
import random
import subprocess
import sys
import textwrap
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.core.errors import ConfigError
from repro.core.log import CHUNK_ROWS, STREAMS, RunResult, Transfer, TransferLog

from ..conftest import log_from


class TestTransferLog:
    def test_append_and_iterate(self):
        log = TransferLog()
        log.record(1, 0, 1, 0)
        log.record(2, 1, 2, 0)
        assert len(log) == 2
        assert log[0] == Transfer(1, 0, 1, 0)
        assert [t.tick for t in log] == [1, 2]

    def test_rejects_tick_zero(self):
        log = TransferLog()
        with pytest.raises(ConfigError):
            log.record(0, 0, 1, 0)

    def test_rejects_out_of_order(self):
        log = TransferLog()
        log.record(3, 0, 1, 0)
        with pytest.raises(ConfigError):
            log.record(2, 0, 1, 1)

    def test_out_of_order_message_names_both_ticks(self):
        # The error must say what order was violated, with both ticks, so
        # an engine bug is locatable from the message alone.
        log = TransferLog()
        log.record(5, 0, 1, 0)
        with pytest.raises(ConfigError, match=r"tick order.*4.*after.*5"):
            log.append(Transfer(4, 0, 1, 1))

    def test_out_of_order_via_constructor(self):
        with pytest.raises(ConfigError, match="tick order"):
            TransferLog([Transfer(2, 0, 1, 0), Transfer(1, 0, 1, 1)])

    def test_same_tick_allowed(self):
        log = TransferLog()
        log.record(1, 0, 1, 0)
        log.record(1, 0, 2, 0)
        assert log.last_tick == 1

    def test_by_tick_groups(self):
        log = log_from([(1, 0, 1, 0), (1, 0, 2, 0), (3, 1, 2, 0)])
        grouped = log.by_tick()
        assert set(grouped) == {1, 3}
        assert len(grouped[1]) == 2

    def test_uploads_per_tick_includes_idle(self):
        log = log_from([(1, 0, 1, 0), (3, 1, 2, 0)])
        assert log.uploads_per_tick() == [1, 0, 1]

    def test_completion_ticks(self):
        # n=3, k=2: client 1 completes at tick 3, client 2 at tick 4.
        log = log_from(
            [(1, 0, 1, 0), (2, 0, 2, 1), (3, 2, 1, 1), (3, 1, 2, 0)]
        )
        done = log.completion_ticks(3, 2)
        assert done == {1: 3, 2: 3}

    def test_completion_ignores_redundant(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 1, 0)])
        assert log.completion_ticks(2, 1) == {1: 1}

    def test_completion_rejects_bad_destination(self):
        log = log_from([(1, 0, 9, 0)])
        with pytest.raises(ConfigError):
            log.completion_ticks(3, 1)

    def test_final_masks(self):
        log = log_from([(1, 0, 1, 0), (2, 1, 2, 0)])
        masks = log.final_masks(3, 2)
        assert masks[0] == 0b11  # server complete from the start
        assert masks[1] == 0b01
        assert masks[2] == 0b01

    @pytest.mark.parametrize(
        "row, match",
        [
            ((1, 0, -1, 0), "destination -1 outside 0..2"),
            ((1, 0, 1, 2), "block 2 outside 0..1"),
            ((1, 0, 1, -1), "block -1 outside 0..1"),
        ],
    )
    def test_out_of_range_rows_raise_config_error(self, row, match):
        # A block outside 0..k-1 used to block completion silently
        # (block >= k) or raise a bare ValueError (negative block).
        log = log_from([(1, 0, 2, 0), row])
        with pytest.raises(ConfigError, match=match):
            log.completion_ticks(3, 2)
        with pytest.raises(ConfigError, match=match):
            log.final_masks(3, 2)


class TestRunResult:
    def test_from_log_complete(self):
        log = log_from([(1, 0, 1, 0), (2, 0, 2, 0)])
        r = RunResult.from_log(3, 1, log)
        assert r.completed
        assert r.completion_time == 2
        assert r.client_completions == {1: 1, 2: 2}
        assert r.mean_completion == 1.5

    def test_from_log_incomplete(self):
        log = log_from([(1, 0, 1, 0)])
        r = RunResult.from_log(3, 1, log)
        assert not r.completed
        assert r.completion_time is None
        assert r.mean_completion is None

    def test_meta_preserved(self):
        r = RunResult.from_log(2, 1, log_from([(1, 0, 1, 0)]), {"algorithm": "x"})
        assert r.meta["algorithm"] == "x"


def _four_stream_log() -> TransferLog:
    log = TransferLog()
    log.record(1, 0, 1, 0)
    log.record_failure(1, 0, 2, 1)
    log.record(2, 1, 2, 0)
    log.record_polluted(2, 2, 1, 1)
    log.record_phantom(3, 1, 2, 1)
    log.record(3, 0, 2, 1)
    return log


STREAM_ROWS = {
    "transfers": lambda log: list(log),
    "failures": lambda log: list(log.failures),
    "polluted": lambda log: list(log.polluted),
    "phantoms": lambda log: list(log.phantoms),
}

RECORDERS = {
    "transfers": "record",
    "failures": "record_failure",
    "polluted": "record_polluted",
    "phantoms": "record_phantom",
}

# How each stream's tick-order error names it (the record path's wording).
STREAM_LABELS = {
    "transfers": "transfers",
    "failures": "failures",
    "polluted": "polluted rows",
    "phantoms": "phantom rows",
}


class TestExtendBatch:
    @pytest.mark.parametrize("stream", STREAMS)
    def test_tick_order_error_names_the_stream(self, stream):
        log = TransferLog()
        log.extend_batch(**{stream: [(5, 0, 1, 0)]})
        with pytest.raises(
            ConfigError, match=rf"^{STREAM_LABELS[stream]} must be appended "
            rf"in tick order \(4 after 5\)"
        ):
            log.extend_batch(**{stream: [(4, 0, 1, 1)]})

    @pytest.mark.parametrize("stream", STREAMS)
    def test_unordered_batch_names_the_stream(self, stream):
        with pytest.raises(ConfigError, match=rf"^{STREAM_LABELS[stream]} batch"):
            TransferLog().extend_batch(**{stream: [(2, 0, 1, 0), (1, 0, 1, 1)]})

    def test_streams_keep_independent_tick_order(self):
        log = TransferLog()
        log.extend_batch([(5, 0, 1, 0)], [(1, 0, 2, 0)], [(2, 1, 2, 0)], [(3, 2, 1, 0)])
        assert [log.last_tick, log.last_attempt_tick] == [5, 5]
        assert log.failures == (Transfer(1, 0, 2, 0),)

    def test_rejects_malformed_rows(self):
        with pytest.raises(ConfigError, match="failures batch must be"):
            TransferLog().extend_batch(failures=[(1, 0, 1)])

    def test_accepts_an_integer_array(self):
        rows = np.array([[1, 0, 1, 0], [2, 1, 2, 0]], dtype=np.int64)
        log = TransferLog()
        log.extend_batch(rows)
        assert list(log) == [Transfer(1, 0, 1, 0), Transfer(2, 1, 2, 0)]


class TestInt32Bounds:
    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize(
        "row, bad",
        [
            ((2**31, 0, 1, 0), 2**31),
            ((5, 2**31, 1, 0), 2**31),
            ((5, 0, -(2**31) - 1, 0), -(2**31) - 1),
            ((5, 0, 1, 2**40), 2**40),
            ((5, 0, 1, 2**70), 2**70),
        ],
    )
    def test_record_rejects_loudly_and_keeps_columns_aligned(self, stream, row, bad):
        log = _four_stream_log()
        before = STREAM_ROWS[stream](log)
        with pytest.raises(ConfigError, match=rf"^{stream} row value {bad} "):
            getattr(log, RECORDERS[stream])(*row)
        assert STREAM_ROWS[stream](log) == before
        assert {len(c) for c in log.columns(stream)} == {len(before)}
        getattr(log, RECORDERS[stream])(5, 1, 0, 1)
        assert STREAM_ROWS[stream](log)[-1] == Transfer(5, 1, 0, 1)

    @pytest.mark.parametrize("stream", STREAMS)
    @pytest.mark.parametrize("bad", [2**31, -(2**31) - 1, 2**70])
    def test_extend_batch_rejects_loudly(self, stream, bad):
        log = _four_stream_log()
        before = STREAM_ROWS[stream](log)
        with pytest.raises(ConfigError, match=rf"^{stream} row value {bad} "):
            log.extend_batch(**{stream: [(4, 0, 1, 0), (4, 1, bad, 0)]})
        assert STREAM_ROWS[stream](log) == before

    def test_int32_extremes_round_trip(self):
        lo, hi = -(2**31), 2**31 - 1
        log = TransferLog()
        log.record(hi, lo, hi, lo)
        log.extend_batch(failures=[(hi, hi, lo, hi)])
        assert log[0] == Transfer(hi, lo, hi, lo)
        assert log.failures == (Transfer(hi, hi, lo, hi),)

    def test_non_integers_are_rejected(self):
        with pytest.raises(ConfigError, match=r"^transfers row value 1.5 "):
            TransferLog().record(1, 0, 1, 1.5)
        with pytest.raises(ConfigError, match=r"^polluted row value 1.5 "):
            TransferLog().extend_batch(polluted=[(1, 0, 1, 1.5)])


class TestColumns:
    @pytest.mark.parametrize("stream", STREAMS)
    def test_read_only_int32_views_equal_the_rows(self, stream):
        log = _four_stream_log()
        cols = log.columns(stream)
        assert len(cols) == 4
        for col in cols:
            assert col.dtype == np.int32
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[:1] = 99
        rows = [Transfer(*map(int, r)) for r in zip(*cols)]
        assert rows == STREAM_ROWS[stream](log)
        assert log.as_lists(stream) == [list(r) for r in rows]

    @pytest.mark.parametrize("stream", STREAMS)
    def test_empty_streams(self, stream):
        cols = TransferLog().columns(stream)
        assert [c.shape for c in cols] == [(0,)] * 4
        assert all(c.dtype == np.int32 for c in cols)
        assert TransferLog().as_lists(stream) == []

    def test_views_share_memory_with_the_log(self):
        log = _four_stream_log()
        a, b = log.columns()[0], log.columns()[0]
        assert np.shares_memory(a, b)

    @pytest.mark.parametrize("stream", STREAMS)
    def test_a_held_view_is_a_snapshot_and_appends_still_work(self, stream):
        log = _four_stream_log()
        held = log.columns(stream)
        size = len(held[0])
        recorder = getattr(log, RECORDERS[stream])
        recorder(9, 0, 1, 1)
        log.extend_batch(**{stream: [(9, 1, 0, 1)]})
        held_again = log.columns(stream)
        recorder(10, 0, 1, 1)
        assert len(held[0]) == size and len(held_again[0]) == size + 2
        assert len(log.columns(stream)[0]) == size + 3
        assert STREAM_ROWS[stream](log)[-3:] == [
            Transfer(9, 0, 1, 1),
            Transfer(9, 1, 0, 1),
            Transfer(10, 0, 1, 1),
        ]

    def test_unknown_stream(self):
        with pytest.raises(ConfigError, match="unknown log stream"):
            TransferLog().columns("deliveries")


class TestColumnarStorage:
    def test_pickle_round_trip_keeps_all_four_streams(self):
        log = _four_stream_log()
        back = pickle.loads(pickle.dumps(log))
        for stream in STREAMS:
            assert STREAM_ROWS[stream](back) == STREAM_ROWS[stream](log)
        assert back.last_tick == log.last_tick
        assert back.last_attempt_tick == log.last_attempt_tick
        # Each stream's tick-order state survives too.
        with pytest.raises(ConfigError, match=r"transfers .* \(2 after 3\)"):
            back.record(2, 0, 1, 0)
        back.record_failure(1, 0, 1, 0)
        back.record_phantom(3, 2, 1, 0)
        assert back.phantom_count == log.phantom_count + 1

    def test_memory_per_row(self):
        rows = 200_000
        tracemalloc.start()
        try:
            log = TransferLog()
            for i in range(rows):
                log.record(1 + i // 1000, i % 997, i % 991, i % 983)
            current, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(log) == rows
        assert current / rows <= 24

    def test_by_tick_and_uploads_match_the_row_definitions(self):
        rnd = random.Random(11)
        entries = sorted(
            (rnd.randint(1, 40), rnd.randrange(50), rnd.randrange(50), rnd.randrange(9))
            for _ in range(2000)
        )
        log = log_from(entries)
        grouped: dict[int, list[Transfer]] = defaultdict(list)
        for t in log:
            grouped[t.tick].append(t)
        assert log.by_tick() == dict(grouped)
        counts = [0] * log.last_tick
        for t in log:
            counts[t.tick - 1] += 1
        assert log.uploads_per_tick() == counts
        assert [tick for tick, _ in log.groups()] == sorted(grouped)

    def test_by_tick_of_every_stream(self):
        log = _four_stream_log()
        assert log.by_tick("failures") == {1: [Transfer(1, 0, 2, 1)]}
        assert log.by_tick("polluted") == {2: [Transfer(2, 2, 1, 1)]}
        assert log.by_tick("phantoms") == {3: [Transfer(3, 1, 2, 1)]}
        assert TransferLog().by_tick() == {}
        assert TransferLog().uploads_per_tick() == []

    def test_indexing(self):
        log = _four_stream_log()
        assert log[-1] == Transfer(3, 0, 2, 1)
        assert log[0:2] == [Transfer(1, 0, 1, 0), Transfer(2, 1, 2, 0)]
        with pytest.raises(IndexError):
            log[3]


def _scalar_completions(rows, n: int, k: int) -> dict[int, int]:
    """The row-by-row definition of :meth:`TransferLog.completion_ticks`."""
    held = [0] * n
    done: dict[int, int] = {}
    for tick, _, dst, block in rows:
        if held[dst] >> block & 1:
            continue
        held[dst] |= 1 << block
        if held[dst] == (1 << k) - 1 and dst != 0:
            done[dst] = tick
    return done


def _random_deliveries(rnd: random.Random, n: int, k: int, repeats: float):
    """Tick-ordered rows delivering blocks in random order; a share of
    rows re-delivers a block the node already got (redundant sends, or a
    crashed node fetching a block again)."""
    wanted = [(dst, block) for dst in range(n) for block in range(k)]
    rnd.shuffle(wanted)
    rows, given, tick = [], [], 1
    for dst, block in wanted:
        if given and rnd.random() < repeats:
            rows.append((tick, 0, *rnd.choice(given)))
        rows.append((tick, 0, dst, block))
        given.append((dst, block))
        if rnd.random() < 0.02:
            tick += 1
    return rows


def _chunk_lengths(log: TransferLog, stream: str = "transfers") -> list[int]:
    return [len(cols[3]) for cols in log._stream(stream).chunks()]


class TestCompletionTicks:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_scalar_reference_in_completion_order(self, seed):
        rnd = random.Random(seed)
        n, k = rnd.randint(2, 40), rnd.randint(1, 400)
        rows = _random_deliveries(rnd, n, k, repeats=rnd.choice([0.0, 0.05, 0.3]))
        rows = rows[: rnd.randint(len(rows) // 2, len(rows))]
        log = TransferLog()
        log.extend_batch(rows)
        expected = _scalar_completions(rows, n, k)
        assert list(log.completion_ticks(n, k).items()) == list(expected.items())

    def test_repeats_inside_one_chunk_count_once(self):
        # Node 1 gets block 0 three times before block 1: it completes on
        # the row delivering block 1, not on the third copy of block 0.
        rows = [(1, 0, 1, 0), (1, 0, 1, 0), (2, 0, 1, 0), (3, 0, 2, 0), (3, 0, 2, 1),
                (4, 0, 1, 1)]
        assert log_from(rows).completion_ticks(3, 2) == {2: 3, 1: 4}
        assert list(log_from(rows).completion_ticks(3, 2)) == [2, 1]

    def test_server_and_empty_logs(self):
        log = log_from([(1, 1, 0, 0), (2, 0, 1, 0)])
        assert log.completion_ticks(2, 1) == {1: 2}
        assert TransferLog().completion_ticks(5, 3) == {}
        assert TransferLog().final_masks(3, 2) == [0b11, 0, 0]

    def test_final_masks_match_the_scalar_definition(self):
        rnd = random.Random(3)
        n, k = 30, 70
        rows = _random_deliveries(rnd, n, k, repeats=0.1)[:1500]
        held = [0] * n
        held[0] = (1 << k) - 1
        for _, _, dst, block in rows:
            held[dst] |= 1 << block
        log = TransferLog()
        log.extend_batch(rows)
        assert log.final_masks(n, k) == held


class TestChunks:
    ROWS = 2 * CHUNK_ROWS + 123

    def _rows(self, count: int, per_tick: int = 997):
        return [
            (1 + i // per_tick, i % 61, i % 59, i % 53) for i in range(count)
        ]

    @pytest.mark.parametrize("stream", STREAMS)
    def test_no_column_exceeds_the_chunk_size(self, stream):
        recorded, batched = TransferLog(), TransferLog()
        record = getattr(recorded, RECORDERS[stream])
        for row in self._rows(self.ROWS):
            record(*row)
        batched.extend_batch(**{stream: self._rows(self.ROWS)})
        for log in (recorded, batched):
            chunks = log._stream(stream).chunks()
            assert all(len(col) <= CHUNK_ROWS for cols in chunks for col in cols)
            assert _chunk_lengths(log, stream) == [CHUNK_ROWS, CHUNK_ROWS, 123]
            assert STREAM_ROWS[stream](log) == [Transfer(*r) for r in self._rows(self.ROWS)]

    @pytest.mark.parametrize("stream", STREAMS)
    def test_columns_equal_the_row_by_row_definition(self, stream):
        rows = self._rows(self.ROWS)
        log = TransferLog()
        log.extend_batch(**{stream: rows})
        cols = log.columns(stream)
        for i, col in enumerate(cols):
            assert col.dtype == np.int32 and not col.flags.writeable
            assert col.tolist() == [row[i] for row in rows]
        assert log.as_lists(stream) == [list(row) for row in rows]
        assert len(log.columns(stream)[0]) == self.ROWS

    @pytest.mark.parametrize(
        "per_tick", [1, 7, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 5, 3 * CHUNK_ROWS]
    )
    def test_groups_merge_a_tick_split_across_a_seal(self, per_tick):
        rows = self._rows(self.ROWS, per_tick)
        log = TransferLog()
        log.extend_batch(rows)
        expected: dict[int, list[Transfer]] = defaultdict(list)
        for row in rows:
            expected[row[0]].append(Transfer(*row))
        groups = list(log.groups())
        assert [tick for tick, _ in groups] == sorted(expected)
        assert dict(groups) == dict(expected)
        counts = [0] * log.last_tick
        for row in rows:
            counts[row[0] - 1] += 1
        assert log.uploads_per_tick() == counts

    def test_extend_batch_fills_the_live_chunk_before_sealing(self):
        log = TransferLog()
        first = self._rows(CHUNK_ROWS - 2)
        for row in first:
            log.record(*row)
        last_tick = first[-1][0]
        batch = [(last_tick, 1, 2, 3)] * 5 + [(last_tick + 1, 2, 3, 4)] * CHUNK_ROWS
        log.extend_batch(batch)
        log.record(last_tick + 2, 0, 1, 2)
        assert _chunk_lengths(log) == [CHUNK_ROWS, CHUNK_ROWS, 4]
        assert list(log) == [Transfer(*r) for r in first + batch] + [
            Transfer(last_tick + 2, 0, 1, 2)
        ]
        assert log[CHUNK_ROWS - 1] == Transfer(last_tick, 1, 2, 3)
        assert log[-1] == Transfer(last_tick + 2, 0, 1, 2)
        assert log[-CHUNK_ROWS - 1] == Transfer(last_tick + 1, 2, 3, 4)
        with pytest.raises(IndexError):
            log[len(log)]

    def test_a_held_view_survives_appends_across_a_seal(self):
        log = TransferLog()
        log.extend_batch(self._rows(CHUNK_ROWS - 1))
        held = log.columns()
        log.extend_batch([(99, 1, 2, 3)] * 3)
        log.record(99, 4, 5, 6)
        assert len(held[0]) == CHUNK_ROWS - 1
        assert held[0].tolist() == [row[0] for row in self._rows(CHUNK_ROWS - 1)]
        assert len(log) == CHUNK_ROWS + 3 and log[-1] == Transfer(99, 4, 5, 6)

    @pytest.mark.parametrize("stream", STREAMS)
    def test_int32_rollback_across_a_seal(self, stream):
        log = TransferLog()
        record = getattr(log, RECORDERS[stream])
        rows = self._rows(CHUNK_ROWS)
        for row in rows:
            record(*row)
        # The live chunk is full: the bad row seals it, then fails on the
        # fresh chunk, which must be left empty and aligned.
        with pytest.raises(ConfigError, match=rf"^{stream} row value {2**40} "):
            record(rows[-1][0], 0, 1, 2**40)
        with pytest.raises(ConfigError, match=rf"^{stream} row value {2**31} "):
            log.extend_batch(**{stream: [(rows[-1][0], 0, 1, 0), (2**31, 0, 1, 0)]})
        assert {len(c) for c in log.columns(stream)} == {CHUNK_ROWS}
        record(rows[-1][0], 7, 8, 9)
        assert STREAM_ROWS[stream](log) == [Transfer(*r) for r in rows] + [
            Transfer(rows[-1][0], 7, 8, 9)
        ]
        assert _chunk_lengths(log, stream) == [CHUNK_ROWS, 1]

    def test_pickle_round_trip_of_a_200k_row_log(self):
        rows = self._rows(200_000)
        log = TransferLog()
        log.extend_batch(rows, failures=rows[:CHUNK_ROWS + 3])
        back = pickle.loads(pickle.dumps(log))
        assert len(back) == 200_000 and back.failed_count == CHUNK_ROWS + 3
        for stream in ("transfers", "failures"):
            for mine, theirs in zip(back.columns(stream), log.columns(stream)):
                assert np.array_equal(mine, theirs)
        assert _chunk_lengths(back) == _chunk_lengths(log)
        back.record(back.last_tick, 1, 2, 3)
        assert back[-1] == Transfer(back.last_tick, 1, 2, 3)
        assert len(log) == 200_000

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="glibc heap")
    def test_repeated_long_logs_do_not_grow_the_heap(self):
        # Three 600k-row logs built one after another in a fresh process:
        # the third may not raise peak RSS much more than the first did.
        script = textwrap.dedent(
            """
            import gc, resource
            from repro.core.log import TransferLog

            def peak():
                return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

            base, rises = peak(), []
            for _ in range(3):
                log = TransferLog()
                for i in range(600_000):
                    log.record(1 + i // 1000, i % 997, i % 991, i % 983)
                del log
                gc.collect()
                rises.append(peak() - base)
            print(*rises)
            """
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        ))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True,
            check=True, timeout=300,
        )
        first, _, third = map(int, out.stdout.split())
        assert third <= 1.15 * first, out.stdout


class TestWindows:
    """``windows()``: every stream walked together on tick boundaries."""

    def _log(self, per_tick: int) -> TransferLog:
        # Four streams with different densities, so windows cut each one
        # at a different row and ticks straddle the seals.
        log = TransferLog()
        for s, (stream, density) in enumerate(zip(STREAMS, (1, 3, 11, 29))):
            count = (2 * CHUNK_ROWS + 123) // density
            step = max(1, per_tick // density)
            rows = [(1 + i // step, s, i % 59, i % 53) for i in range(count)]
            log.extend_batch(**{stream: rows})
        return log

    @pytest.mark.parametrize("rows", [1, 100, CHUNK_ROWS])
    @pytest.mark.parametrize("per_tick", [1, 7, CHUNK_ROWS - 1, CHUNK_ROWS + 5, 3 * CHUNK_ROWS])
    def test_windows_cut_every_stream_on_tick_boundaries(self, per_tick, rows):
        log = self._log(per_tick)
        seen = {stream: [] for stream in STREAMS}
        previous = 0
        for window in log.windows(rows):
            assert len(window) == len(STREAMS)
            ticks = np.concatenate([cols[0] for cols in window])
            assert ticks.size and ticks.min() > previous
            previous = ticks.max()
            for stream, cols in zip(STREAMS, window):
                assert all(col.dtype == np.int32 and not col.flags.writeable for col in cols)
                tick = cols[0]
                # At most `rows` rows, plus the rest of the window's last tick.
                assert tick.size <= rows + np.count_nonzero(tick == previous)
                seen[stream] += np.column_stack(cols).tolist()
        for stream in STREAMS:
            assert seen[stream] == log.as_lists(stream)

    def test_empty_log_and_bad_row_count(self):
        assert list(TransferLog().windows(CHUNK_ROWS)) == []
        with pytest.raises(ConfigError):
            next(TransferLog().windows(0))
