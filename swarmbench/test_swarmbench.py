"""Self-test of the swarm benchmark, every workload at smoke sizes.

``--smoke`` shrinks n, k and replica counts only; every check still runs.
From the repository root::

    python3 -m pytest swarmbench/test_swarmbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    MANIFEST = json.load(_handle)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
SEED = 3

#: Spans each workload's traced run must contain, one per layer it exercises.
LAYERS = {
    "paper-n1000": {"randomized.policy.run_tick", "core.verify"},
    "engines-n128": {
        "exchange.policy.run_tick",
        "bittorrent.policy.run_tick",
        "coding.policy.run_tick",
        "async.policy.run_tick",
        "core.verify",
        "coding.verify",
    },
    "scenario-n512": {
        "randomized.policy.run_tick",
        "bittorrent.policy.run_tick",
        "sim.membership",
        "faults.begin_tick",
        "checkpoint.capture",
        "checkpoint.save",
        "checkpoint.load",
        "checkpoint.restore",
        "telemetry.digest",
        "core.verify",
    },
    "campaign-ci": {
        "campaign.sweep",
        "campaign.cache.put",
        "campaign.cache.get",
        "randomized.policy.run_tick",
        "exchange.policy.run_tick",
        "bittorrent.policy.run_tick",
        "coding.policy.run_tick",
        "core.verify",
        "coding.verify",
    },
}


def _bench(capsys, workload: str, trace: int):
    code = bench.main(
        [
            "--workload", workload,
            "--seed", str(SEED),
            "--seconds", "0",
            "--trace", str(trace),
            "--smoke",
        ]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def _printed(lines: list[str], workload: str, name: str) -> list[str]:
    return [line.split() for line in lines if line.startswith(f"{workload} {name} ")]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(capsys, workload):
    code, lines, result = _bench(capsys, workload, trace=0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["end_to_end"]}
    for spec in MANIFEST["end_to_end"]:
        [printed] = _printed(lines, workload, spec["name"])
        assert printed[-1] == spec["unit"]
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert result["metrics"][spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_reports_every_layer_and_writes_spans(capsys, workload):
    code, lines, result = _bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in MANIFEST["per_layer"]}
    for spec in MANIFEST["per_layer"]:
        [printed] = _printed(lines, workload, spec["name"])
        assert printed[-1] == spec["unit"]
    out_dir = os.path.join(ROOT, ".swarmbench", "trace", f"{workload}-seed{SEED}")
    with open(os.path.join(out_dir, "spans.jsonl"), encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    names = {span["name"] for span in spans}
    assert {"iteration", "sim.kernel.step", "core.state.begin_tick"} | LAYERS[workload] <= names
    assert all(span["end_ns"] >= span["start_ns"] for span in spans)
    assert result["metrics"]["sim.kernel.ticks"]["value"] > 0


def test_a_corrupted_transfer_log_is_a_failed_check(capsys, monkeypatch):
    bench.use_checkout_source()
    import workloads

    run = workloads.Workload._run

    def corrupting_run(self, engine, rec):
        result = run(self, engine, rec)
        last = list(result.log)[-1]
        # The same delivery twice in one tick: redundant, and over capacity.
        result.log.record(last.tick, last.src, last.dst, last.block)
        return result

    monkeypatch.setattr(workloads.Workload, "_run", corrupting_run)
    code, _, result = _bench(capsys, "paper-n1000", trace=0)
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "swarmbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "swarmbench/bench.py", "--workload", "paper-n1000", "--seed", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
