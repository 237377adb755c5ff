"""The benchmark harness keeps a corrupt trajectory file instead of
silently wiping it.

``benchmarks/`` is not a package, so the harness is loaded by path.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_HARNESS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "_harness.py",
)


@pytest.fixture(scope="module")
def harness():
    spec = importlib.util.spec_from_file_location("bench_harness", _HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corrupt_file_is_kept_and_replaced(harness, tmp_path):
    path = tmp_path / "BENCH_x.json"
    torn = b'{"array_vs_loop": {"speedup": 2.5'
    path.write_bytes(torn)
    with pytest.warns(UserWarning, match="BENCH_x.json"):
        harness.update_bench_json(str(path), "section", {"value": 1})
    assert (tmp_path / "BENCH_x.json.corrupt").read_bytes() == torn
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["section"] == {"value": 1}
    assert "git_rev" in doc
    assert not (tmp_path / "BENCH_x.json.tmp").exists()


def test_sections_merge(harness, tmp_path):
    path = str(tmp_path / "BENCH_y.json")
    harness.update_bench_json(path, "a", {"x": 1})
    harness.update_bench_json(path, "b", {"y": 2})
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    assert doc["a"] == {"x": 1} and doc["b"] == {"y": 2}
