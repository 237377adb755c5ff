"""Every overhead-bench arm arms what it claims, at a size tier-1 affords.

Each arm's sanity check (``check`` in ``benchmarks/bench_overhead.py``)
runs plain and armed at n = k = 16: zero-draw arms keep the plain
trajectory, the inert injector fails nothing, the inert adversary
pollutes nothing, telemetry records waits and the checkpoint file is
written. ``benchmarks/`` is not a package, so the module is loaded by
path with its directory on ``sys.path`` for ``_harness``.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import replace

import pytest

_BENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)

with pytest.MonkeyPatch.context() as _mp:
    _mp.syspath_prepend(_BENCH)
    _spec = importlib.util.spec_from_file_location(
        "bench_overhead", os.path.join(_BENCH, "bench_overhead.py")
    )
    bench = importlib.util.module_from_spec(_spec)
    # dataclasses resolves the module's annotations through sys.modules.
    _mp.setitem(sys.modules, "bench_overhead", bench)
    _spec.loader.exec_module(bench)


@pytest.mark.parametrize("arm", bench.ARMS, ids=lambda arm: arm.name)
def test_arm_sanity_at_n16(arm, tmp_path):
    # A 16-node run ends before tick 50, so checkpoint more often.
    small = replace(
        arm, n=16, k=16, checkpoint_every=min(arm.checkpoint_every, 4)
    )
    bench.check(small, str(tmp_path))
