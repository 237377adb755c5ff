"""Differential test: the coding engine's receiver search against a
reference that rebuilds every snapshot and scans every node.

Per tick, ``CodingTickPolicy`` reuses a node's canonical basis copy while
the basis is the same object at the same rank, and on the complete graph
draws receivers from one ascending list of open nodes (present, download
slot left, not decodable) pruned after each attempt. The reference below
keeps the original rules: a fresh canonical copy of every basis each
tick, rebuilt row by row, and a scan of ``range(n)`` (or the overlay
neighbours) with every eligibility test per node. Both must make the
same decisions and RNG draws, so logs, metadata (coded vectors
included) and the final RNG state must match.
"""

from __future__ import annotations

import pytest

from repro.coding.engine import CodingTickPolicy
from repro.coding.gf2 import Gf2Basis
from repro.core.model import BandwidthModel
from repro.core.serde import log_to_dict
from repro.experiments.heterogeneity import mix_spec
from repro.faults.plan import FaultPlan
from repro.overlays.graph import CompleteGraph
from repro.overlays.random_regular import random_regular_graph
from repro.sim.registry import create_engine


def _reference_snapshots(self):
    return [
        Gf2Basis.restore_rows(b.k, sorted(b._rows.items(), reverse=True))
        for b in self.bases
    ]


def _reference_pick(self, src, src_basis, receivers):
    kernel = self.kernel
    bases = self.bases
    dl_left = kernel.download_ledger
    full = (1 << kernel.k) - 1
    if isinstance(kernel.graph, CompleteGraph):
        scan = range(kernel.n)
    else:
        scan = kernel.graph.neighbors(src)
    pool = [
        v
        for v in scan
        if v != src
        and v not in kernel.absent
        and (dl_left is None or dl_left[v] > 0)
        and bases[v].pivots != full
        and src_basis.has_innovative_for(bases[v])
    ]
    if not pool:
        return None
    return pool[kernel.rng.randrange(len(pool))]


SCENARIOS = {
    "plain": dict(),
    "crash": dict(
        faults=FaultPlan(
            loss_rate=0.1,
            crash_rate=0.03,
            rejoin_delay=3,
            rejoin_retention=0.5,
            max_crashes=8,
        )
    ),
    "tiers": dict(bandwidth=mix_spec("broadband")),
    "d2": dict(model=BandwidthModel(download=2)),
    "dnone": dict(model=BandwidthModel(download=None)),
    "overlay": dict(overlay=random_regular_graph(40, 4, rng=5)),
    "ideal": dict(field="ideal"),
}


def _outcome(scenario: str, seed: int):
    engine = create_engine(
        "coding", 40, 20, rng=seed, keep_log=True, **SCENARIOS[scenario]
    )
    result = engine.run()
    return (
        log_to_dict(result.log, 40, 20),
        [(t.tick, t.src, t.dst, t.block) for t in result.log.failures],
        result.meta,
        result.completion_time,
        engine.kernel.tick,
        engine.kernel.rng.getstate(),
    )


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_open_receivers_match_full_scan(scenario, seed, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(CodingTickPolicy, "_snapshots", _reference_snapshots)
        patch.setattr(CodingTickPolicy, "_pick_destination", _reference_pick)
        expected = _outcome(scenario, seed)
    assert expected[0]["transfers"], "scenario delivered nothing"
    assert _outcome(scenario, seed) == expected
