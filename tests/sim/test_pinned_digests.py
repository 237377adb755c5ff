"""Pinned sha256 digests of coding and async runs.

The destination searches of the coding and async engines have O(1)
shortcuts and an idle-retry filter that must never change a decision or
an RNG draw. These digests were captured from the exhaustive scans
before the shortcuts existed; every run below must keep reproducing its
log (deliveries, failures) and metadata byte for byte.

Print the current digests (only legitimate when a spec itself changes)::

    PYTHONPATH=src python tests/sim/test_pinned_digests.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.adversary import AdversaryPlan
from repro.core.serde import log_to_dict
from repro.experiments.heterogeneity import mix_spec
from repro.faults.plan import FaultPlan
from repro.overlays.random_regular import random_regular_graph
from repro.sim.registry import create_engine
from repro.workloads.spec import FlashCrowd, WorkloadSpec

_CRASH = FaultPlan(
    loss_rate=0.1,
    crash_rate=0.02,
    rejoin_delay=4,
    rejoin_retention=0.5,
    max_crashes=6,
)
_FLASH = WorkloadSpec(
    initial_fraction=0.5, flash_crowds=(FlashCrowd(3, 20, 4),)
)
_RIDERS = AdversaryPlan(free_rider_fraction=0.15)


def _strategy(name: str, n: int):
    from repro.asynchronous import strategies

    if name == "hypercube":
        return strategies.AsyncHypercube(n)
    return getattr(strategies, name)()


def _drift(n: int) -> list[float]:
    return [1.0 + 0.13 * (v % 5) for v in range(n)]


SPECS = {
    **{
        f"{engine}-n64-s{seed}": (engine, 64, 32, {"rng": seed})
        for engine in ("coding", "async")
        for seed in (1, 2, 3)
    },
    "coding-crash": ("coding", 48, 24, {"rng": 4, "faults": _CRASH}),
    "coding-tiers": ("coding", 48, 24, {"rng": 5, "bandwidth": "broadband"}),
    "coding-flash-riders": (
        "coding", 48, 24, {"rng": 6, "workload": _FLASH, "adversary": _RIDERS}
    ),
    "coding-overlay": ("coding", 40, 16, {"rng": 7, "overlay": 4}),
    "coding-ideal": ("coding", 32, 16, {"rng": 8, "field": "ideal"}),
    "async-crash": ("async", 48, 24, {"rng": 4, "faults": _CRASH}),
    "async-tiers": ("async", 48, 24, {"rng": 5, "bandwidth": "broadband"}),
    "async-flash-riders": (
        "async", 48, 24, {"rng": 6, "workload": _FLASH, "adversary": _RIDERS}
    ),
    "async-overlay": ("async", 40, 16, {"rng": 7, "overlay": 4}),
    "async-rarest-par2-drift": (
        "async", 48, 24,
        {"rng": 8, "strategy": "AsyncRarest", "parallel_downloads": 2,
         "upload_rates": "drift"},
    ),
    "async-random-par2-drift": (
        "async", 48, 24,
        {"rng": 9, "parallel_downloads": 2, "download_rates": "drift"},
    ),
    "async-hypercube-drift": (
        "async", 32, 16,
        {"rng": 10, "strategy": "hypercube", "upload_rates": "drift"},
    ),
}


def _build(name: str):
    engine, n, k, options = SPECS[name]
    kw = dict(options)
    if "bandwidth" in kw:
        kw["bandwidth"] = mix_spec(kw["bandwidth"])
    if "overlay" in kw:
        kw["overlay"] = random_regular_graph(n, kw["overlay"], rng=kw["rng"])
    if "strategy" in kw:
        kw["strategy"] = _strategy(kw["strategy"], n)
    for key in ("upload_rates", "download_rates"):
        if key in kw:
            kw[key] = _drift(n)
    return create_engine(engine, n, k, keep_log=True, **kw)


def run_digest(name: str) -> str:
    """sha256 over the run's log document, metadata and completions."""
    _, n, k, _ = SPECS[name]
    result = _build(name).run()
    doc = {
        "log": log_to_dict(result.log, n, k),
        "meta": result.meta,
        "completion_time": result.completion_time,
        "client_completions": sorted(result.client_completions.items()),
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


#: Captured from the exhaustive-scan engines (see module docstring).
PINNED = {
    'coding-n64-s1': 'ff80d05d710a98a7613a6d9aa7800bbafab2df5e4032646e1cddc94fc8fdb47b',
    'coding-n64-s2': '3779eb8e19f608364755d34e1f96217a688908b1ee9d28a93e153414d6766cfa',
    'coding-n64-s3': 'e5ddcc3ac533047fbdc4011d081b10349059f9967b653bd1f19b74ca5e1e92f2',
    'async-n64-s1': 'd650110a0e49d6e72c393a362f58e6979ac5cc9ee66d19303a15478b14ae5759',
    'async-n64-s2': 'f52d7bd9b3420dc54509588283fa60373f2581fb6840dda24d6b74950414f010',
    'async-n64-s3': '95930dd862a8741b9d053ef6bc87f9555e5eb966b187cbdffc6d8a11b7e8c554',
    'coding-crash': '60684305e65abdd2d04a7702ddc9299383ab2a0fdbf9a13dc3738d4953d08079',
    'coding-tiers': '4e985e52ca15ffd4281c557a1d7ef6cfc448131275ca3f341d3e72e9126c6b9d',
    'coding-flash-riders': '209a8ed311f5c32ff1a126ff4ebf15408d41b79b27ee3bc2f3707f9395abdea8',
    'coding-overlay': '02d33d414549cfae8b6457ff1fdedfa84679af8572dcbc74bb018b4f595dfb08',
    'coding-ideal': 'ee16ff23fb8eae910194af071453ff467897082ac198793df9b4670f1af60ca9',
    'async-crash': '219bbc0a4231b83f6f3c28c8c727d1b6bc52c39f7a9c384981653c22f9f4e030',
    'async-tiers': 'd35b20227dc5107c49f4aa1b0c95985dedce8d65d67d22699b381170c1e5c4bd',
    'async-flash-riders': '605e6cc98493614a25b89667a3e6353203fbe2f0fcc62a1006223e56572d103b',
    'async-overlay': 'ea1c9decde2a7a065a9a0e8f41fa5e8ebc59347818ff2ac5562510cead0537d6',
    'async-rarest-par2-drift': '6ebbee3691fcd589076465aea50b071bc6e0d3653baa52b98b62097976f8ab8f',
    'async-random-par2-drift': 'a7738bfc1a32a429bb78b66b1e78635a4d7ccd7bfb8fb09c64ac05b99bdfb704',
    'async-hypercube-drift': '71a69b2ad91992a201d3b08747d7e94250908e0f722ddf9d4a591067e3c2d2b1',
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_pinned_digest(name: str) -> None:
    assert run_digest(name) == PINNED[name]


if __name__ == "__main__":  # pragma: no cover - capture helper
    for spec_name in SPECS:
        print(f"    {spec_name!r}: {run_digest(spec_name)!r},")
