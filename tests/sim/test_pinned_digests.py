"""Pinned sha256 digests of coding, async, randomized and exchange runs.

The destination searches of the coding and async engines have O(1)
shortcuts and an idle-retry filter that must never change a decision or
an RNG draw. These digests were captured from the exhaustive scans
before the shortcuts existed; every run below must keep reproducing its
log (deliveries, failures) and metadata byte for byte.

A second set was captured from the full retry rounds and per-tick
coding scans, before async retries were narrowed to the nodes a
finished transfer can wake and before coding reused unchanged basis
snapshots and scanned only open receivers. It covers what those rules
lean on: a server outage (judged at ``now``), a free-rider window that
closes mid-run, arrival and departure tables, ``AsyncRarest`` with
three download slots, crashes and an outage, and coding with download
capacity 2, unbounded download, and loss with a flash crowd.

The randomized runs lean on the fallback scan of the destination search
(n = k large enough that late uploaders often find nobody interested),
so they pin the empty-pool proof that skips those scans. Their digests
were captured from the engine before the proof existed.

The exchange runs pin the strict-barter matcher: which mutually
interested pairs it offers each initiator, in which order, and so every
``randrange`` it draws. Their digests were captured from the per-client
partner scan, before the per-tick interest matrix replaced it; they
cover both backends, crash and loss, a flash crowd with free-riders,
polluters with strikes, bandwidth tiers, an overlay, download capacity 2
(the seeded client may also barter) and k > 128 (three-word masks).

The bittorrent runs pin the rechoke: which peers each client ranks by
last window's receipts, the ``rng.random()`` tiebreak drawn for each,
and the optimistic ``rng.sample`` over the rest. Their digests were
captured from the per-node neighbour scans, before the rechoke ranked
from the receipt windows and sampled through a lazy view. They cover
the complete graph above and below ``random.sample``'s 21-element
population threshold, download tiers and upload tiers with and without
tier-weighted unchoking, crash, a flash crowd with free-riders,
polluters with strikes, a server outage, arrival and departure tables,
per-node slot overrides, zero and three optimistic slots, a rechoke
every tick, an overlay, and the scenario-n512 benchmark's spec at
n = 128.

Print the current digests (only legitimate when a spec itself changes)::

    PYTHONPATH=src python tests/sim/test_pinned_digests.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.adversary import AdversaryPlan
from repro.core.mechanisms import CreditLimitedBarter
from repro.core.model import BandwidthModel
from repro.core.serde import log_to_dict
from repro.experiments.heterogeneity import mix_spec
from repro.faults.plan import FaultPlan
from repro.overlays.random_regular import random_regular_graph
from repro.randomized.engine import RandomizedTickPolicy
from repro.sim.registry import create_engine
from repro.telemetry import TelemetrySpec
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
_RIDER_WINDOW = AdversaryPlan(free_rider_fraction=0.2, active_until=12)
_OUTAGE = FaultPlan(server_outages=((3, 7), (14, 20)))
_CRASH_OUTAGE = FaultPlan(
    crash_rate=0.03,
    rejoin_delay=3,
    rejoin_retention=0.5,
    max_crashes=6,
    server_outages=((5, 9),),
)
_LOSS = FaultPlan(loss_rate=0.1)
_TABLES = WorkloadSpec(
    arrivals=((5, 6), (9, 14), (20, 3)), departures=((3, 10), (9, 30), (12, 18))
)
_STRIKES = AdversaryPlan(
    polluter_fraction=0.15, pollution_rate=0.3, strike_threshold=2
)


def _scenario(n: int) -> dict[str, object]:
    """The scenario-n512 benchmark's bittorrent options at ``n`` nodes."""
    clients = n - 1
    return {
        "faults": FaultPlan(
            loss_rate=0.02,
            crash_rate=0.0005,
            rejoin_delay=5,
            rejoin_retention=0.5,
            server_outages=((30, 34),),
            max_crashes=20,
        ),
        "adversary": AdversaryPlan(
            free_rider_fraction=0.05,
            polluter_fraction=0.05,
            pollution_rate=0.3,
            strike_threshold=2,
        ),
        "workload": WorkloadSpec(
            initial_fraction=0.5,
            flash_crowds=(
                FlashCrowd(tick=20, count=clients - round(0.5 * clients), width=10),
            ),
        ),
        "bandwidth": "broadband",
        "telemetry": TelemetrySpec(window=25),
    }


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
    "async-server-outage": ("async", 48, 24, {"rng": 29, "faults": _OUTAGE}),
    "async-rider-window": (
        "async", 48, 24, {"rng": 30, "adversary": _RIDER_WINDOW}
    ),
    "async-tables": ("async", 48, 24, {"rng": 31, "workload": _TABLES}),
    "async-rarest-par3-crash-outage": (
        "async", 48, 24,
        {"rng": 32, "strategy": "AsyncRarest", "parallel_downloads": 3,
         "faults": _CRASH_OUTAGE},
    ),
    "coding-d2": (
        "coding", 48, 24, {"rng": 33, "model": BandwidthModel(download=2)}
    ),
    "coding-dnone": (
        "coding", 48, 24, {"rng": 34, "model": BandwidthModel(download=None)}
    ),
    "coding-loss-flash": (
        "coding", 48, 24, {"rng": 36, "faults": _LOSS, "workload": _FLASH}
    ),
    "randomized-n200-loop": ("randomized", 200, 200, {"rng": 11}),
    "randomized-n200-array": (
        "randomized", 200, 200, {"rng": 11, "backend": "array"}
    ),
    "randomized-credit2": ("randomized", 160, 160, {"rng": 12, "credit": 2}),
    "randomized-tiers": ("randomized", 160, 160, {"rng": 13, "bandwidth": "broadband"}),
    "randomized-crash": ("randomized", 160, 160, {"rng": 14, "faults": _CRASH}),
    "randomized-crash-array": (
        "randomized", 160, 160, {"rng": 14, "faults": _CRASH, "backend": "array"}
    ),
    "exchange-n64-loop": ("exchange", 64, 32, {"rng": 21}),
    "exchange-n64-array": ("exchange", 64, 32, {"rng": 21, "backend": "array"}),
    "exchange-crash": ("exchange", 48, 24, {"rng": 22, "faults": _CRASH}),
    "exchange-crash-array": (
        "exchange", 48, 24, {"rng": 22, "faults": _CRASH, "backend": "array"}
    ),
    "exchange-flash-riders": (
        "exchange", 48, 24, {"rng": 23, "workload": _FLASH, "adversary": _RIDERS}
    ),
    "exchange-strikes": ("exchange", 48, 24, {"rng": 24, "adversary": _STRIKES}),
    "exchange-tiers": ("exchange", 48, 24, {"rng": 25, "bandwidth": "broadband"}),
    "exchange-overlay": ("exchange", 40, 16, {"rng": 35, "overlay": 4}),
    "exchange-d2": (
        "exchange", 48, 24, {"rng": 27, "model": BandwidthModel(download=2)}
    ),
    "exchange-k130": ("exchange", 40, 130, {"rng": 28}),
    "exchange-k130-array": (
        "exchange", 40, 130, {"rng": 28, "backend": "array"}
    ),
    **{
        f"bittorrent-n64-s{seed}": ("bittorrent", 64, 32, {"rng": seed})
        for seed in (41, 42)
    },
    "bittorrent-n16": ("bittorrent", 16, 8, {"rng": 43}),
    "bittorrent-tiers": (
        "bittorrent", 48, 24, {"rng": 44, "bandwidth": "broadband"}
    ),
    "bittorrent-tiers-weighted": (
        "bittorrent", 48, 24,
        {"rng": 44, "bandwidth": "broadband", "tier_weighted_unchoke": True},
    ),
    "bittorrent-upload-tiers": (
        "bittorrent", 48, 24,
        {"rng": 56, "bandwidth": mix_spec("broadband", uploads=True)},
    ),
    "bittorrent-upload-tiers-weighted": (
        "bittorrent", 48, 24,
        {
            "rng": 56,
            "bandwidth": mix_spec("broadband", uploads=True),
            "tier_weighted_unchoke": True,
        },
    ),
    "bittorrent-crash": ("bittorrent", 48, 24, {"rng": 45, "faults": _CRASH}),
    "bittorrent-flash-riders": (
        "bittorrent", 48, 24, {"rng": 46, "workload": _FLASH, "adversary": _RIDERS}
    ),
    "bittorrent-strikes": (
        "bittorrent", 48, 24, {"rng": 47, "adversary": _STRIKES}
    ),
    "bittorrent-outage": ("bittorrent", 48, 24, {"rng": 48, "faults": _OUTAGE}),
    "bittorrent-tables": ("bittorrent", 48, 24, {"rng": 49, "workload": _TABLES}),
    "bittorrent-per-node": (
        "bittorrent", 48, 24, {"rng": 50, "per_node_unchoke": {3: 0, 5: 6}}
    ),
    "bittorrent-opt0": ("bittorrent", 48, 24, {"rng": 51, "optimistic_slots": 0}),
    "bittorrent-opt3": ("bittorrent", 48, 24, {"rng": 52, "optimistic_slots": 3}),
    "bittorrent-period1": (
        "bittorrent", 48, 24, {"rng": 53, "rechoke_period": 1}
    ),
    "bittorrent-overlay": ("bittorrent", 40, 16, {"rng": 54, "overlay": 6}),
    "bittorrent-scenario-n128": ("bittorrent", 128, 32, {"rng": 55, **_scenario(128)}),
}

#: The randomized specs, whose fallback scans the empty-pool proof skips.
FALLBACK_HEAVY = sorted(name for name in SPECS if name.startswith("randomized"))


def _build(name: str, seed: int | None = None):
    """The engine of spec ``name``, optionally under another seed."""
    engine, n, k, options = SPECS[name]
    kw = dict(options)
    if seed is not None:
        kw["rng"] = seed
    if "credit" in kw:
        kw["mechanism"] = CreditLimitedBarter(kw.pop("credit"))
    if isinstance(kw.get("bandwidth"), str):
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
    'async-server-outage': '2573cdae4989c33cf836b32a84923fd2989597cd0cf9ee3862d97c03e74325a9',
    'async-rider-window': 'ac25957b85b42d183eab69bc037692013486acb0c6240281bd5b052ab1b91ccf',
    'async-tables': '40c73402a1553fd36b7a44c7117668868b2cf72e773e32d76646cd92554e02ea',
    'async-rarest-par3-crash-outage': '34071c6c275751043c40fd87132ad361b14c7dfca5134c4c6bdb23ef190a197e',
    'coding-d2': '067e3d4099a6bec7f74a9cfb2e21067becac5fbf5744ba403f30ce8c8e94f8b6',
    'coding-dnone': 'e3dc1d613352f46efd3d0df4a49769211f18dc52965d656f095c4788f443da4a',
    'coding-loss-flash': '4382d082e01cb74fd4f0ed5c3bf7fee5df1ba57aeb0dd74319032c04ed4a1358',
    'randomized-n200-loop': 'c155e9f761fa0262d20851e3ea2af0f10a9607ab603cec36e2bfd55228ac8bb6',
    'randomized-n200-array': 'c155e9f761fa0262d20851e3ea2af0f10a9607ab603cec36e2bfd55228ac8bb6',
    'randomized-credit2': '18ffc71e1c699f83c8f4abd07c2be8931d96ee06c16633d5b1163a2346c1b674',
    'randomized-tiers': '3b3732a144d0a8aa82bc3fccd43947ed1c5021376f8c8a2a15874c1784eb4d72',
    'randomized-crash': '8cbdb3106d0044cfed16abff1847c67cca9d82a8a17023a14fb36d535ceaba18',
    'randomized-crash-array': '8cbdb3106d0044cfed16abff1847c67cca9d82a8a17023a14fb36d535ceaba18',
    'exchange-n64-loop': '20dff5b32dd2363ed882b945c1c3964c99f4e24638cdf2a5ebfd613eb6427c37',
    'exchange-n64-array': '20dff5b32dd2363ed882b945c1c3964c99f4e24638cdf2a5ebfd613eb6427c37',
    'exchange-crash': 'e7d0139c791d37224c1a13ca54ea41e302c2a36a6a1aee20afc399daa752f374',
    'exchange-crash-array': 'e7d0139c791d37224c1a13ca54ea41e302c2a36a6a1aee20afc399daa752f374',
    'exchange-flash-riders': '8c01b73a7703bd2acbcf65b22b4914f7ae002149e42f73fa14f0c6d48ae5e532',
    'exchange-strikes': 'a83539d87add51257179fafea2bc819ef001ea74e970a094e4b57372ee6c139d',
    'exchange-tiers': 'a5dddfa04a4e649bab0f5f99d14d55936464f73bfdd941b3e9a6a48d1a9310ea',
    'exchange-overlay': '762d45f5ed06b1dd402316486d334246c3a0228543af83893041fbb6f6fb0e50',
    'exchange-d2': 'f18894ee3a94f469696de4a3212195962418d06ae335a026235a2b66cdd143d1',
    'exchange-k130': 'ddda550d3035e2aafa1a887a4d22256437cef9db7e22b036f3266567558f9f59',
    'exchange-k130-array': 'ddda550d3035e2aafa1a887a4d22256437cef9db7e22b036f3266567558f9f59',
    'bittorrent-n64-s41': 'd9c6bd00fd65205bd821c3cf231ffd0398e4d67e461fc5513dc0b1477966fe43',
    'bittorrent-n64-s42': '3239eda2b74dc4e234d1d976d99c7ed84d1a145e8c752a474def494424083d8d',
    'bittorrent-n16': 'ba01d7702aa8a9d7cbc254e5b7ba821ddbd1f738dc9b2af24a9928cdc62ca0c0',
    'bittorrent-tiers': 'e90bb4ab27ddb7a41afbd4d9b197ffee107e86c359fac9dcca664aa68ebe9178',
    'bittorrent-tiers-weighted': 'ed8f8ce4ce30c54028f26687500794970618ed7fe90291e2f2a506680ea9d4df',
    'bittorrent-upload-tiers': '2b5acc6e06508adef66cd1c2fb776eac0796a788be4f2a301146c2f6e46b0d0c',
    'bittorrent-upload-tiers-weighted': '671f0f40f9e7350bcf4d1d6dd43f47351cb8f2e38fb275524344df228ef6622a',
    'bittorrent-crash': '7693a9e174e9811f9b619a01398b7b4f1084fa722bff1db6363ec20ffcbbdf38',
    'bittorrent-flash-riders': '3719429638e970e55e7176e7f5a771f269368f742cc685e3f990666d82926725',
    'bittorrent-strikes': '53ee21c27c3999f3a8a70cadcc71241100e152e3d6d84095d1fef0368f4469cf',
    'bittorrent-outage': 'fbef729e1c28f4eb85e9f2d0deb0cf7cfeeaee7de044aea93ec057dbaedc9b93',
    'bittorrent-tables': 'b1340efcdff2e984e8c91d839b96b3a03b6a2026223975f82755e3e8d627ccc9',
    'bittorrent-per-node': '3466c65b61de36c69018fc9339884fc9f5982efa303b7f742764656b181d9606',
    'bittorrent-opt0': '3567ed76e63845f97aa2e83ce573ca6dbe4ef47b2dac51a5c0e1e59e3d6a3704',
    'bittorrent-opt3': '0c89b0ee5c02ee4b20d70a40ee775e335b973896cbef44e9a4be751707a309db',
    'bittorrent-period1': '5e73ddee72336511d92b40a4f89f064add4342e717ca745e42685cfa4e4d49e7',
    'bittorrent-overlay': '12af32e441ca6c1c756146829cd1602e7aac775e07e20b948032aa12cf82e28c',
    'bittorrent-scenario-n128': '9247c54fb3586abb849ec97035a13b558c768abac0bb5f0d024c2f4b73d9867e',
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_pinned_digest(name: str) -> None:
    assert run_digest(name) == PINNED[name]


@pytest.mark.parametrize("name", FALLBACK_HEAVY)
def test_empty_pool_proof_fires(name: str, monkeypatch) -> None:
    # The randomized digests above only guard the proof if it actually
    # skips scans on those runs: count the fallbacks it settles.
    proofs = []
    covers = RandomizedTickPolicy._pool_covers

    def spy(self, have, masks, pool):
        proofs.append(covers(self, have, masks, pool))
        return proofs[-1]

    monkeypatch.setattr(RandomizedTickPolicy, "_pool_covers", spy)
    assert run_digest(name) == PINNED[name]
    assert sum(proofs) >= 1000
    assert len(proofs) - sum(proofs) >= 100  # and some fallbacks still scan


if __name__ == "__main__":  # pragma: no cover - capture helper
    for spec_name in SPECS:
        print(f"    {spec_name!r}: {run_digest(spec_name)!r},")
