"""The scenario experiments' ``GRIDS`` tables and their invariants.

Each scenario experiment owns one grid per scale; the grid is also the
run factory, so its repr is the result cache's fingerprint. The pins
below were taken before the grids moved out of :class:`Scale`: a change
to any of them orphans existing caches or changes published rows.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.campaign.cache import fn_fingerprint
from repro.core.errors import ConfigError
from repro.experiments.adversary import GRIDS as ADV, adversary
from repro.experiments.extensions import extension_churn
from repro.experiments.heterogeneity import GRIDS as HET
from repro.experiments.open_system import GRIDS as OS
from repro.experiments.resilience import GRIDS as RES
from repro.experiments.runner import EXPERIMENTS, _to_jsonable
from repro.experiments.scale import SCALES, resolve_grid, sweep_task_counts

GRIDS = {"resilience": RES, "open-system": OS, "adversary": ADV, "heterogeneity": HET}

FINGERPRINTS = {
    "resilience": (
        "repro.experiments.resilience._ResilienceRun(n=24, k=12, credit=2, "
        "rejoin_delay=6, retention=0.25, max_crashes=None, max_ticks=600)"
    ),
    "open-system": (
        "repro.experiments.open_system._OpenSystemRun(n=24, k=8, credit=2, "
        "initial=0.25, arrival_stop=30, flash_tick=8, flash_size=8, "
        "flash_width=2, holdover=4, period=12, uptime=0.75, max_ticks=400)"
    ),
    "adversary": (
        "repro.experiments.adversary._AdversaryRun(n=16, k=8, credit=2, "
        "pollution_rate=0.3, strikes=3, max_ticks=400)"
    ),
    "heterogeneity": (
        "repro.experiments.heterogeneity._HeterogeneityRun(n=20, k=10, "
        "credit=2, paid_multiplier=3, window=6, max_ticks=400)"
    ),
}

#: sha256 of ``repro-experiments <name> --scale ci --json`` output.
JSON_SHA256 = {
    "resilience": "eaad141d9dd28f87bff2e11d8b9d9ee13f3bf44144c7b7c896f843302bec4d00",
    "open-system": "84d81b21a521bc48e4833a7fc90e42c203cea261f2d95343be7bd99ec98b2324",
    "adversary": "ca08d3217e6cd481522acfde6ddadf0595ad609aee368371488e497498d2c5af",
    "heterogeneity": "d8f52f7f358e5f921dd28d77d79a25476544e144f728c3513164746d7439dede",
    # Not a grid experiment: its runs are WorkloadSpec arrival and
    # departure tables on the randomized engine.
    "ext-churn": "792ca86dd1d5a32212af85b4cb42c89d84e4948f40814619aa29938fd323274a",
    # Deterministic schedules, pinned before they ran on TickKernel.
    "fig1": "1224f736bdf30f6ba55510786454aa587c9c82c565a484fd4a887af6d0225e55",
    "fig2": "ca01e0edf1f2983e5370a0106553239c19c841d50cc57f5894e7efd468ad104c",
    "table": "ad62e461b547e7424ff6062668d7a87f0b86784b0838fb58cee6a622f18b29c7",
    "price": "6294136296983b665bba137a2102ce1b8b223f7b543eb58c81930e24c6b32e85",
    "ablation-stride": "c9a5d6b08a8d51a8bfe4d3cef2dc947c5b67e6158800b521f60fd5465193ebec",
    "ext-multiserver": "5861826ebe9b0b3e21a96a0c74385122bc2c07b3280abc467f96fc28798f6cb8",
    # BitTorrent runs, pinned before the rechoke ranked from receipt
    # windows and sampled through a lazy view.
    "ext-bittorrent": "f15d14503ffb4752fe0dcad3849a803999505e37b824195d29fcfcb04409bc51",
    "ext-freerider": "dcc76a7d2b471c3baf03f3c521b2db06bc4ce20f38a7616d629c3a7f37746e4b",
}
SCHEDULE_EXPERIMENTS = (
    "fig1", "fig2", "table", "price", "ablation-stride", "ext-multiserver"
)


def _json_digest(result) -> str:
    text = json.dumps([_to_jsonable(result)], indent=2, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GRIDS))
class TestPins:
    def test_ci_fingerprint(self, name):
        assert fn_fingerprint(GRIDS[name]["ci"]) == FINGERPRINTS[name]

    def test_ci_json_digest(self, scenario_ci, name):
        result, _ = scenario_ci(name)
        assert _json_digest(result) == JSON_SHA256[name]


def test_ext_churn_ci_json_digest():
    assert _json_digest(extension_churn(scale="ci")) == JSON_SHA256["ext-churn"]


@pytest.mark.parametrize("name", ["ext-bittorrent", "ext-freerider"])
def test_bittorrent_experiment_ci_json_digest(name):
    result = EXPERIMENTS[name](scale="ci")
    assert _json_digest(result) == JSON_SHA256[name]


@pytest.mark.parametrize("name", SCHEDULE_EXPERIMENTS)
def test_schedule_experiment_ci_json_digest(name):
    result = EXPERIMENTS[name](scale="ci")
    assert _json_digest(result) == JSON_SHA256[name]


class TestTables:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_one_grid_per_scale_growing_to_full(self, name):
        grids = GRIDS[name]
        assert set(grids) == set(SCALES)
        ns = [grids[s].n for s in ("ci", "lite", "xl", "full")]
        assert ns == sorted(set(ns))

    def test_unknown_scale_names_the_known_ones(self):
        custom = dataclasses.replace(SCALES["ci"], name="tiny")
        with pytest.raises(ConfigError, match="'tiny'.*'ci'"):
            resolve_grid(RES, custom)
        with pytest.raises(ConfigError, match="known scales"):
            adversary(scale=custom)
        with pytest.raises(ConfigError, match="known scales"):
            sweep_task_counts(custom)


class TestBadGrids:
    @pytest.mark.parametrize(
        "grids, change",
        [
            (RES, {"loss_rates": (0.1, 0.0)}),
            (RES, {"crash_rates": (0.015, 0.0)}),
            (RES, {"loss_rates": ()}),
            (ADV, {"fractions": (0.25, 0.0)}),
            (ADV, {"fractions": ()}),
            (OS, {"rates": ()}),
            (HET, {"mixes": ("broadband", "uniform")}),
            (HET, {"mixes": ("uniform", "satellite")}),
        ],
    )
    def test_rejected_at_construction(self, grids, change):
        with pytest.raises(ConfigError):
            dataclasses.replace(grids["ci"], **change)
