"""Pinned results of deterministic schedules run under faults.

Every case executes one of the paper's deterministic schedules
(hypercube, riffle, binomial pipeline, multi-server, pipeline) under one
fault plan (loss, link outages with loss, a server outage window alone
and with loss) and one :class:`RecoveryPolicy` (the default, no retries,
and a slower backoff with more retries). The pins were captured from the
schedule replayer's own tick loop, before schedules ran on
``TickKernel``; each run must keep reproducing them.

A pin is ``(completion_time, abort, deadlocked, transfers, failures,
meta)``: the last three are the first 16 hex digits of the sha256 of the
delivery stream, the failure stream, and the replay's own meta keys
(:data:`META_KEYS`).

Three cases (the two ``*-exhausted`` ones and
``pipeline-outage-default``) end with the retry heap empty and a client
still incomplete: every pending transfer was either delivered or
abandoned. The replayer reported ``abort=None`` there, although ``None``
means a clean completion. The kernel proves the deadlock on the next,
attempt-free tick, so those three pins record ``"deadlock", True``; it
is the one verdict that changed when schedules moved onto the kernel.

Print the current pins (only legitimate when a case itself changes)::

    PYTHONPATH=src python tests/faults/test_schedule_pins.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.model import BandwidthModel
from repro.core.engine import execute_schedule
from repro.faults import FaultPlan, RecoveryPolicy
from repro.schedules.binomial_pipeline import binomial_pipeline_schedule
from repro.schedules.hypercube import hypercube_schedule
from repro.schedules.multiserver import multi_server_schedule
from repro.schedules.riffle import riffle_pipeline_schedule
from repro.schedules.simple import pipeline_schedule

pytestmark = pytest.mark.faults

_D2 = BandwidthModel.double_download()
_M2 = BandwidthModel(server_upload=2)

SCHEDULES = {
    "hypercube": (lambda: hypercube_schedule(16, 8), None),
    "riffle": (lambda: riffle_pipeline_schedule(10, 6, _D2), _D2),
    "binomial": (lambda: binomial_pipeline_schedule(16, 8), None),
    "multiserver": (lambda: multi_server_schedule(12, 6, 2), _M2),
    "pipeline": (lambda: pipeline_schedule(12, 6), None),
}
PLANS = {
    "loss": FaultPlan(loss_rate=0.2),
    "outage": FaultPlan(outage_rate=0.05, outage_duration=3, loss_rate=0.1),
    "window": FaultPlan(server_outages=((1, 3),)),
    "window-loss": FaultPlan(server_outages=((2, 4),), loss_rate=0.15),
}
RECOVERIES = {
    "default": RecoveryPolicy(),
    "r0": RecoveryPolicy(max_retries=0),
    "b3": RecoveryPolicy(backoff_base=3, max_retries=5),
}

#: name -> (schedule, plan, recovery, rng): the full cross product, one
#: seed per case, plus the two heap-exhausted cases.
CASES = {
    f"{s}-{p}-{r}": (s, p, r, seed)
    for seed, (s, p, r) in enumerate(
        (s, p, r) for s in SCHEDULES for p in PLANS for r in RECOVERIES
    )
}
CASES["pipeline-loss-default-exhausted"] = ("pipeline", "loss", "default", 20)
CASES["riffle-outage-r0-exhausted"] = ("riffle", "outage", "r0", 6)

#: The replay's own meta keys, pinned together (``abort`` and
#: ``deadlocked`` are pinned on their own).
META_KEYS = (
    "algorithm",
    "schedule",
    "planned_ticks",
    "planned_transfers",
    "abandoned_transfers",
    "retries",
    "faults",
    "fault_attempts",
    "failed_transfers",
    "crashes",
    "rejoins",
)


def _sha(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_case(name: str):
    s, p, r, seed = CASES[name]
    build, model = SCHEDULES[s]
    return execute_schedule(
        build(), faults=PLANS[p], recovery=RECOVERIES[r], model=model, rng=seed
    )


def pin(name: str) -> tuple:
    result = run_case(name)
    meta = result.meta
    return (
        result.completion_time,
        meta["abort"],
        meta["deadlocked"],
        _sha(result.log.as_lists("transfers")),
        _sha(result.log.as_lists("failures")),
        _sha({key: meta[key] for key in META_KEYS}),
    )


PINNED: dict[str, tuple] = {
    'hypercube-loss-default': (None, 'max-ticks', False, '7dceaf90969cadc8', 'f568850f10f9dc89', 'c5941a5d73a7e9eb'),
    'hypercube-loss-r0': (None, 'max-ticks', False, '099835a13bc1a7bd', 'b59998f1e8d48ec4', 'd05d9d7169165ca7'),
    'hypercube-loss-b3': (26, None, False, '63bf419f8d83e34c', '48c4b276db85bad9', 'b1def3b0cab01904'),
    'hypercube-outage-default': (20, None, False, 'fc7766ac30d4376b', 'c92a665b87be9434', '87a39cb523d97d7d'),
    'hypercube-outage-r0': (None, 'max-ticks', False, 'c5d68f114a4c6d62', '613beb55f168d2c6', '767bf9aff937ad02'),
    'hypercube-outage-b3': (21, None, False, 'd1a5c5c83d31be35', 'bd67a5bc9afa1296', '9e42f0de32661940'),
    'hypercube-window-default': (14, None, False, 'bb4ac51ef24a87ea', 'baeb95877b3b17f9', 'de0d125cf570daaf'),
    'hypercube-window-r0': (None, 'max-ticks', False, 'd18cc652ea1608d6', '44d860f3a636b6d9', '50d04dea2d1b2ea6'),
    'hypercube-window-b3': (14, None, False, 'bb4ac51ef24a87ea', '44d860f3a636b6d9', 'de0d125cf570daaf'),
    'hypercube-window-loss-default': (20, None, False, '75e414d6c734d8da', '1de95a78bbfb233e', 'd34039f8a4538b31'),
    'hypercube-window-loss-r0': (None, 'max-ticks', False, '7711710c8512d610', '8db9b7375408efb4', '95f3e47b0fa0fdd3'),
    'hypercube-window-loss-b3': (21, None, False, 'b010aa4aa2b9a549', '9883f44c6acd49fc', '315a3f61e22e1d1d'),
    'riffle-loss-default': (17, None, False, '0d97b6a4bf276210', 'ef5161585b873d52', 'fba2bb8564b6efc3'),
    'riffle-loss-r0': (None, 'max-ticks', False, 'd450adb931d61992', '16238be8a5804ae3', 'd3b62848a8960a8b'),
    'riffle-loss-b3': (25, None, False, '79b5b2a767b698ba', '76b9af85def54fe6', 'ee1e5bd7a3332ace'),
    'riffle-outage-default': (19, None, False, '3418ea5fa8821c3b', 'f3985eb26fbe0983', '52d7b9633743ae7e'),
    'riffle-outage-r0': (None, 'max-ticks', False, '550149c6bbea6d46', 'ccb2114417bff79d', 'a0a9bc349f6a7bc4'),
    'riffle-outage-b3': (16, None, False, '3f4c0b35fee36d89', '809a9e09a016054d', '51f8b0b76ee3867a'),
    'riffle-window-default': (17, None, False, '8c1e1cae36133c19', '9f11a0d591aa216c', '5a02d37fde6aa496'),
    'riffle-window-r0': (None, 'max-ticks', False, 'f0cc6515d4e0c508', '5eea291d3f74a242', 'f97393add8dde493'),
    'riffle-window-b3': (17, None, False, '8c1e1cae36133c19', '5eea291d3f74a242', '5a02d37fde6aa496'),
    'riffle-window-loss-default': (19, None, False, '3bcf5868f93b1c1d', 'acf7679da3b2966c', '5e61de8444da8587'),
    'riffle-window-loss-r0': (None, 'max-ticks', False, '8a822dc5096bc38c', '35e79664049e60c7', '2ec55d9b18f2e31a'),
    'riffle-window-loss-b3': (20, None, False, '220fa3bbdd4df372', 'e6611c357363fab7', '37c9bd4e3512dba9'),
    'binomial-loss-default': (21, None, False, '3e0c694e1a411201', '448217daba00b072', '6b16e73c670dc156'),
    'binomial-loss-r0': (None, 'max-ticks', False, '736c66a061aa8746', '82a48a16e1f56dab', '4bee06ac36fa95ff'),
    'binomial-loss-b3': (22, None, False, '8c69ad9d5e87afcd', 'aee6b9819ec13fd4', 'b49c15a1bff0b047'),
    'binomial-outage-default': (21, None, False, 'c1bca7296f05ebf6', '95fec67abce7d686', '94191815a8de59b4'),
    'binomial-outage-r0': (None, 'max-ticks', False, '97cf715eda153b57', '445a79afdc1baf3e', '85d58c4092f80ea4'),
    'binomial-outage-b3': (28, None, False, 'f99eef865dc6e972', '11b6b3f427abd88e', '791b34adeeaeef43'),
    'binomial-window-default': (14, None, False, '574dedf2c2be9ce5', '9f11a0d591aa216c', '8e13816d9da2f057'),
    'binomial-window-r0': (None, 'max-ticks', False, '3208df8044254cce', '63d013682ac26bbc', 'b711d84e28db9950'),
    'binomial-window-b3': (14, None, False, '574dedf2c2be9ce5', '63d013682ac26bbc', '8e13816d9da2f057'),
    'binomial-window-loss-default': (20, None, False, 'a8e71924c287baba', '18a3f674d3553613', '86981b3310d89ac0'),
    'binomial-window-loss-r0': (None, 'max-ticks', False, 'fb78a6646e24c4a9', '17557358dcb51638', '7320ce88d460acbd'),
    'binomial-window-loss-b3': (28, None, False, 'e2ddcc93a00ac314', 'fccf2be94e0f22ab', '67d1186c43b76e32'),
    'multiserver-loss-default': (12, None, False, 'bd5898c270205b64', 'ac2d07eec1956854', '52f9c0da85651ea9'),
    'multiserver-loss-r0': (None, 'max-ticks', False, 'fa9f0ca0be6aeec2', 'e8a370f5653d58c8', '9146694b409fb256'),
    'multiserver-loss-b3': (16, None, False, '33921b733d0ba26d', '66b750fc5cfb889d', '2aee20b9abe7bd27'),
    'multiserver-outage-default': (22, None, False, '66d528a474a6d2ef', '1c9ee8f45e357cbe', '6441bab8384db477'),
    'multiserver-outage-r0': (None, 'max-ticks', False, '6ab6c4f2db63fee8', '301f00069222f1ce', 'cd75d732f3fd2259'),
    'multiserver-outage-b3': (19, None, False, '6b0eef6e05bb84a1', '6ee62d3a83a34e6d', 'dbe9916f04f096f5'),
    'multiserver-window-default': (11, None, False, '9c9dc717ed5626ab', '98cac7e48c2f3887', '24b386e6ad28e0db'),
    'multiserver-window-r0': (None, 'max-ticks', False, 'e4a56e40d1eed406', 'a59e619407b196ac', '4fcc56871314e493'),
    'multiserver-window-b3': (11, None, False, '9c9dc717ed5626ab', 'a59e619407b196ac', '24b386e6ad28e0db'),
    'multiserver-window-loss-default': (16, None, False, '3f1e144f300aa9aa', '5e0f50a2bca7176a', '7bcfcf8357203347'),
    'multiserver-window-loss-r0': (None, 'max-ticks', False, '05fbb3c42445c693', '62b1ccdc06d1d7a9', '8b31f14890ea871f'),
    'multiserver-window-loss-b3': (15, None, False, '21a00f32295597b0', 'dbdea16715268a07', 'd0f1de17a2a8ff7c'),
    'pipeline-loss-default': (25, None, False, '1dbade7c82177f6b', 'f2122b3b6b59ad1d', '26d6112abfc9e56d'),
    'pipeline-loss-r0': (None, 'max-ticks', False, 'd06c73634f3da327', 'b32a9de3f3791df4', 'c2e09501b1863300'),
    'pipeline-loss-b3': (47, None, False, 'f17152a46185c7f7', 'a1b610d2a56b85bf', '4230c1ba80d0f30a'),
    'pipeline-outage-default': (None, 'deadlock', True, 'bb8bef498f4c695c', '0381ba818ec71a7d', '328a554e5f15fef5'),
    'pipeline-outage-r0': (None, 'max-ticks', False, '6e9245615ca3434f', '9e58d3b60b87fe60', '700353acc40a052b'),
    'pipeline-outage-b3': (29, None, False, '9dfa42edcc8cf76c', 'd0c83e2e122c8f71', 'd1ad51c607cb39be'),
    'pipeline-window-default': (19, None, False, 'f952193b436d21fe', 'a6ed7731212614b2', '87e85ec42ef8e16e'),
    'pipeline-window-r0': (None, 'max-ticks', False, '769260d2c0ff2022', 'cd4e2237bdcb8d10', 'a2c7618ab1d247f3'),
    'pipeline-window-b3': (19, None, False, 'f952193b436d21fe', 'cd4e2237bdcb8d10', '87e85ec42ef8e16e'),
    'pipeline-window-loss-default': (24, None, False, 'df6cf77a2614330c', '014ea3d2adea18b4', 'f7cb194469c74a7d'),
    'pipeline-window-loss-r0': (None, 'max-ticks', False, 'db6403add1d59952', '13239e8b174bf62d', 'f581b94b73cef875'),
    'pipeline-window-loss-b3': (35, None, False, '858a2f57da5d80b7', 'a551b01e3cb51349', '6a1bc5b2887ceb1f'),
    'pipeline-loss-default-exhausted': (None, 'deadlock', True, '39508a2e9cbd629a', '108ad519ed4dd28c', '27f17ddd7a357951'),
    'riffle-outage-r0-exhausted': (None, 'deadlock', True, 'b2a8cbc076146384', '72da149c1012ecd7', '1e3add65f0463013'),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_pin(name: str) -> None:
    assert pin(name) == PINNED[name]


if __name__ == "__main__":  # pragma: no cover - capture helper
    for case in CASES:
        print(f"    {case!r}: {pin(case)!r},")
