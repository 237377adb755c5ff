"""Engine integration: every engine honors its declared adversary_support.

Free-riders never upload, polluted blocks never count toward completion,
liars burn slots without delivering, the strike defense isolates bad
pairs — and every produced log re-verifies under the model rules,
including the verifier's independent blacklist replay.
"""

from __future__ import annotations

import json

import pytest

from repro.adversary import AdversaryPlan
from repro.core.errors import ConfigError
from repro.core.mechanisms import CreditLimitedBarter, StrictBarter
from repro.core.serde import log_from_dict, log_to_dict
from repro.core.verify import verify_log
from repro.sim.registry import ENGINES, run_engine
from repro.workloads import WorkloadSpec

RIDER_PLAN = AdversaryPlan(free_riders=(2, 3))
POLLUTER_PLAN = AdversaryPlan(
    polluters=(2,), pollution_rate=0.7, strike_threshold=3
)
LIAR_PLAN = AdversaryPlan(liars=(2,), lie_rate=0.7)
FULL_PLAN = AdversaryPlan(
    free_riders=(2,),
    polluters=(3,),
    pollution_rate=0.5,
    liars=(4,),
    lie_rate=0.5,
    strike_threshold=2,
)

# Per registry engine, plus ``churn``: the randomized engine with a late
# arrival, which runs the membership runtime under the adversary.
ENGINE_KW = {
    "randomized": {},
    "churn": {"engine": "randomized", "workload": WorkloadSpec(arrivals=((5, 8),))},
    "exchange": {},
    "bittorrent": {},
    "coding": {},
    "async": {},
}


def _engine(case):
    return ENGINE_KW[case].get("engine", case)


def _run(case, plan, n=12, k=6, rng=11, **kw):
    kwargs = {**ENGINE_KW[case], **kw}
    kwargs.pop("engine", None)
    return run_engine(
        _engine(case), n, k, adversary=plan, rng=rng, max_ticks=2000, **kwargs
    )


class TestFreeRiders:
    @pytest.mark.parametrize("engine", sorted(ENGINE_KW))
    def test_free_riders_never_upload(self, engine):
        r = _run(engine, RIDER_PLAN)
        riders = set(r.meta["adversary_realized"]["free_riders"])
        assert riders == {2, 3}
        uploads = {t.src for t in r.log} | {t.src for t in r.log.failures}
        assert not uploads & riders
        assert r.meta["adversary"] == {"free_riders": [2, 3]}

    @pytest.mark.parametrize("engine", sorted(ENGINE_KW))
    def test_null_plan_is_bit_identical_to_none(self, engine):
        plain = _run(engine, None, n=10, k=5, rng=3)
        nulled = _run(engine, AdversaryPlan(), n=10, k=5, rng=3)
        assert list(plain.log) == list(nulled.log)
        assert plain.completion_time == nulled.completion_time
        assert "adversary" not in nulled.meta

    def test_windowed_riders_resume_uploading(self):
        plan = AdversaryPlan(free_riders=(2,), active_until=6)
        r = _run("randomized", plan, rng=5)
        after = [t for t in r.log if t.src == 2 and t.tick > 6]
        during = [t for t in r.log if t.src == 2 and t.tick <= 6]
        assert not during
        assert after, "the rider must rejoin the upload pool"


class TestPollutionAndLies:
    @pytest.mark.parametrize(
        "engine",
        [c for c in sorted(ENGINE_KW) if ENGINES[_engine(c)].adversary_support == "full"],
    )
    def test_polluted_blocks_never_complete_anyone(self, engine):
        r = _run(engine, POLLUTER_PLAN, rng=1)
        assert r.meta["polluted_transfers"] == r.log.polluted_count
        assert r.log.polluted_count > 0
        # Completion is carried by delivered rows alone: replaying just
        # the delivery stream reaches full masks for every completion
        # the run claims.
        masks = r.log.final_masks(r.n, r.k)
        full = (1 << r.k) - 1
        for client in r.client_completions:
            assert masks[client] == full

    def test_liars_burn_slots_without_delivering(self):
        r = _run("randomized", LIAR_PLAN, rng=1)
        assert r.meta["phantom_transfers"] == r.log.phantom_count
        assert r.log.phantom_count > 0
        for t in r.log.phantoms:
            assert t.src == 2

    def test_strike_defense_isolates_the_polluter(self):
        plan = AdversaryPlan(
            polluters=(2,), pollution_rate=1.0, strike_threshold=2
        )
        r = _run("randomized", plan, rng=4, n=10, k=5)
        assert r.meta["bans"] >= 1
        bans = {(src, dst) for _, dst, src in
                (tuple(e) for e in r.meta["ban_events"])}
        # A banned pair is never served after the ban tick, on any stream.
        for tick, dst, src in (tuple(e) for e in r.meta["ban_events"]):
            for t in (*r.log, *r.log.failures, *r.log.polluted,
                      *r.log.phantoms):
                if (t.src, t.dst) == (src, dst):
                    assert t.tick <= tick
        assert r.completed, "everyone still finishes around the polluter"

    def test_coding_is_free_riders_only(self):
        with pytest.raises(ConfigError, match="free-riders"):
            _run("coding", POLLUTER_PLAN)
        r = _run("coding", RIDER_PLAN)
        assert r.completed

    def test_unsupported_level_is_a_config_error(self):
        # A policy that never declared adversary support refuses plans
        # outright rather than silently ignoring them.
        from repro.sim.kernel import TickKernel
        from repro.sim.policy import TickPolicy

        class NoSupport(TickPolicy):
            name = "no-support"

        with pytest.raises(ConfigError, match="adversary_support"):
            TickKernel(8, 4, NoSupport(), rng=1, adversary=RIDER_PLAN)


class TestVerification:
    @pytest.mark.parametrize("engine", ["randomized", "bittorrent", "async"])
    def test_adversarial_logs_reverify(self, engine):
        r = _run(engine, FULL_PLAN, rng=6)
        report = verify_log(
            r.log, r.n, r.k,
            require_completion=r.completed,
            strike_threshold=FULL_PLAN.strike_threshold,
        )
        assert report.polluted_transfers == r.log.polluted_count
        assert report.phantom_transfers == r.log.phantom_count
        assert report.extras["bans_replayed"] == r.meta["bans"]

    def test_credit_barter_charges_spoiled_attempts(self):
        # Polluted deliveries consume credit: the log must verify under
        # the same mechanism the run used, proving the charge is modeled.
        r = _run(
            "randomized", POLLUTER_PLAN, rng=8,
            mechanism=CreditLimitedBarter(2),
        )
        verify_log(
            r.log, r.n, r.k,
            mechanism=CreditLimitedBarter(2),
            require_completion=r.completed,
            strike_threshold=POLLUTER_PLAN.strike_threshold,
        )

    def test_strict_barter_with_riders_verifies(self):
        r = _run("exchange", RIDER_PLAN, rng=9)
        verify_log(
            r.log, r.n, r.k,
            mechanism=StrictBarter(),
            require_completion=r.completed,
        )


class TestArrayBackend:
    def test_armed_plan_matches_loop_backend(self):
        plan = AdversaryPlan(
            free_riders=(2,), polluters=(3,), pollution_rate=0.5
        )
        loop = _run("randomized", plan, rng=13, n=14, k=7)
        arr = _run("randomized", plan, rng=13, n=14, k=7, backend="array")
        assert list(loop.log) == list(arr.log)
        assert list(loop.log.polluted) == list(arr.log.polluted)
        assert loop.completion_time == arr.completion_time


class TestSerde:
    def test_adversarial_log_round_trips_as_v3(self):
        r = _run("randomized", FULL_PLAN, rng=6)
        doc = json.loads(json.dumps(log_to_dict(r.log, r.n, r.k)))
        assert doc["format"] == "repro/log/v3"
        log, n, k = log_from_dict(doc)
        assert list(log) == list(r.log)
        assert list(log.polluted) == list(r.log.polluted)
        assert list(log.phantoms) == list(r.log.phantoms)
        assert list(log.failures) == list(r.log.failures)

    def test_clean_logs_keep_their_old_format(self):
        # Byte preservation: a log without adversarial rows must not be
        # stamped v3, so existing stored documents stay comparable.
        r = run_engine("randomized", 10, 5, rng=3)
        doc = log_to_dict(r.log, 10, 5)
        assert doc["format"] != "repro/log/v3"
        assert "polluted" not in doc
        assert "phantoms" not in doc
