"""Campaign integration: AdversaryPlan in the cache fingerprint.

A cached clean-swarm result must never be served for an adversarial
configuration (or vice versa), so the plan joins
:class:`~repro.campaign.factories.EngineRun`'s ``options``, whose repr
is the factory fingerprint — exactly like ``backend`` and ``workload``.
"""

from __future__ import annotations

import pickle

from repro.adversary import AdversaryPlan
from repro.campaign.factories import EngineRun

PLAN = AdversaryPlan(free_riders=(3,), strike_threshold=2)


class TestFingerprint:
    def test_adversary_field_changes_the_fingerprint(self):
        clean = EngineRun.configure("randomized", 12, 6)
        armed = EngineRun.configure("randomized", 12, 6, adversary=PLAN)
        assert repr(clean) != repr(armed)

    def test_distinct_plans_never_collide(self):
        # Regression: every adversarial parameter must reach the repr.
        # Plans differing in exactly one field (including rate-only and
        # window-only differences) must fingerprint apart.
        plans = [
            None,
            AdversaryPlan(free_riders=(3,)),
            AdversaryPlan(free_riders=(4,)),
            AdversaryPlan(free_riders=(3,), strike_threshold=2),
            AdversaryPlan(free_riders=(3,), active_from=5),
            AdversaryPlan(free_riders=(3,), active_until=50),
            AdversaryPlan(free_rider_fraction=0.2),
            AdversaryPlan(polluters=(3,), pollution_rate=0.4),
            AdversaryPlan(polluters=(3,), pollution_rate=0.5),
            AdversaryPlan(liars=(3,), lie_rate=0.4),
        ]
        reprs = [
            repr(EngineRun.configure("randomized", 12, 6, adversary=p))
            for p in plans
        ]
        assert len(set(reprs)) == len(reprs)

    def test_equal_plans_collide_on_purpose(self):
        # The flip side: equal configurations must share a cache key even
        # when built from different container types.
        a = EngineRun.configure(
            "randomized", 12, 6, adversary=AdversaryPlan(free_riders={4, 3})
        )
        b = EngineRun.configure(
            "randomized", 12, 6, adversary=AdversaryPlan(free_riders=(3, 4))
        )
        assert repr(a) == repr(b)


class TestExecution:
    def test_factory_is_picklable_with_a_plan(self):
        factory = EngineRun.configure("randomized", 12, 6, adversary=PLAN)
        assert pickle.loads(pickle.dumps(factory)) == factory

    def test_factory_forwards_the_plan_to_the_engine(self):
        factory = EngineRun.configure("randomized", 12, 6, adversary=PLAN)
        result = factory({}, 7)
        assert result.meta["adversary"] == {
            "free_riders": [3], "strike_threshold": 2,
        }
        riders = set(result.meta["adversary_realized"]["free_riders"])
        assert not ({t.src for t in result.log} & riders)

    def test_clean_factory_stays_clean(self):
        result = EngineRun.configure("randomized", 12, 6)({}, 7)
        assert "adversary" not in result.meta
