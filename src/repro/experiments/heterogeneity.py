"""Heterogeneity experiment: the price of barter across bandwidth tiers.

The paper's model fixes every client at upload ``u = 1`` and a uniform
download ``d >= u``; its price-of-barter question gets sharper when
nodes are unequal — does the barter constraint tax slow nodes
disproportionately? This experiment reruns the mechanism comparison
over :class:`~repro.core.bandwidth.BandwidthClasses` tier mixes with
:mod:`repro.telemetry` armed, in the spirit of Zhang et al.'s
equal-service vs differentiated-service swarm models (PAPERS.md):

* **uniform** — the null spec: every client at the paper's ``u = d = 1``
  (Mundinger et al.'s uniform-capacity baseline the tiered results
  degrade from);
* **broadband** — 25% ``fast`` (d=4), 50% ``cable`` (d=2), 25% ``dsl``
  (d=1);
* **dsl-heavy** — 10% ``fast``, 30% ``cable``, 60% ``dsl``: the access
  mix tilted toward the slow tier.

Tier mixes vary *download* only (uploads stay at the paper's ``u = 1``)
so every mechanism — including strict barter and network coding, whose
one-upload-per-tick structure is what the experiment interrogates —
accepts the same spec. Two differentiated-service policies ride on top,
each over the non-uniform mixes on its honoring mechanism:

* **priority** — BitTorrent's tier-weighted unchoke
  (``tier_weighted_unchoke=True``) on an upload-tiered variant of the
  mix (``fast`` uploads 2/tick), so fast peers win unchoke slots;
* **paid** — credit-limited barter where the ``fast`` tier has paid for
  a ``paid_multiplier`` x credit line on the barter ledger
  (:class:`~repro.core.mechanisms.CreditLimitedBarter` tier
  multipliers).

Every run arms a :class:`~repro.telemetry.TelemetrySpec`; the digests
are folded across campaign replicas (exact histogram merges,
per-replica percentile samples with t-based 95% CIs — see
:mod:`repro.analysis.heterogeneity`). The headline: per-tier
completion-time percentiles under strict barter vs cooperative — how
much longer the slow tier waits when it must pay for blocks in kind.
The grid per scale (``mixes``, ``paid_multiplier``, telemetry
``window``) is :data:`GRIDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.heterogeneity import (
    fold_results,
    server_utilization,
    tier_completion_stats,
    tier_wait_percentiles,
)
from ..analysis.sweeps import sweep
from ..core.bandwidth import BandwidthClasses, BandwidthTier
from ..core.errors import ConfigError
from ..core.mechanisms import CreditLimitedBarter
from ..telemetry import TelemetrySpec
from .figures import FigureResult
from .mechanisms import MECHANISMS, run_mechanism
from .scale import Scale, resolve_grid

__all__ = [
    "heterogeneity", "mix_spec", "GRIDS", "MECHANISMS", "MIXES", "POLICIES",
]

#: Named tier mixes: ``name -> ((tier, share, upload, download), ...)``.
#: The upload column only takes effect in the upload-tiered variant used
#: by the priority policy; the base variant pins every upload to the
#: paper's ``u = 1`` so download-support engines accept the spec.
MIXES: dict[str, tuple[tuple[str, float, int, int], ...]] = {
    "uniform": (),
    "broadband": (
        ("fast", 0.25, 2, 4),
        ("cable", 0.50, 1, 2),
        ("dsl", 0.25, 1, 1),
    ),
    "dsl-heavy": (
        ("fast", 0.10, 2, 4),
        ("cable", 0.30, 1, 2),
        ("dsl", 0.60, 1, 1),
    ),
}

#: Differentiated-service policies and the mechanism honoring each.
POLICIES = {"priority": "bittorrent", "paid": "credit"}

#: The tier whose clients have paid for a larger barter credit line.
PAID_TIER = "fast"


def mix_spec(name: str, uploads: bool = False) -> BandwidthClasses:
    """The :class:`BandwidthClasses` spec of a named mix.

    ``uploads=True`` selects the upload-tiered variant (used by the
    priority policy on full-support engines); the default variant keeps
    every upload at 1 so ``"download"``-support engines accept it.
    """
    rows = MIXES[name]
    return BandwidthClasses(
        tuple(
            BandwidthTier(
                tier,
                share,
                upload=(u if uploads else 1),
                download=d,
            )
            for tier, share, u, d in rows
        )
    )


@dataclass(frozen=True)
class _HeterogeneityRun:
    """Grid and factory: point = (mechanism, mix, policy).

    ``mixes`` names tier mixes from :data:`MIXES` ("uniform", the
    null-spec baseline, first); ``window`` is the telemetry window width
    (ticks) and ``paid_multiplier`` the credit multiplier the paid fast
    tier buys on the barter ledger.

    Picklable; the bandwidth spec is rebuilt per call from the mix name
    (identical points always carry identical specs) and the kernel
    realizes tier assignment from the run's own RNG, so replicates see
    independent tier draws. Telemetry is armed on every run — the
    digest is the experiment's entire result surface. The mix axis
    stays out of the repr, which is the result cache's fingerprint.
    """

    n: int
    k: int
    credit: int
    paid_multiplier: int
    window: int
    max_ticks: int
    mixes: tuple[str, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.mixes[:1] != ("uniform",):
            raise ConfigError(
                "heterogeneity grid must start at the 'uniform' baseline mix"
            )
        unknown = sorted(set(self.mixes) - set(MIXES))
        if unknown:
            raise ConfigError(
                f"unknown tier mixes {unknown}; choose from {sorted(MIXES)}"
            )

    def points(self) -> list[tuple[str, str, str]]:
        points = [
            (mech, mix, "equal") for mech in MECHANISMS for mix in self.mixes
        ]
        for policy, mech in POLICIES.items():
            points.extend(
                (mech, mix, policy) for mix in self.mixes if mix != "uniform"
            )
        return points

    def __call__(self, point: object, seed: int):
        mechanism, mix, policy = point  # type: ignore[misc]
        spec = mix_spec(str(mix), uploads=(policy == "priority"))
        options = dict(
            max_ticks=self.max_ticks,
            bandwidth=None if spec.is_null else spec,
            telemetry=TelemetrySpec(window=self.window),
        )
        if mechanism == "credit" and policy == "paid":
            options["mechanism"] = CreditLimitedBarter(
                self.credit,
                tier_multipliers={PAID_TIER: self.paid_multiplier},
            )
        if mechanism == "bittorrent":
            options["tier_weighted_unchoke"] = policy == "priority"
        return run_mechanism(
            mechanism, self.n, self.k, seed, self.credit, **options
        )


GRIDS = {
    "full": _HeterogeneityRun(
        n=192, k=96, credit=2, paid_multiplier=3, window=32,
        max_ticks=6000, mixes=("uniform", "broadband", "dsl-heavy"),
    ),
    "xl": _HeterogeneityRun(
        n=128, k=64, credit=2, paid_multiplier=3, window=24,
        max_ticks=3000, mixes=("uniform", "broadband", "dsl-heavy"),
    ),
    "lite": _HeterogeneityRun(
        n=64, k=32, credit=2, paid_multiplier=3, window=16,
        max_ticks=1500, mixes=("uniform", "broadband", "dsl-heavy"),
    ),
    "ci": _HeterogeneityRun(
        n=20, k=10, credit=2, paid_multiplier=3, window=6,
        max_ticks=400, mixes=("uniform", "broadband"),
    ),
}


def heterogeneity(
    scale: str | Scale | None = None,
    base_seed: int = 67,
    replicas_per_batch: int | None = None,
) -> FigureResult:
    """Per-tier completion percentiles across mechanisms and tier mixes.

    One row per ``(mechanism, mix, policy, tier)``: tier population,
    completed count, the across-replica mean p50/p90 completion tick
    (with a t-based 95% CI on the p50), the p90 block wait from the
    exactly-merged cross-replica histograms, and the mean server upload
    utilization. ``replicas_per_batch`` routes the sweep through the
    batched execution path; telemetry digests ride the summaries' meta,
    so the folded statistics are identical.
    """
    s, g = resolve_grid(GRIDS, scale)
    points = g.points()
    swept = sweep(
        points,
        g,
        replicates=s.replicates,
        base_seed=base_seed,
        keep_results=True,
        experiment="heterogeneity",
        replicas_per_batch=replicas_per_batch,
    )
    by_point = {p.label: p for p in swept}

    rows: list[dict[str, object]] = []
    series: dict[str, list[tuple[float, float]]] = {}
    # headline accumulators: slow-tier p50 per mechanism on the widest
    # non-uniform mix, under equal service.
    slow_p50: dict[str, float] = {}
    headline_mix = next(
        (m for m in g.mixes if m != "uniform"), g.mixes[0]
    )
    for mech, mix, policy in points:
        results = by_point[(mech, mix, policy)].results
        folded = fold_results(results)
        p50 = tier_completion_stats(folded, "p50")
        p90 = tier_completion_stats(folded, "p90")
        waits = tier_wait_percentiles(folded, 90.0)
        util = server_utilization(folded)
        digests = [r.meta.get("telemetry") for r in results]
        tiers = sorted(
            {t for d in digests if d for t in d.get("tiers", {})}
        )
        # Tier draws differ per replica, so population (like completed)
        # is an across-replica mean.
        pops: dict[str, list[int]] = {}
        dones: dict[str, list[int]] = {}
        for d in digests:
            if not d:
                continue
            for tier, entry in d.get("completion", {}).items():
                pops.setdefault(tier, []).append(int(entry.get("population", 0)))
                dones.setdefault(tier, []).append(int(entry.get("completed", 0)))
        for tier in tiers:
            tier_p50 = p50.get(tier)
            tier_p90 = p90.get(tier)
            rows.append(
                {
                    "mechanism": mech,
                    "mix": mix,
                    "policy": policy,
                    "tier": tier,
                    "pop": (
                        sum(pops[tier]) / len(pops[tier])
                        if pops.get(tier)
                        else None
                    ),
                    "done": (
                        sum(dones[tier]) / len(dones[tier])
                        if dones.get(tier)
                        else 0
                    ),
                    "p50 T": tier_p50.mean if tier_p50 else None,
                    "ci95": tier_p50.ci95 if tier_p50 else None,
                    "p90 T": tier_p90.mean if tier_p90 else None,
                    "wait p90": waits.get(tier),
                    "srv util": util.mean if util else None,
                }
            )
            if (
                mix == headline_mix
                and policy == "equal"
                and tier == "dsl"
                and tier_p50 is not None
            ):
                slow_p50[mech] = tier_p50.mean
        if mix == headline_mix and policy == "equal" and mech in (
            "cooperative",
            "strict",
        ):
            series.update(
                _throughput_series(mech, digests, g.window)
            )

    notes = [
        "no paper baseline: the paper's model is uniform (u=1, common "
        "d); this sweep reruns the mechanism comparison over named "
        "bandwidth tier mixes (repro.core.bandwidth) with telemetry "
        "digests armed (repro.telemetry)",
        "p50/p90 T are across-replica means of per-replica per-tier "
        "completion-tick percentiles (ci95 on the p50); wait p90 is "
        "the per-tier block inter-arrival p90 from exactly-merged "
        "histograms; srv util is the mean server upload utilization",
        "tier mixes vary download only (uploads stay 1) so every "
        "mechanism accepts the same spec; the priority policy runs "
        "bittorrent on an upload-tiered variant (fast uploads 2), the "
        "paid policy gives the fast tier a "
        f"{g.paid_multiplier}x credit line",
    ]
    if "strict" in slow_p50 and "cooperative" in slow_p50:
        gap = slow_p50["strict"] / slow_p50["cooperative"]
        notes.append(
            f"the price of barter for the slow tier ({headline_mix} "
            f"mix, dsl, equal service): strict barter's p50 completion "
            f"is {gap:.1f}x cooperative's — slow nodes must pay for "
            "blocks in kind at a rate their own download starves"
        )
    return FigureResult(
        name="Heterogeneity",
        title=(
            f"bandwidth tier mixes, n={g.n}, k={g.k}, "
            f"credit s={g.credit}, telemetry window={g.window}"
        ),
        scale=s.name,
        columns=(
            "mechanism", "mix", "policy", "tier", "pop", "done",
            "p50 T", "ci95", "p90 T", "wait p90", "srv util",
        ),
        rows=rows,
        series=series,
        x_label="tick",
        y_label="blocks/tick/node",
        notes=notes,
    )


def _throughput_series(
    mech: str, digests, window: int
) -> dict[str, list[tuple[float, float]]]:
    """Per-tier delivery-rate curves averaged elementwise over replicas.

    Replicates end at different ticks, so the mean covers the common
    window prefix — the part every replicate observed. Window ``w`` is
    plotted at its midpoint tick.
    """
    out: dict[str, list[tuple[float, float]]] = {}
    per_tier: dict[str, list[list[float]]] = {}
    for d in digests:
        if not d:
            continue
        for tier, entry in d.get("throughput", {}).items():
            per_tier.setdefault(tier, []).append(list(entry["per_window"]))
    for tier, runs in sorted(per_tier.items()):
        horizon = min(len(r) for r in runs)
        if not horizon:
            continue
        out[f"{mech}/{tier}"] = [
            (
                w * window + (window + 1) / 2.0,
                sum(r[w] for r in runs) / len(runs),
            )
            for w in range(horizon)
        ]
    return out
