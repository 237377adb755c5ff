"""Adversary experiment: the price of barter under hostile clients.

The paper's incentive argument is about *rational* peers: barter makes
free-riding unprofitable. This experiment stresses the stronger claim —
what happens when a fraction of the swarm is outright adversarial — by
sweeping all six registry mechanisms over an adversary-fraction grid
with identical :class:`~repro.adversary.AdversaryPlan` seeds per point.

Each sampled adversarial client takes one of two roles (the fraction
splits evenly): **free-riders** never upload a block, and **polluters**
corrupt each attempted upload with probability ``pollution_rate``
(the delivery is charged and logged as ``polluted`` but the receiver
detects it and re-fetches). The strike-based blacklist defense is armed
(``strikes`` bad deliveries ban the pair). Fraction 0 runs a *null*
plan — provably bit-identical to no adversary at all — and anchors each
mechanism's overhead baseline.

The coding engine declares ``adversary_support="free-riders"`` (a
polluted coded block would desync the replayable coding-vector stream),
so its points carry the whole fraction as free-riders; its rows measure
rational-attack damage only, which the notes call out.

Reported per point: completion probability, mean completion time,
goodput fraction (real deliveries over all charged attempts), pollution
overhead against the clean baseline, the free-rider vs contributor
completion gap, and the defense's mean time-to-first-ban. The grid per
scale, ``pollution_rate`` and ``strikes`` included, is :data:`GRIDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..adversary.plan import AdversaryPlan
from ..analysis.resilience import completion_probability
from ..analysis.robustness import (
    completion_gap,
    goodput_fraction,
    pollution_overhead,
    time_to_isolate,
)
from ..analysis.sweeps import sweep
from ..core.errors import ConfigError
from .figures import FigureResult
from .mechanisms import MECHANISMS, run_mechanism
from .scale import Scale, resolve_grid

__all__ = ["adversary", "GRIDS"]


@dataclass(frozen=True)
class _AdversaryRun:
    """Grid and factory: point = (mechanism, adversary_fraction).

    Picklable (parallel executors ship it to workers); the adversary
    plan is rebuilt per call from the point, and a fraction-0 point
    passes ``adversary=None`` — the baseline runs are bit-identical to
    plain ones (the null-plan guarantee, pinned by the golden tests).
    The fraction axis stays out of the repr, which is the result
    cache's fingerprint.
    """

    n: int
    k: int
    credit: int
    pollution_rate: float
    strikes: int
    max_ticks: int
    fractions: tuple[float, ...] = field(repr=False)

    def __post_init__(self) -> None:
        # Overheads divide by the fraction-0 point, so it must come first.
        if self.fractions[:1] != (0.0,):
            raise ConfigError(
                "adversary grid must start at fraction 0.0 (the clean "
                "baseline)"
            )

    def points(self) -> list[tuple[str, float]]:
        return [(mech, frac) for mech in MECHANISMS for frac in self.fractions]

    def _plan(self, mechanism: str, fraction: float) -> AdversaryPlan | None:
        if not fraction:
            return None
        if mechanism == "coding":
            # coding is free-riders-only (adversary_support honesty):
            # the whole fraction free-rides, no polluters, no defense
            # state to arm.
            return AdversaryPlan(free_rider_fraction=fraction)
        return AdversaryPlan(
            free_rider_fraction=fraction / 2,
            polluter_fraction=fraction / 2,
            pollution_rate=self.pollution_rate,
            strike_threshold=self.strikes,
        )

    def __call__(self, point: object, seed: int):
        mechanism, fraction = point  # type: ignore[misc]
        plan = self._plan(mechanism, float(fraction))
        # The log is kept: completion_gap needs per-client completion
        # ticks, which mask-based engines only report with a retained log.
        return run_mechanism(
            mechanism, self.n, self.k, seed, self.credit,
            max_ticks=self.max_ticks, adversary=plan,
        )


GRIDS = {
    "full": _AdversaryRun(
        n=192, k=96, credit=2, pollution_rate=0.3, strikes=3,
        max_ticks=6000, fractions=(0.0, 0.1, 0.2, 0.3),
    ),
    "xl": _AdversaryRun(
        n=96, k=48, credit=2, pollution_rate=0.3, strikes=3,
        max_ticks=3000, fractions=(0.0, 0.1, 0.2, 0.3),
    ),
    "lite": _AdversaryRun(
        n=48, k=24, credit=2, pollution_rate=0.3, strikes=3,
        max_ticks=1500, fractions=(0.0, 0.15, 0.3),
    ),
    "ci": _AdversaryRun(
        n=16, k=8, credit=2, pollution_rate=0.3, strikes=3,
        max_ticks=400, fractions=(0.0, 0.25),
    ),
}


def adversary(
    scale: str | Scale | None = None,
    base_seed: int = 59,
    replicas_per_batch: int | None = None,
) -> FigureResult:
    """Robustness of all six mechanisms under adversarial clients.

    Sweeps mechanism x adversary fraction with campaign replicates and
    reports the strict-barter vs cooperative robustness gap in the
    notes. ``replicas_per_batch`` routes the sweep through the batched
    execution path; the robustness readers work off per-run meta and
    the retained logs, both preserved by the columnar summaries.
    """
    s, g = resolve_grid(GRIDS, scale)
    points = g.points()
    swept = sweep(
        points,
        g,
        replicates=s.replicates,
        base_seed=base_seed,
        keep_results=True,
        experiment="adversary",
        replicas_per_batch=replicas_per_batch,
    )

    by_point = {p.label: p for p in swept}
    baselines = {mech: by_point[(mech, g.fractions[0])] for mech in MECHANISMS}

    rows: list[dict[str, object]] = []
    series: dict[str, list[tuple[float, float]]] = {}
    top = max(g.fractions)
    for mech, frac in points:
        point = by_point[(mech, frac)]
        results = point.results
        prob = completion_probability(results)
        base = baselines[mech].mean_completion
        overhead = pollution_overhead(results, base) if base and frac else None
        rows.append(
            {
                "mechanism": mech,
                "fraction": frac,
                "P(complete)": prob,
                "mean T": point.mean_completion,
                "goodput": goodput_fraction(results),
                "overhead": overhead,
                "rider gap": completion_gap(results),
                "isolate": time_to_isolate(results),
            }
        )
        series.setdefault(mech, []).append((float(frac), prob))

    notes = [
        "no paper baseline: the paper's incentive argument assumes "
        "rational peers; this sweep measures outright hostile ones",
        "each adversarial client either free-rides or pollutes (the "
        f"fraction splits evenly; pollution rate "
        f"{g.pollution_rate}, strike threshold {g.strikes}); "
        "fraction 0 is a null plan, bit-identical to no adversary",
        "coding is free-riders-only (adversary_support honesty: a "
        "polluted coded block would desync the coding-vector stream), "
        "so its rows measure rational-attack damage only",
    ]
    gap = _robustness_gap(by_point, top)
    if gap:
        notes.append(gap)
    return FigureResult(
        name="Adversary",
        title=(
            f"adversarial clients, n={g.n}, k={g.k}, "
            f"credit s={g.credit}"
        ),
        scale=s.name,
        columns=(
            "mechanism", "fraction", "P(complete)", "mean T",
            "goodput", "overhead", "rider gap", "isolate",
        ),
        rows=rows,
        series=series,
        x_label="adversary fraction",
        y_label="P(complete)",
        notes=notes,
    )


def _robustness_gap(by_point: dict, top: float) -> str | None:
    """Render the headline strict-barter vs cooperative comparison.

    At the top adversary fraction, compare completion probability and
    mean completion time of strict barter against the cooperative
    baseline mechanism — the robustness cost of demanding payment from
    a swarm that contains clients who will never pay honestly.
    """
    strict = by_point.get(("strict", top))
    coop = by_point.get(("cooperative", top))
    if strict is None or coop is None:
        return None
    sp = completion_probability(strict.results)
    cp = completion_probability(coop.results)
    line = (
        f"robustness gap at fraction {top}: strict barter "
        f"P(complete)={sp:.2f}"
    )
    if strict.mean_completion:
        line += f", mean T={strict.mean_completion:.1f}"
    line += f" vs cooperative P(complete)={cp:.2f}"
    if coop.mean_completion:
        line += f", mean T={coop.mean_completion:.1f}"
    return line
