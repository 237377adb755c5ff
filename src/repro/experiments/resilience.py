"""Resilience experiment: the price of barter on a faulty network.

The paper evaluates every mechanism on a perfect network, so this
experiment has no paper baseline — it extends the comparison along the
robustness axis the paper leaves to "systems specifically tailored toward
goals like robustness". The question it answers: *when transfers fail and
nodes crash, how much of the damage is the mechanism's fault?*

All six registry mechanisms run over the same loss x crash grid on a
complete graph, with identical fault seeds per grid point:

* **cooperative** — uploads freely; faults only cost repeated attempts;
* **credit-limited barter** (``s`` from the grid) — a crashed node that
  rejoins empty-handed can still be fed ``s`` blocks per neighbor on
  credit, so recovery is gated but not blocked;
* **strict barter** (randomized exchange) — a rejoining node with
  nothing to trade can only be re-fed by the server's one free seed per
  tick, so crashes starve it and completion probability collapses first;
* **bittorrent** — tit-for-tat choking; a crashed peer is evicted from
  all unchoke sets and a rejoiner bootstraps through the server's
  optimistic unchoke;
* **coding** — random linear network coding; a crash truncates the
  node's GF(2) basis to the sampled retained rows;
* **async** — the continuous-time engine on kernel event windows, same
  crash/rejoin semantics judged per unit-time window.

Crash faults use crash-rejoin (delay and retention from the grid): a
crash permanently destroys a sampled fraction of a node's blocks, which
can make blocks server-only again. Reported per point: completion
probability, mean completion time of completed runs, overhead against
the same mechanism's fault-free baseline, wasted-upload fraction, and
the abort breakdown (proven deadlock / stall / tick-guard).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.resilience import (
    abort_breakdown,
    completion_probability,
    overhead_ratio,
    wasted_upload_fraction,
)
from ..analysis.sweeps import sweep
from ..core.errors import ConfigError
from ..faults.plan import FaultPlan
from .figures import FigureResult
from .mechanisms import MECHANISMS, run_mechanism
from .scale import Scale, resolve_grid

__all__ = ["resilience", "GRIDS"]


@dataclass(frozen=True)
class _ResilienceRun:
    """Grid and factory: point = (mechanism, loss_rate, crash_rate).

    Crashes are a sustained per-tick hazard (uncapped unless
    ``max_crashes``), so completion requires surviving a crash-free
    window — the regime that separates the mechanisms' repair
    bandwidth. Crash rates scale inversely with ``n``.

    Picklable (parallel executors ship it to workers); the fault plan is
    rebuilt per call from the point, and a (0, 0) point yields a *null*
    plan — the baseline runs are bit-identical to plain ones. The axes
    stay out of the repr, which is the result cache's fingerprint.
    """

    n: int
    k: int
    credit: int
    rejoin_delay: int
    retention: float
    max_crashes: int | None
    max_ticks: int
    loss_rates: tuple[float, ...] = field(repr=False)
    crash_rates: tuple[float, ...] = field(repr=False)

    def __post_init__(self) -> None:
        # Overheads divide by the (0, 0) point, so it must come first.
        if self.loss_rates[:1] != (0.0,) or self.crash_rates[:1] != (0.0,):
            raise ConfigError(
                "resilience grid must start at loss 0.0 and crash 0.0 "
                "(the fault-free baseline)"
            )

    def points(self) -> list[tuple[str, float, float]]:
        return [
            (mech, loss, crash)
            for mech in MECHANISMS
            for loss in self.loss_rates
            for crash in self.crash_rates
        ]

    def __call__(self, point: object, seed: int):
        mechanism, loss, crash = point  # type: ignore[misc]
        plan = FaultPlan(
            loss_rate=float(loss),
            crash_rate=float(crash),
            rejoin_delay=self.rejoin_delay if crash else 0,
            rejoin_retention=self.retention if crash else 0.0,
            max_crashes=self.max_crashes,
        )
        # Every engine carries the full fault model, so the same plan
        # applies verbatim.
        return run_mechanism(
            mechanism, self.n, self.k, seed, self.credit,
            max_ticks=self.max_ticks, keep_log=False, faults=plan,
        )


GRIDS = {
    "full": _ResilienceRun(
        n=256, k=128, credit=2, rejoin_delay=16, retention=0.25,
        max_crashes=None, max_ticks=6000,
        loss_rates=(0.0, 0.05, 0.15, 0.3),
        crash_rates=(0.0, 0.00025, 0.0005),
    ),
    "xl": _ResilienceRun(
        n=128, k=64, credit=2, rejoin_delay=12, retention=0.25,
        max_crashes=None, max_ticks=3000,
        loss_rates=(0.0, 0.05, 0.15, 0.3),
        crash_rates=(0.0, 0.0005, 0.001),
    ),
    "lite": _ResilienceRun(
        n=64, k=32, credit=2, rejoin_delay=10, retention=0.25,
        max_crashes=None, max_ticks=1500,
        loss_rates=(0.0, 0.05, 0.15, 0.3),
        crash_rates=(0.0, 0.001, 0.002),
    ),
    "ci": _ResilienceRun(
        n=24, k=12, credit=2, rejoin_delay=6, retention=0.25,
        max_crashes=None, max_ticks=600,
        loss_rates=(0.0, 0.1, 0.25),
        crash_rates=(0.0, 0.015),
    ),
}


def resilience(
    scale: str | Scale | None = None,
    base_seed: int = 53,
    replicas_per_batch: int | None = None,
) -> FigureResult:
    """Completion probability and overhead under loss x crash faults.

    ``replicas_per_batch`` routes the replicate sweep through the
    batched execution path; the resilience readers work off per-run
    meta (``failed_transfers``, ``uploads_per_tick``, abort reasons),
    all preserved by the columnar summaries, so the figure is identical.
    ``None`` defers to the ambient campaign configuration.
    """
    s, g = resolve_grid(GRIDS, scale)
    points = g.points()
    swept = sweep(
        points,
        g,
        replicates=s.replicates,
        base_seed=base_seed,
        keep_results=True,
        experiment="resilience",
        replicas_per_batch=replicas_per_batch,
    )

    by_point = {p.label: p for p in swept}
    baselines = {
        mech: by_point[(mech, g.loss_rates[0], g.crash_rates[0])]
        for mech in MECHANISMS
    }

    rows: list[dict[str, object]] = []
    series: dict[str, list[tuple[float, float]]] = {}
    for mech, loss, crash in points:
        point = by_point[(mech, loss, crash)]
        results = point.results
        prob = completion_probability(results)
        base = baselines[mech].mean_completion
        overhead = overhead_ratio(results, base) if base else None
        breakdown = abort_breakdown(results)
        rows.append(
            {
                "mechanism": mech,
                "loss": loss,
                "crash": crash,
                "P(complete)": prob,
                "mean T": point.mean_completion,
                "overhead": overhead,
                "wasted": wasted_upload_fraction(results),
                "deadlock": breakdown["deadlock"],
                "stall": breakdown["stall"] + breakdown["max-ticks"],
            }
        )
        if crash == max(g.crash_rates):
            series.setdefault(f"{mech} (crash={crash})", []).append(
                (float(loss), prob)
            )

    notes = [
        "no paper baseline: the paper assumes a perfect network; this "
        "sweep extends it along the robustness axis",
        "strict barter's completion probability collapses first under "
        "crashes (a rejoined node has nothing to trade; only the server's "
        "one free seed per tick re-feeds it), while credit-limited barter "
        "tracks cooperative at bounded overhead",
        "all six registry mechanisms sweep the same grid with identical "
        "fault seeds — bittorrent, coding and async graduated to full "
        "crash/rejoin support (see the fault parity table in docs/API.md)",
        f"crash points use crash-rejoin: delay {g.rejoin_delay} ticks, "
        f"retention {g.retention}, "
        + (
            f"at most {g.max_crashes} crashes"
            if g.max_crashes is not None
            else "sustained hazard (no crash cap)"
        ),
    ]
    return FigureResult(
        name="Resilience",
        title=(
            f"fault injection, n={g.n}, k={g.k}, "
            f"credit s={g.credit}"
        ),
        scale=s.name,
        columns=(
            "mechanism", "loss", "crash", "P(complete)", "mean T",
            "overhead", "wasted", "deadlock", "stall",
        ),
        rows=rows,
        series=series,
        x_label="loss rate",
        y_label="P(complete)",
        notes=notes,
    )
