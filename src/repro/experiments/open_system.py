"""Open-system experiment: the price of barter when peers come and go.

The paper evaluates every mechanism as a closed batch — all clients
present at tick 0, run until the last finishes. Real swarms are open
systems: peers arrive over time (Poisson, or all at once in a flash
crowd), nap on diurnal schedules, and leave once satisfied. This
experiment reruns the paper's mechanism comparison under the
:mod:`repro.workloads` generator, across three scenarios:

* **flash** — a small initial cohort, background Poisson arrivals, and a
  crowd of ``flash_size`` clients landing together at
  ``flash_tick``. The regime where strict barter hurts most: every
  crowd member arrives empty-handed, so pairs have nothing mutual to
  trade and the server's one free seed per tick is the only way in,
  while cooperative swarms absorb the crowd in parallel.
* **steady** — Poisson arrivals with steady-state departures: a client
  departs ``holdover`` ticks after completing (its copies leave with
  it), so capacity must come from peers still mid-download.
* **diurnal** — Poisson arrivals with half the swarm on an on/off
  availability cycle (period ``period``, uptime ``uptime``);
  napping peers keep their blocks but serve nothing while away.

The headline metric is the **sojourn time** (join to completion, the
open-system replacement for batch completion time), reported as pooled
p50/p95 plus a mean with 95% CI, alongside the completed fraction, the
time-averaged swarm size, and the seed-capacity share. The flash
scenario also emits per-mechanism swarm-size series — the crowd's
drain-out curve — at the highest arrival rate. The grid per scale
(``flash_size``, ``holdover``, ``period`` ...) is :data:`GRIDS`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.opensys import (
    mean_swarm_size,
    seed_capacity_share,
    sojourn_percentiles,
    sojourn_times,
    swarm_size_series,
)
from ..analysis.stats import summarize
from ..analysis.sweeps import sweep
from ..core.errors import ConfigError
from ..workloads import AvailabilityProfile, FlashCrowd, WorkloadSpec
from .figures import FigureResult
from .mechanisms import MECHANISMS, run_mechanism
from .scale import Scale, resolve_grid

__all__ = ["open_system", "GRIDS"]

SCENARIOS = ("flash", "steady", "diurnal")


@dataclass(frozen=True)
class _OpenSystemRun:
    """Grid and factory: point = (mechanism, arrival_rate, scenario).

    ``rates`` is the Poisson arrival-rate axis (clients per tick) and
    ``initial`` the fraction of clients present at tick 0; the rest form
    the arrival pool.

    Picklable (parallel executors ship it to workers); the workload spec
    is rebuilt per call from the point and the frozen parameters, so
    identical points always carry identical specs — and the kernel
    derives the compile seed from the run's own RNG, so replicates see
    independent arrival draws. The rate axis stays out of the repr,
    which is the result cache's fingerprint.
    """

    n: int
    k: int
    credit: int
    initial: float
    arrival_stop: int
    flash_tick: int
    flash_size: int
    flash_width: int
    holdover: int
    period: int
    uptime: float
    max_ticks: int
    rates: tuple[float, ...] = field(repr=False)

    def __post_init__(self) -> None:
        if not self.rates:
            raise ConfigError("open-system grid needs at least one rate")

    def points(self) -> list[tuple[str, float, str]]:
        return [
            (mech, rate, scenario)
            for mech in MECHANISMS
            for rate in self.rates
            for scenario in SCENARIOS
        ]

    def spec_for(self, rate: float, scenario: str) -> WorkloadSpec:
        """The workload spec one point describes (shared with tests)."""
        base = dict(
            initial_fraction=self.initial,
            arrival_rate=float(rate),
            arrival_start=1,
            arrival_stop=self.arrival_stop,
        )
        if scenario == "flash":
            return WorkloadSpec(
                **base,
                flash_crowds=(
                    FlashCrowd(self.flash_tick, self.flash_size, self.flash_width),
                ),
            )
        if scenario == "steady":
            return WorkloadSpec(
                **base,
                depart_after_complete=True,
                seed_holdover=self.holdover,
            )
        if scenario == "diurnal":
            return WorkloadSpec(
                **base,
                availability=(
                    AvailabilityProfile(
                        "diurnal", share=0.5, period=self.period, uptime=self.uptime
                    ),
                ),
            )
        raise ValueError(f"unknown scenario {scenario!r}")

    def __call__(self, point: object, seed: int):
        mechanism, rate, scenario = point  # type: ignore[misc]
        spec = self.spec_for(float(rate), str(scenario))
        # keep_log=False everywhere: with a workload attached the
        # membership runtime is the authority on completion ticks, so no
        # engine needs the transfer log to report sojourns.
        return run_mechanism(
            mechanism, self.n, self.k, seed, self.credit,
            max_ticks=self.max_ticks, keep_log=False, workload=spec,
        )


GRIDS = {
    "full": _OpenSystemRun(
        n=256, k=128, credit=2, initial=0.25, arrival_stop=300,
        flash_tick=40, flash_size=96, flash_width=5, holdover=10,
        period=40, uptime=0.7, max_ticks=6000,
        rates=(0.25, 0.5, 1.0, 2.0),
    ),
    "xl": _OpenSystemRun(
        n=128, k=64, credit=2, initial=0.25, arrival_stop=150,
        flash_tick=25, flash_size=48, flash_width=4, holdover=8,
        period=30, uptime=0.7, max_ticks=3000,
        rates=(0.25, 0.5, 1.0, 2.0),
    ),
    "lite": _OpenSystemRun(
        n=64, k=32, credit=2, initial=0.25, arrival_stop=80,
        flash_tick=15, flash_size=24, flash_width=3, holdover=6,
        period=20, uptime=0.7, max_ticks=1500,
        rates=(0.2, 0.5, 1.0),
    ),
    "ci": _OpenSystemRun(
        n=24, k=8, credit=2, initial=0.25, arrival_stop=30,
        flash_tick=8, flash_size=8, flash_width=2, holdover=4,
        period=12, uptime=0.75, max_ticks=400,
        rates=(0.2, 0.6),
    ),
}


def _mean_series(results) -> list[tuple[float, float]]:
    """Elementwise mean of per-replicate swarm-size series.

    Replicates end at different ticks (runs stop at their goal), so the
    mean covers the common prefix — the part every replicate observed.
    """
    series = [swarm_size_series(r) for r in results]
    series = [t for t in series if t]
    if not series:
        return []
    horizon = min(len(t) for t in series)
    return [
        (float(tick + 1), sum(t[tick] for t in series) / len(series))
        for tick in range(horizon)
    ]


def open_system(
    scale: str | Scale | None = None,
    base_seed: int = 59,
    replicas_per_batch: int | None = None,
) -> FigureResult:
    """Sojourn times and swarm dynamics under open-system workloads.

    ``replicas_per_batch`` routes the replicate sweep through the
    batched execution path (whole replica batches per worker, columnar
    summaries back); sojourn/swarm statistics are identical because the
    summaries preserve ``client_completions`` and the run meta the
    open-system readers consume. ``None`` defers to the ambient
    :class:`~repro.campaign.context.CampaignConfig` (the CLI's
    ``--replicas-per-batch``).
    """
    s, g = resolve_grid(GRIDS, scale)
    points = g.points()
    swept = sweep(
        points,
        g,
        replicates=s.replicates,
        base_seed=base_seed,
        keep_results=True,
        experiment="open-system",
        replicas_per_batch=replicas_per_batch,
    )
    by_point = {p.label: p for p in swept}

    rows: list[dict[str, object]] = []
    series: dict[str, list[tuple[float, float]]] = {}
    top_rate = max(g.rates)
    flash_p95: dict[str, float] = {}
    for mech, rate, scenario in points:
        point = by_point[(mech, rate, scenario)]
        results = point.results
        pooled = sojourn_percentiles(results)
        arrived = sum(int(r.meta.get("arrived", 0)) for r in results)
        completed = sum(len(sojourn_times(r)) for r in results)
        per_run_means = [
            sum(st.values()) / len(st)
            for st in (sojourn_times(r) for r in results)
            if st
        ]
        soj = summarize(per_run_means) if per_run_means else None
        swarm_means = [m for m in (mean_swarm_size(r) for r in results) if m is not None]
        seed_shares = [
            c for c in (seed_capacity_share(r) for r in results) if c is not None
        ]
        rows.append(
            {
                "mechanism": mech,
                "rate": rate,
                "scenario": scenario,
                "served": (completed / arrived) if arrived else None,
                "p50 soj": pooled.get(0.5),
                "p95 soj": pooled.get(0.95),
                "mean soj": soj.mean if soj else None,
                "ci95": soj.ci95 if soj else None,
                "swarm": (
                    sum(swarm_means) / len(swarm_means) if swarm_means else None
                ),
                "seed share": (
                    sum(seed_shares) / len(seed_shares) if seed_shares else None
                ),
            }
        )
        if scenario == "flash" and rate == top_rate:
            curve = _mean_series(results)
            if curve:
                series[f"{mech} swarm"] = curve
            if 0.95 in pooled:
                flash_p95[mech] = pooled[0.95]

    notes = [
        "no paper baseline: the paper evaluates closed batches; this "
        "sweep reruns the mechanism comparison as an open system "
        "(Poisson arrivals, flash crowds, diurnal availability, "
        "steady-state departures) via repro.workloads",
        "sojourn time = join tick to completion tick; 'served' is the "
        "fraction of joined clients that completed before the run ended",
        f"flash scenario: {g.flash_size} clients land together at "
        f"tick {g.flash_tick} over width {g.flash_width} on top of "
        "the background Poisson rate",
    ]
    if "strict" in flash_p95 and "cooperative" in flash_p95:
        gap = flash_p95["strict"] / flash_p95["cooperative"]
        notes.append(
            "the price of barter under a flash crowd (rate "
            f"{top_rate}): strict barter's p95 sojourn is {gap:.1f}x "
            "cooperative's — crowd members arrive empty-handed, so only "
            "the server's one free seed per tick lets them start trading"
        )
    return FigureResult(
        name="Open system",
        title=(
            f"open-system workloads, n={g.n}, k={g.k}, "
            f"initial={g.initial:g}, credit s={g.credit}"
        ),
        scale=s.name,
        columns=(
            "mechanism", "rate", "scenario", "served", "p50 soj",
            "p95 soj", "mean soj", "ci95", "swarm", "seed share",
        ),
        rows=rows,
        series=series,
        x_label="tick",
        y_label="swarm size",
        notes=notes,
    )
