"""Experiment scales: paper-faithful or reduced parameter grids.

Paper-scale sweeps (n up to 10,000 and n = k = 1000 degree sweeps, several
replicates each) take multi-hour wall-clock in pure Python. Every
experiment therefore runs at one of four scales:

* ``full`` — the paper's parameters;
* ``xl`` — near-paper parameters sized for the parallel campaign
  executor (``repro-experiments --jobs N``): ~1/2 linear scale with an
  extra replicate-heavy grid that amortises well over workers;
* ``lite`` — the paper's shape at ~1/4 linear scale (minutes);
* ``ci`` — small swarms for tests and benchmarks (seconds); the
  campaign smoke tests pin this scale's exact task counts
  (:func:`sweep_task_counts`).

The scale is chosen per call or via the ``REPRO_SCALE`` environment
variable. The paper's qualitative claims (linearity in ``k``, logarithmic
growth in ``n``, sharp degree thresholds, Rarest-First's multiple-fold
threshold reduction) hold at every scale; absolute thresholds shift with
``n`` and ``k``, which EXPERIMENTS.md records.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..core.errors import ConfigError

__all__ = ["Scale", "resolve_scale", "sweep_task_counts", "SCALES"]


@dataclass(frozen=True, slots=True)
class Scale:
    """One experiment scale: grids for every figure."""

    name: str
    replicates: int
    # Figure 3: T vs n at fixed k, complete graph.
    fig3_k: int
    fig3_ns: tuple[int, ...]
    # Figure 4: T vs k at fixed n, complete graph.
    fig4_n: int
    fig4_ks: tuple[int, ...]
    # Least-squares fit grid.
    fit_ns: tuple[int, ...]
    fit_ks: tuple[int, ...]
    # Figure 5: degree sweep, cooperative, random regular overlays.
    fig5_n: int
    fig5_ks: tuple[int, ...]
    fig5_degrees: tuple[int, ...]
    # Figures 6-7: degree sweep, credit-limited barter.
    fig67_n: int
    fig67_k: int
    fig67_degrees: tuple[int, ...]
    fig67_sd_product: int  # the paper's "s*d = 100" curve
    fig67_max_ticks: int
    # Schedule table grid.
    table_ns: tuple[int, ...]
    table_ks: tuple[int, ...]
    # Resilience sweep (fault injection): loss x crash grid per mechanism.
    # Crashes are a sustained per-tick hazard (uncapped), so completion
    # requires surviving a crash-free window — the regime that separates
    # the mechanisms' repair bandwidth. Rates scale inversely with n.
    res_n: int = 24
    res_k: int = 12
    res_credit: int = 2
    res_loss_rates: tuple[float, ...] = (0.0, 0.1, 0.25)
    res_crash_rates: tuple[float, ...] = (0.0, 0.015)
    res_rejoin_delay: int = 6
    res_retention: float = 0.25
    res_max_crashes: int | None = None
    res_max_ticks: int = 600
    # Open-system sweep (repro.workloads): mechanism x arrival-rate x
    # scenario grid. ``os_rates`` is the Poisson arrival-rate axis
    # (clients per tick); the flash scenario adds a crowd of
    # ``os_flash_size`` on top of the same background rate, and the
    # diurnal scenario puts half the swarm on an on/off availability
    # cycle. ``os_initial`` is the fraction of clients present at tick 0;
    # the rest form the arrival pool.
    os_n: int = 24
    os_k: int = 8
    os_credit: int = 2
    os_initial: float = 0.25
    os_rates: tuple[float, ...] = (0.2, 0.6)
    os_arrival_stop: int = 30
    os_flash_tick: int = 8
    os_flash_size: int = 8
    os_flash_width: int = 2
    os_holdover: int = 4
    os_period: int = 12
    os_uptime: float = 0.75
    os_max_ticks: int = 400
    # Adversary sweep (repro.adversary): mechanism x adversary-fraction
    # grid. Each sampled adversarial client either free-rides or
    # pollutes (the fraction splits evenly between the two roles;
    # engines carrying only free-riders put the whole fraction there),
    # polluters corrupt each attempt with ``adv_pollution_rate`` and the
    # strike-based blacklist bans a pair after ``adv_strikes`` bad
    # deliveries. Fraction 0 is the clean baseline (a null plan,
    # bit-identical to no adversary at all).
    adv_n: int = 24
    adv_k: int = 12
    adv_credit: int = 2
    adv_fractions: tuple[float, ...] = (0.0, 0.15, 0.3)
    adv_pollution_rate: float = 0.3
    adv_strikes: int = 3
    adv_max_ticks: int = 600
    # Heterogeneity sweep (repro.telemetry + bandwidth classes):
    # mechanism x tier-mix x service-policy grid. ``het_mixes`` names
    # the tier mixes defined in :mod:`repro.experiments.heterogeneity`
    # ("uniform" is the null-spec baseline); the priority and paid
    # differentiated-service policies run on their honoring mechanisms
    # over every non-uniform mix. ``het_window`` is the telemetry
    # window width (ticks); ``het_paid_multiplier`` is the credit
    # multiplier the paid fast tier buys on the barter ledger.
    het_n: int = 24
    het_k: int = 12
    het_credit: int = 2
    het_paid_multiplier: int = 3
    het_mixes: tuple[str, ...] = ("uniform", "broadband", "dsl-heavy")
    het_window: int = 8
    het_max_ticks: int = 600


SCALES: dict[str, Scale] = {
    "full": Scale(
        name="full",
        replicates=5,
        fig3_k=1000,
        fig3_ns=(10, 30, 100, 300, 1000, 3000, 10000),
        fig4_n=1000,
        fig4_ks=(10, 30, 100, 300, 1000, 3000, 10000),
        fit_ns=(64, 128, 256, 512, 1024),
        fit_ks=(250, 500, 1000, 2000),
        fig5_n=1000,
        fig5_ks=(1000, 2000),
        fig5_degrees=(4, 6, 8, 10, 15, 20, 25, 30, 40, 60, 80, 100),
        fig67_n=1000,
        fig67_k=1000,
        fig67_degrees=(20, 40, 60, 70, 80, 90, 100, 120, 140),
        fig67_sd_product=100,
        fig67_max_ticks=20000,
        table_ns=(16, 32, 100, 256, 1000),
        table_ks=(1, 16, 100, 1000),
        res_n=256,
        res_k=128,
        res_credit=2,
        res_loss_rates=(0.0, 0.05, 0.15, 0.3),
        res_crash_rates=(0.0, 0.00025, 0.0005),
        res_rejoin_delay=16,
        res_retention=0.25,
        res_max_crashes=None,
        res_max_ticks=6000,
        os_n=256,
        os_k=128,
        os_credit=2,
        os_initial=0.25,
        os_rates=(0.25, 0.5, 1.0, 2.0),
        os_arrival_stop=300,
        os_flash_tick=40,
        os_flash_size=96,
        os_flash_width=5,
        os_holdover=10,
        os_period=40,
        os_uptime=0.7,
        os_max_ticks=6000,
        adv_n=192,
        adv_k=96,
        adv_credit=2,
        adv_fractions=(0.0, 0.1, 0.2, 0.3),
        adv_pollution_rate=0.3,
        adv_strikes=3,
        adv_max_ticks=6000,
        het_n=192,
        het_k=96,
        het_credit=2,
        het_paid_multiplier=3,
        het_mixes=("uniform", "broadband", "dsl-heavy"),
        het_window=32,
        het_max_ticks=6000,
    ),
    "xl": Scale(
        name="xl",
        replicates=4,
        fig3_k=500,
        fig3_ns=(10, 30, 100, 300, 1000, 3000, 6000),
        fig4_n=500,
        fig4_ks=(10, 30, 100, 300, 1000, 3000),
        fit_ns=(64, 128, 256, 512),
        fit_ks=(125, 250, 500, 1000),
        fig5_n=500,
        fig5_ks=(500, 1000),
        fig5_degrees=(4, 6, 8, 10, 15, 20, 25, 30, 40, 60),
        fig67_n=500,
        fig67_k=500,
        fig67_degrees=(10, 20, 30, 40, 50, 60, 70, 90, 110),
        fig67_sd_product=50,
        fig67_max_ticks=12000,
        table_ns=(16, 32, 100, 256, 512),
        table_ks=(1, 16, 100, 512),
        res_n=128,
        res_k=64,
        res_credit=2,
        res_loss_rates=(0.0, 0.05, 0.15, 0.3),
        res_crash_rates=(0.0, 0.0005, 0.001),
        res_rejoin_delay=12,
        res_retention=0.25,
        res_max_crashes=None,
        res_max_ticks=3000,
        os_n=128,
        os_k=64,
        os_credit=2,
        os_initial=0.25,
        os_rates=(0.25, 0.5, 1.0, 2.0),
        os_arrival_stop=150,
        os_flash_tick=25,
        os_flash_size=48,
        os_flash_width=4,
        os_holdover=8,
        os_period=30,
        os_uptime=0.7,
        os_max_ticks=3000,
        adv_n=96,
        adv_k=48,
        adv_credit=2,
        adv_fractions=(0.0, 0.1, 0.2, 0.3),
        adv_pollution_rate=0.3,
        adv_strikes=3,
        adv_max_ticks=3000,
        het_n=128,
        het_k=64,
        het_credit=2,
        het_paid_multiplier=3,
        het_mixes=("uniform", "broadband", "dsl-heavy"),
        het_window=24,
        het_max_ticks=3000,
    ),
    "lite": Scale(
        name="lite",
        replicates=3,
        fig3_k=250,
        fig3_ns=(10, 30, 100, 300, 1000, 2500),
        fig4_n=250,
        fig4_ks=(10, 30, 100, 300, 1000),
        fit_ns=(32, 64, 128, 256),
        fit_ks=(64, 128, 256, 512),
        fig5_n=250,
        fig5_ks=(250, 500),
        fig5_degrees=(4, 6, 8, 10, 14, 18, 24, 32, 48),
        fig67_n=250,
        fig67_k=250,
        fig67_degrees=(8, 12, 16, 20, 24, 32, 40, 56, 80),
        fig67_sd_product=25,
        fig67_max_ticks=8000,
        table_ns=(16, 32, 100, 256),
        table_ks=(1, 16, 100),
        res_n=64,
        res_k=32,
        res_credit=2,
        res_loss_rates=(0.0, 0.05, 0.15, 0.3),
        res_crash_rates=(0.0, 0.001, 0.002),
        res_rejoin_delay=10,
        res_retention=0.25,
        res_max_crashes=None,
        res_max_ticks=1500,
        os_n=64,
        os_k=32,
        os_credit=2,
        os_initial=0.25,
        os_rates=(0.2, 0.5, 1.0),
        os_arrival_stop=80,
        os_flash_tick=15,
        os_flash_size=24,
        os_flash_width=3,
        os_holdover=6,
        os_period=20,
        os_uptime=0.7,
        os_max_ticks=1500,
        adv_n=48,
        adv_k=24,
        adv_credit=2,
        adv_fractions=(0.0, 0.15, 0.3),
        adv_pollution_rate=0.3,
        adv_strikes=3,
        adv_max_ticks=1500,
        het_n=64,
        het_k=32,
        het_credit=2,
        het_paid_multiplier=3,
        het_mixes=("uniform", "broadband", "dsl-heavy"),
        het_window=16,
        het_max_ticks=1500,
    ),
    "ci": Scale(
        name="ci",
        replicates=2,
        fig3_k=48,
        fig3_ns=(8, 24, 64, 160),
        fig4_n=64,
        fig4_ks=(8, 16, 48, 128),
        fit_ns=(16, 32, 64),
        fit_ks=(16, 32, 64),
        fig5_n=192,
        fig5_ks=(96, 192),
        fig5_degrees=(3, 4, 6, 8, 12, 16, 24),
        fig67_n=96,
        fig67_k=96,
        fig67_degrees=(4, 6, 8, 12, 16, 24, 36),
        fig67_sd_product=10,
        fig67_max_ticks=4000,
        table_ns=(8, 16, 33, 64),
        table_ks=(1, 8, 33),
        res_n=24,
        res_k=12,
        res_credit=2,
        res_loss_rates=(0.0, 0.1, 0.25),
        res_crash_rates=(0.0, 0.015),
        res_rejoin_delay=6,
        res_retention=0.25,
        res_max_crashes=None,
        res_max_ticks=600,
        os_n=24,
        os_k=8,
        os_credit=2,
        os_initial=0.25,
        os_rates=(0.2, 0.6),
        os_arrival_stop=30,
        os_flash_tick=8,
        os_flash_size=8,
        os_flash_width=2,
        os_holdover=4,
        os_period=12,
        os_uptime=0.75,
        os_max_ticks=400,
        adv_n=16,
        adv_k=8,
        adv_credit=2,
        adv_fractions=(0.0, 0.25),
        adv_pollution_rate=0.3,
        adv_strikes=3,
        adv_max_ticks=400,
        het_n=20,
        het_k=10,
        het_credit=2,
        het_paid_multiplier=3,
        het_mixes=("uniform", "broadband"),
        het_window=6,
        het_max_ticks=400,
    ),
}


def sweep_task_counts(scale: str | Scale | None = None) -> dict[str, int]:
    """Campaign task count of every swept figure at ``scale``.

    One task is one ``(experiment, point, replicate, seed)`` simulation
    job — the unit the campaign executors schedule and the result cache
    keys. Tests pin these numbers so preset edits are deliberate.
    """
    # Imported lazily: the experiment modules import this one.
    from .heterogeneity import MECHANISMS as HET_MECHANISMS, POLICIES
    from .open_system import MECHANISMS as OS_MECHANISMS, SCENARIOS
    from .resilience import MECHANISMS as RES_MECHANISMS

    s = resolve_scale(scale)
    r = s.replicates
    return {
        "fig3": len(s.fig3_ns) * r,
        "fig4": len(s.fig4_ks) * r,
        "fit": len(s.fit_ns) * len(s.fit_ks) * r,
        # Figure 5 sweeps every degree plus two reference overlays per k.
        "fig5": len(s.fig5_ks) * (len(s.fig5_degrees) + 2) * r,
        # Figures 6-7 sweep two credit curves over the degree grid.
        "fig6": 2 * len(s.fig67_degrees) * r,
        "fig7": 2 * len(s.fig67_degrees) * r,
        # Resilience: every mechanism over the full loss x crash grid.
        "resilience": len(RES_MECHANISMS)
        * len(s.res_loss_rates)
        * len(s.res_crash_rates)
        * r,
        # Open system: mechanisms x arrival rates x scenarios.
        "open-system": len(OS_MECHANISMS)
        * len(s.os_rates)
        * len(SCENARIOS)
        * r,
        # Adversary: resilience's mechanisms over the fraction grid.
        "adversary": len(RES_MECHANISMS) * len(s.adv_fractions) * r,
        # Heterogeneity: mechanisms x tier mixes under equal service,
        # plus each differentiated-service policy over the non-uniform
        # mixes.
        "heterogeneity": (
            len(HET_MECHANISMS) * len(s.het_mixes)
            + len(POLICIES) * (len(s.het_mixes) - 1)
        )
        * r,
    }


def resolve_scale(scale: str | Scale | None = None) -> Scale:
    """Resolve a scale by name, instance, or the ``REPRO_SCALE`` env var.

    Defaults to ``lite`` when nothing is specified.
    """
    if isinstance(scale, Scale):
        return scale
    name = scale or os.environ.get("REPRO_SCALE", "lite")
    try:
        return SCALES[name]
    except KeyError:
        raise ConfigError(
            f"unknown scale {name!r}; choose from {sorted(SCALES)}"
        ) from None
