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

:class:`Scale` holds the replicate count and the grids of the paper's
figures and tables. Each scenario experiment (resilience, open system,
adversary, heterogeneity) declares its own grid beside its code, as a
``GRIDS`` table keyed by scale name; :func:`resolve_grid` looks one up.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TypeVar

from ..core.errors import ConfigError

__all__ = ["Scale", "resolve_grid", "resolve_scale", "sweep_task_counts", "SCALES"]

_Grid = TypeVar("_Grid")


@dataclass(frozen=True, slots=True)
class Scale:
    """One experiment scale: the replicate count and the figures' grids."""

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
    ),
}


def sweep_task_counts(scale: str | Scale | None = None) -> dict[str, int]:
    """Campaign task count of every swept figure at ``scale``.

    One task is one ``(experiment, point, replicate, seed)`` simulation
    job — the unit the campaign executors schedule and the result cache
    keys. Tests pin these numbers so preset edits are deliberate.
    """
    # Imported lazily: the experiment modules import this one.
    from .adversary import GRIDS as ADV
    from .heterogeneity import GRIDS as HET
    from .open_system import GRIDS as OS
    from .resilience import GRIDS as RES

    s = resolve_scale(scale)
    r = s.replicates
    counts = {
        "fig3": len(s.fig3_ns) * r,
        "fig4": len(s.fig4_ks) * r,
        "fit": len(s.fit_ns) * len(s.fit_ks) * r,
        # Figure 5 sweeps every degree plus two reference overlays per k.
        "fig5": len(s.fig5_ks) * (len(s.fig5_degrees) + 2) * r,
        # Figures 6-7 sweep two credit curves over the degree grid.
        "fig6": 2 * len(s.fig67_degrees) * r,
        "fig7": 2 * len(s.fig67_degrees) * r,
    }
    # Scenario experiments: every point of the scale's grid.
    for name, grids in (
        ("resilience", RES),
        ("open-system", OS),
        ("adversary", ADV),
        ("heterogeneity", HET),
    ):
        counts[name] = len(resolve_grid(grids, s)[1].points()) * r
    return counts


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


def resolve_grid(
    grids: dict[str, _Grid], scale: str | Scale | None = None
) -> tuple[Scale, _Grid]:
    """Resolve ``scale`` and pick its entry from a scenario ``GRIDS`` table."""
    s = resolve_scale(scale)
    try:
        return s, grids[s.name]
    except KeyError:
        raise ConfigError(
            f"no grid for scale {s.name!r}; known scales: {sorted(grids)}"
        ) from None
