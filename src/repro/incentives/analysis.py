"""Incentive analysis: does throttling your upload ever pay?

The paper's conclusions ask for "mechanisms that provably ensure that
rational selfish behavior of clients leads to optimal content
distribution", and its incentive discussions (Sections 3.1.1, 3.2.1, 4)
are informal. This module measures them:

one *strategic* client picks an upload throttle ``p`` (it skips each
tick's upload with probability ``p``) while everyone else complies; we
measure the strategic client's own completion time as a function of
``p`` under each mechanism. A mechanism is *incentive-aligned* for this
strategy space when the curve is non-decreasing — uploading less never
helps you — and *strongly* so when it grows steeply.

Measured findings (see ``ext-incentives``): the cooperative mechanism is
flat (no incentive at all); credit-limited barter is steep (throttling
directly starves you — Section 3.1.1's "corresponding decay" claim);
BitTorrent sits in between, its optimistic unchokes cushioning throttlers
(Section 4's critique).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..adversary.plan import AdversaryPlan
from ..analysis.sweeps import derive_seed
from ..core.errors import ConfigError
from ..randomized.bittorrent import BitTorrentEngine
from ..randomized.engine import RandomizedEngine

__all__ = ["ThrottleOutcome", "throttle_response", "is_incentive_aligned"]


@dataclass(frozen=True, slots=True)
class ThrottleOutcome:
    """The strategic client's payoff at one throttle level."""

    throttle: float
    mean_completion: float | None  # its own finish tick; None = starved
    mean_blocks: float  # blocks it obtained by the end of the run
    swarm_completion: float | None  # everyone-else completion, for context


def throttle_response(
    n: int,
    k: int,
    mechanism_factory,
    throttles: tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0),
    overlay_factory=None,
    engine: str = "randomized",
    replicates: int = 3,
    base_seed: int = 0,
    max_ticks: int | None = None,
    strategic: int = 1,
) -> list[ThrottleOutcome]:
    """The strategic client's payoff curve across throttle levels.

    Parameters
    ----------
    mechanism_factory:
        Zero-arg callable returning a fresh
        :class:`~repro.core.mechanisms.Mechanism` per run (ignored for the
        BitTorrent engine, which has tit-for-tat built in).
    overlay_factory:
        ``overlay_factory(seed) -> Graph`` (default: complete graph).
    engine:
        ``"randomized"`` (the paper's algorithm under a mechanism) or
        ``"bittorrent"``.
    """
    if engine not in ("randomized", "bittorrent"):
        raise ConfigError(f"unknown engine {engine!r}")
    out: list[ThrottleOutcome] = []
    for p in throttles:
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"throttle must be in [0, 1], got {p}")
        own: list[float] = []
        blocks: list[float] = []
        others: list[float] = []
        for i in range(replicates):
            seed = derive_seed(base_seed, ("throttle", engine, p), i)
            overlay = overlay_factory(seed) if overlay_factory else None
            if engine == "bittorrent":
                # p = 1 is a true free-rider; intermediate throttles are
                # modeled by thinning the strategic node's unchoke slots
                # (the only upload knob a BitTorrent client really has).
                if p >= 1.0:
                    run_engine = BitTorrentEngine(
                        n,
                        k,
                        overlay=overlay,
                        rng=seed + 1,
                        max_ticks=max_ticks,
                        adversary=AdversaryPlan(free_riders=(strategic,)),
                    )
                else:
                    run_engine = BitTorrentEngine(
                        n,
                        k,
                        overlay=overlay,
                        rng=seed + 1,
                        max_ticks=max_ticks,
                        per_node_unchoke={strategic: max(0, round(4 * (1 - p)))},
                    )
                result = run_engine.run()
            else:
                result = RandomizedEngine(
                    n,
                    k,
                    overlay=overlay,
                    mechanism=mechanism_factory() if mechanism_factory else None,
                    rng=seed + 1,
                    max_ticks=max_ticks,
                    throttle={strategic: p} if p > 0 else None,
                ).run()
            holdings = result.meta.get("final_holdings")
            blocks.append(float(holdings[strategic]) if holdings else 0.0)
            finish = result.client_completions.get(strategic)
            if finish is not None:
                own.append(float(finish))
            other_finishes = [
                t for c, t in result.client_completions.items() if c != strategic
            ]
            if len(other_finishes) == n - 2:
                others.append(max(other_finishes))
        out.append(
            ThrottleOutcome(
                throttle=p,
                mean_completion=sum(own) / len(own) if len(own) == replicates else None,
                mean_blocks=sum(blocks) / len(blocks) if blocks else 0.0,
                swarm_completion=sum(others) / len(others) if others else None,
            )
        )
    return out


def is_incentive_aligned(
    curve: list[ThrottleOutcome], tolerance: float = 0.05
) -> bool:
    """Whether throttling more never improved the strategic payoff.

    A starved outcome (``mean_completion is None``) counts as the worst
    payoff. ``tolerance`` forgives sampling noise (fractional regressions
    below it).
    """
    worst = 0.0
    for outcome in curve:
        value = (
            float("inf") if outcome.mean_completion is None else outcome.mean_completion
        )
        if value < worst * (1 - tolerance):
            return False
        worst = max(worst, min(value, 1e18))
    return True
