"""Randomized cooperative content distribution (paper Section 2.4).

Thin, documented entry point over :class:`~repro.randomized.engine.
RandomizedEngine` with the cooperative mechanism: every node uploads
freely, picking a random interested neighbor each tick. This is the
algorithm behind the paper's Figures 3-5.
"""

from __future__ import annotations

from ..core.log import RunResult
from ..core.mechanisms import Cooperative
from ..overlays.dynamic import DynamicOverlay
from ..overlays.graph import Graph
from .engine import RandomizedEngine
from .policies import BlockPolicy

__all__ = ["randomized_cooperative_run"]


def randomized_cooperative_run(
    n: int,
    k: int,
    overlay: Graph | DynamicOverlay | None = None,
    policy: BlockPolicy | None = None,
    **options,
) -> RunResult:
    """One randomized cooperative run; see :class:`RandomizedEngine`,
    which takes every other keyword (``throttle`` and the kernel's run
    options).

    Defaults mirror the paper's Figure 3 setup: complete-graph overlay and
    Random block selection (pass an overlay / policy to change), with
    ``d = u`` — the paper reports results insensitive to download
    bandwidth between ``u`` and infinity, which our tests confirm.

    >>> result = randomized_cooperative_run(64, 32, rng=7)
    >>> result.completed
    True
    """
    return RandomizedEngine(n, k, overlay, policy, Cooperative(), **options).run()
