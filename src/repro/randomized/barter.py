"""Randomized content distribution under credit-limited barter
(paper Section 3.2.3).

The cooperative randomized algorithm with one extra eligibility test: an
uploader only considers neighbors to which its net flow is still below the
credit limit ``s``. This is the algorithm behind the paper's Figures 6-7,
whose completion time depends dramatically on the overlay degree and on
the block-selection policy.
"""

from __future__ import annotations

from ..core.log import RunResult
from ..core.mechanisms import CreditLimitedBarter
from ..overlays.dynamic import DynamicOverlay
from ..overlays.graph import Graph
from .engine import RandomizedEngine
from .policies import BlockPolicy

__all__ = ["randomized_barter_run"]


def randomized_barter_run(
    n: int,
    k: int,
    credit_limit: int = 1,
    overlay: Graph | DynamicOverlay | None = None,
    policy: BlockPolicy | None = None,
    **options,
) -> RunResult:
    """One randomized credit-limited run; see :class:`RandomizedEngine`,
    which takes every other keyword (``throttle`` and the kernel's run
    options).

    A run that fails to converge within ``max_ticks`` (the fate of
    low-degree overlays with small ``s``, per Figure 6) returns a result
    with ``completion_time is None`` — the paper's "off the charts"
    points.

    >>> result = randomized_barter_run(32, 16, credit_limit=2, rng=11)
    >>> result.completed
    True
    """
    return RandomizedEngine(
        n, k, overlay, policy, CreditLimitedBarter(credit_limit), **options
    ).run()
