"""Randomized content-distribution algorithms (paper Sections 2.4, 3.2.3).

Entry points:

* :func:`randomized_cooperative_run` — every node uploads freely
  (Figures 3-5);
* :func:`randomized_barter_run` — credit-limited barter (Figures 6-7);
* :func:`randomized_exchange_run` — strict-barter exchange matching
  (library extension).

All take an overlay (default: complete graph), a block-selection policy
(default: Random) and a seed, and return a
:class:`~repro.core.RunResult` whose log the independent verifier can
re-check.
"""

from .barter import randomized_barter_run
from .bittorrent import BitTorrentEngine, bittorrent_run
from .cooperative import randomized_cooperative_run
from .engine import RandomizedEngine, default_max_ticks
from .exchange import randomized_exchange_run
from .triangular import randomized_triangular_run
from .policies import (
    BlockPolicy,
    EstimatedRarestFirstPolicy,
    RandomPolicy,
    RarestFirstPolicy,
)

__all__ = [
    "BitTorrentEngine",
    "BlockPolicy",
    "EstimatedRarestFirstPolicy",
    "RandomPolicy",
    "RandomizedEngine",
    "RarestFirstPolicy",
    "bittorrent_run",
    "default_max_ticks",
    "randomized_barter_run",
    "randomized_cooperative_run",
    "randomized_exchange_run",
    "randomized_triangular_run",
]
