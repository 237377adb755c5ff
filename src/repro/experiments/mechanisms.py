"""The mechanisms every scenario experiment compares, and their dispatch.

The scenario experiments (resilience, open system, adversary,
heterogeneity) rerun the paper's cooperative vs credit-limited vs strict
barter comparison, plus the other registry engines, along one scenario
axis each. They share this table and this one dispatch, so the seeds'
draw order is the same in all four.
"""

from __future__ import annotations

from ..core.log import RunResult
from ..core.mechanisms import CreditLimitedBarter
from ..sim.registry import run_engine

__all__ = ["MECHANISMS", "run_mechanism"]

#: Row name -> registry engine, in the order every experiment reports rows.
MECHANISMS: dict[str, str] = {
    "cooperative": "randomized",
    "credit": "randomized",
    "strict": "exchange",
    "bittorrent": "bittorrent",
    "coding": "coding",
    "async": "async",
}


def run_mechanism(
    name: str, n: int, k: int, seed: int, credit: int, /, **options
) -> RunResult:
    """Run mechanism ``name``; ``options`` go to the engine verbatim.

    The credit arm runs :class:`CreditLimitedBarter` with ``credit``
    unless ``options`` already name a ``mechanism`` of their own.
    """
    if name not in MECHANISMS:
        raise ValueError(f"unknown mechanism {name!r}")
    if name == "credit":
        options.setdefault("mechanism", CreditLimitedBarter(credit))
    return run_engine(MECHANISMS[name], n, k, rng=seed, **options)
