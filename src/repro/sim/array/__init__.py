"""Vectorized kernel backend and batched Monte Carlo replica runner.

Two layers on top of the shared tick kernel:

* :class:`ArrayState` / :class:`ArrayBackend` — block ownership mirrored
  into packed NumPy arrays, deferred bulk logging and an array receiver
  pool, selected with ``backend="array"`` on
  :class:`~repro.sim.kernel.TickKernel` (or any array-capable engine /
  :func:`~repro.sim.registry.run_engine`). Attempts still run through
  ``TickKernel.attempt``; only the clean cooperative complete-graph
  randomized tick is vectorized, and faulted, credit and tiered runs take
  the scalar decision path at loop speed. Decision RNG stays in the
  policy, so an array-backed run is byte-identical to the loop backend —
  the golden-log suite replays every randomized/exchange fixture on
  both.
* :class:`BatchRunner` — S seed-replicas of one configuration executed
  over a single stacked ``(S, n, w)`` ownership tensor, returning whole
  completion-time distributions per call for :mod:`repro.analysis` /
  :mod:`repro.campaign`.
"""

from .backend import ArrayBackend
from .montecarlo import BatchResult, BatchRunner
from .state import ArrayState

__all__ = ["ArrayBackend", "ArrayState", "BatchResult", "BatchRunner"]
