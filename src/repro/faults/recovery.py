"""Recovery policies: what a swarm does about its faults.

Fault injection without recovery just measures collapse; this module
describes the countermeasures and lets experiments toggle them:

* **bounded retry with backoff** — a deterministic schedule run under
  faults (:mod:`repro.sim.schedule`) re-attempts a failed scheduled
  transfer up to ``max_retries`` times, waiting
  ``backoff_base * 2**(attempt-1)`` ticks between attempts. (The
  randomized engines need no explicit retry: they re-sample an eligible
  destination every tick.)
* **stall detection** — under stochastic faults a zero-transfer tick no
  longer proves deadlock (an outage may end, a crashed node may rejoin),
  so the engines' conclusive zero-transfer abort generalises to "abort
  after ``stall_window`` consecutive ticks without a single delivery".
  ``stall_window = 0`` asks the engine to derive a window generous
  enough to outlast the plan's own quiet periods (outage durations,
  rejoin delays, server windows).
* **server reseeding** — when enabled, the server prioritises blocks
  that crashes have made *server-only* again (global holder count 1),
  restoring swarm-wide availability before resuming normal seeding.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigError
from .plan import FaultPlan

__all__ = ["RecoveryPolicy"]


@dataclass(frozen=True, slots=True)
class RecoveryPolicy:
    """Tunable countermeasures; see module docstring."""

    max_retries: int = 3
    backoff_base: int = 1
    stall_window: int = 0
    reseed: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 1:
            raise ConfigError(f"backoff_base must be >= 1, got {self.backoff_base}")
        if self.stall_window < 0:
            raise ConfigError(f"stall_window must be >= 0, got {self.stall_window}")

    def retry_delay(self, attempt: int) -> int:
        """Ticks to wait before retry number ``attempt`` (1-based)."""
        return self.backoff_base * (1 << max(0, attempt - 1))

    def stall_window_for(self, plan: FaultPlan) -> int:
        """Effective stall window against ``plan``.

        An explicit ``stall_window`` wins; otherwise the window must
        outlast every quiet period the plan itself can cause, or stall
        detection would abort runs the faults merely paused.
        """
        if self.stall_window:
            return self.stall_window
        longest_server_window = max(
            (end - start + 1 for start, end in plan.server_outages), default=0
        )
        return 16 + 2 * max(
            plan.outage_duration, plan.rejoin_delay, longest_server_window, 24
        )

    def stall_window_for_adversary(self, plan) -> int:
        """Effective stall window against an adversary plan.

        Pollution and lies spoil attempts without stopping them, so a
        poisoned swarm keeps *attempting* while delivering nothing — the
        zero-delivery stall detector is the right abort for that regime.
        An explicit ``stall_window`` wins; the derived default is sized
        so that even a heavily polluted swarm (delivery probability per
        attempt scaled down by the pollution/lie rates) gets a fair
        number of chances before the run is called stalled.
        """
        if self.stall_window:
            return self.stall_window
        return 64
