"""Fault injection and recovery for the simulation engines.

The paper assumes a perfect network; this package measures what its
mechanisms are worth without one. A :class:`FaultPlan` declares the
faults (transfer loss, link outages, node crashes with optional rejoin,
server outage windows), a :class:`FaultInjector` realises them per run
from a dedicated RNG stream, and a :class:`RecoveryPolicy` describes the
countermeasures (bounded retry with backoff, stall detection, server
reseeding). Every simulation engine, and every deterministic schedule,
runs under a plan through the kernel's ``faults=`` / ``recovery=``
options, e.g. ``run_engine("exchange", n, k, faults=plan)``
(:mod:`repro.sim`) or ``execute_schedule(schedule, faults=plan)``.
"""

from __future__ import annotations

from .injector import FaultInjector
from .plan import FaultPlan
from .recovery import RecoveryPolicy

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "RecoveryPolicy",
]
