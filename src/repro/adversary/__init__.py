"""Adversarial behavior for the simulation engines.

The paper argues barter buys robustness against non-cooperation; this
package supplies the non-cooperation so the claim can be stressed. An
:class:`AdversaryPlan` declares the misbehavior (free-riders who never
upload, polluters whose blocks fail integrity checks, liars who
advertise blocks they will not serve, activation windows, strike-based
blacklisting), an :class:`AdversaryDriver` realises it per run from a
dedicated RNG stream, and every engine declares how much of the model it
honors (``adversary_support``, checked by the kernel's adversary axis in
:data:`repro.sim.kernel.AXES`). Every engine runs under a plan through
the kernel's ``adversary=`` option, e.g.
``run_engine("bittorrent", n, k, adversary=plan)`` (:mod:`repro.sim`).
"""

from __future__ import annotations

from .driver import PHANTOM, POLLUTED, AdversaryDriver
from .plan import AdversaryPlan

__all__ = [
    "AdversaryPlan",
    "AdversaryDriver",
    "POLLUTED",
    "PHANTOM",
]
