"""Adversary plans: the declarative description of who misbehaves.

The paper's central claim is that barter buys robustness against
*non-cooperation*; this package supplies the non-cooperation. An
:class:`AdversaryPlan` perturbs the swarm along three behavioral axes:

* **free-riders** — clients that never upload, on every engine. They
  still download (that is the point of free-riding); barter and credit
  mechanisms are what make the strategy expensive.
* **polluters** — clients whose uploads are corrupted at a per-attempt
  ``pollution_rate``. A polluted transfer consumes the tick's upload and
  download bandwidth (and, under barter, credit) but the receiver's
  integrity check rejects the block: nothing is learned, the slot is
  burned, and the receiver re-fetches later.
* **liars** — clients that advertise blocks they will not actually
  serve; at ``lie_rate`` an attempt from a liar transfers nothing
  (a *phantom* delivery) while still wasting the requester's slot.

Adversaries may be named explicitly (client ids) or sampled as a
fraction of the client population, activate only inside an inclusive
tick window, and face a strike-based defense: after ``strike_threshold``
bad deliveries from the same source, the receiver blacklists it and
silently refuses further service from that peer.

A plan is pure configuration: deterministic, hashable, picklable (so it
can ride inside campaign run factories and their cache fingerprints).
Randomness lives in :class:`~repro.adversary.driver.AdversaryDriver`,
which an engine instantiates per run with its own seeded stream — a plan
that declares nothing is *null* and engines treat it exactly like no
plan at all, which is what keeps clean runs bit-identical to
adversary-free ones. A plan that needs no randomness at all (explicit
free-riders only — no fractions, no pollution, no lies) costs zero RNG
draws.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..core.errors import ConfigError

__all__ = ["AdversaryPlan"]


@dataclass(frozen=True, slots=True)
class AdversaryPlan:
    """Declarative adversary configuration; see module docstring.

    Attributes
    ----------
    free_riders:
        Explicit client ids that never upload while the plan is active.
    free_rider_fraction:
        Additional fraction of the client population sampled as
        free-riders (on top of the explicit ids), in [0, 1].
    polluters:
        Explicit client ids whose uploads may be corrupted.
    polluter_fraction:
        Additional sampled polluter fraction, in [0, 1].
    pollution_rate:
        Per-attempt probability a polluter's upload is corrupted, in
        (0, 1]; required iff any polluters are declared.
    liars:
        Explicit client ids that advertise blocks they will not serve.
    liar_fraction:
        Additional sampled liar fraction, in [0, 1].
    lie_rate:
        Per-attempt probability a liar's upload is a phantom, in (0, 1];
        required iff any liars are declared.
    active_from, active_until:
        Inclusive tick window in which the adversaries act
        (``active_until=None`` = forever). Outside the window every
        declared adversary behaves honestly.
    strike_threshold:
        Bad deliveries (polluted or phantom) a receiver tolerates from
        one source before blacklisting it; 0 disables the defense.
    """

    free_riders: tuple[int, ...] = ()
    free_rider_fraction: float = 0.0
    polluters: tuple[int, ...] = ()
    polluter_fraction: float = 0.0
    pollution_rate: float = 0.0
    liars: tuple[int, ...] = ()
    liar_fraction: float = 0.0
    lie_rate: float = 0.0
    active_from: int = 1
    active_until: int | None = None
    strike_threshold: int = 0

    def __post_init__(self) -> None:
        for name in ("free_rider_fraction", "polluter_fraction", "liar_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        for name in ("pollution_rate", "lie_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        # Declared adversaries and their rates come in pairs: a polluter
        # set without a rate (or a rate without polluters) is a silently
        # inert configuration, which is always a mistake.
        has_polluters = bool(self.polluters) or self.polluter_fraction > 0.0
        if has_polluters != (self.pollution_rate > 0.0):
            raise ConfigError(
                "polluters/polluter_fraction and pollution_rate must be "
                "declared together"
            )
        has_liars = bool(self.liars) or self.liar_fraction > 0.0
        if has_liars != (self.lie_rate > 0.0):
            raise ConfigError(
                "liars/liar_fraction and lie_rate must be declared together"
            )
        if self.active_from < 1:
            raise ConfigError(
                f"active_from must be >= 1, got {self.active_from}"
            )
        if self.active_until is not None and self.active_until < self.active_from:
            raise ConfigError(
                f"activation window ({self.active_from}, {self.active_until}) "
                f"must satisfy active_from <= active_until"
            )
        if self.strike_threshold < 0:
            raise ConfigError(
                f"strike_threshold must be >= 0, got {self.strike_threshold}"
            )
        # Normalise id sets to sorted int tuples so plans stay hashable
        # (and their reprs deterministic) even when built from sets.
        for name in ("free_riders", "polluters", "liars"):
            ids = tuple(sorted(int(v) for v in getattr(self, name)))
            for v in ids:
                if v < 1:
                    raise ConfigError(
                        f"{name} must name clients (ids >= 1); the server "
                        f"cannot be an adversary, got {v}"
                    )
            object.__setattr__(self, name, ids)

    @property
    def free_rides(self) -> bool:
        """Whether the plan declares any free-riders."""
        return bool(self.free_riders) or self.free_rider_fraction > 0.0

    @property
    def pollutes(self) -> bool:
        """Whether the plan declares any polluters."""
        return self.pollution_rate > 0.0

    @property
    def lies(self) -> bool:
        """Whether the plan declares any liars."""
        return self.lie_rate > 0.0

    @property
    def is_null(self) -> bool:
        """True when the plan declares no adversary at all.

        Engines normalise a null plan to "no adversaries", so attaching
        ``AdversaryPlan()`` leaves every run bit-identical to a plain
        one.
        """
        return not (self.free_rides or self.pollutes or self.lies)

    @property
    def needs_rng(self) -> bool:
        """Whether realising the plan ever draws randomness.

        Explicit free-riders alone are fully deterministic: no sampling,
        no per-attempt judging. Engines skip seeding the driver's RNG
        stream for such plans, so arming one shifts no other stream.
        """
        return (
            self.free_rider_fraction > 0.0
            or self.polluter_fraction > 0.0
            or self.liar_fraction > 0.0
            or self.pollutes
            or self.lies
        )

    def describe(self) -> dict[str, object]:
        """Compact JSON-able summary (non-default fields only)."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default and value != ():
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out
