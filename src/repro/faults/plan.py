"""Fault plans: the declarative description of what goes wrong.

The paper's model is a perfect network: every scheduled or chosen
transfer arrives, every node stays up, the server never blinks. A
:class:`FaultPlan` perturbs that world along four axes:

* **transfer loss** — each attempted block transfer independently fails
  with probability ``loss_rate``. A failed transfer consumes the tick's
  upload and download bandwidth (and, under barter, credit) but delivers
  nothing — the sender finds out too late to reuse the slot.
* **link outages** — with probability ``outage_rate`` per attempt, the
  directed link goes dark for ``outage_duration`` ticks; every attempt
  across a dark link fails.
* **node crashes** — each present client independently crashes with
  per-tick hazard ``crash_rate``. ``rejoin_delay == 0`` means fail-stop
  (the node never returns and stops counting toward completion, like a
  workload departure); otherwise the node rejoins after ``rejoin_delay``
  ticks retaining an independent ``rejoin_retention`` fraction of its
  blocks. Crashed copies leave the swarm — a crash can make a block rare
  (or server-only) again.
* **server outage windows** — explicit inclusive tick windows during
  which the server uploads nothing.

A plan is pure configuration: deterministic, hashable, picklable (so it
can ride inside campaign run factories). Randomness lives in
:class:`~repro.faults.injector.FaultInjector`, which an engine
instantiates per run with its own seeded stream — a plan with every axis
zeroed is *null* and engines treat it exactly like no plan at all, which
is what keeps zero-fault runs bit-identical to fault-free ones.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..core.errors import ConfigError

__all__ = ["FaultPlan"]


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """Declarative fault configuration; see module docstring.

    Attributes
    ----------
    loss_rate:
        Per-attempt Bernoulli transfer-failure probability, in [0, 1).
    outage_rate:
        Per-attempt probability that the directed link enters an outage,
        in [0, 1).
    outage_duration:
        Ticks a link outage lasts (>= 1 when ``outage_rate`` > 0).
    crash_rate:
        Per-client per-tick crash hazard, in [0, 1).
    rejoin_delay:
        Ticks until a crashed node rejoins; 0 means fail-stop.
    rejoin_retention:
        Fraction of held blocks an independently sampled rejoining node
        keeps, in [0, 1].
    server_outages:
        Inclusive ``(start, end)`` tick windows with the server down.
    max_crashes:
        Cap on total crash events (``None`` = unbounded); keeps small
        swarms from being annihilated at high hazard rates.
    """

    loss_rate: float = 0.0
    outage_rate: float = 0.0
    outage_duration: int = 0
    crash_rate: float = 0.0
    rejoin_delay: int = 0
    rejoin_retention: float = 0.0
    server_outages: tuple[tuple[int, int], ...] = ()
    max_crashes: int | None = None

    def __post_init__(self) -> None:
        for name in ("loss_rate", "outage_rate", "crash_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {value}")
        if not 0.0 <= self.rejoin_retention <= 1.0:
            raise ConfigError(
                f"rejoin_retention must be in [0, 1], got {self.rejoin_retention}"
            )
        if self.outage_rate > 0 and self.outage_duration < 1:
            raise ConfigError(
                "outage_duration must be >= 1 when outage_rate > 0, "
                f"got {self.outage_duration}"
            )
        if self.outage_duration < 0:
            raise ConfigError(f"outage_duration must be >= 0, got {self.outage_duration}")
        if self.rejoin_delay < 0:
            raise ConfigError(f"rejoin_delay must be >= 0, got {self.rejoin_delay}")
        if self.max_crashes is not None and self.max_crashes < 0:
            raise ConfigError(f"max_crashes must be >= 0, got {self.max_crashes}")
        # Normalise windows to a tuple of int pairs so plans stay hashable
        # even when built from lists.
        windows = tuple((int(a), int(b)) for a, b in self.server_outages)
        for start, end in windows:
            if start < 1 or end < start:
                raise ConfigError(
                    f"server outage window ({start}, {end}) must satisfy "
                    f"1 <= start <= end"
                )
        object.__setattr__(self, "server_outages", windows)

    @property
    def is_null(self) -> bool:
        """True when the plan injects nothing at all.

        Engines normalise a null plan to "no faults", so attaching
        ``FaultPlan()`` leaves every run bit-identical to a plain one.
        """
        return (
            self.loss_rate == 0.0
            and self.outage_rate == 0.0
            and self.crash_rate == 0.0
            and not self.server_outages
        )

    def describe(self) -> dict[str, object]:
        """Compact JSON-able summary (non-default fields only)."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default and value != ():
                out[f.name] = (
                    [list(w) for w in value] if f.name == "server_outages" else value
                )
        return out
