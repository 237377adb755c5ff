"""Declarative workload specifications (the open-system counterpart of
:class:`~repro.faults.plan.FaultPlan`).

A :class:`WorkloadSpec` says who arrives when, how reliably nodes stay
online, who leaves when, and what nodes do after completing — as pure
configuration:
deterministic, hashable, picklable, and safe to bake into campaign run
factories (its ``repr`` enters the result-cache fingerprint). All
randomness is deferred to :func:`~repro.workloads.compiler.compile_workload`,
which realises the spec from namespaced child RNG streams.

A spec with every axis at its default is *null*: engines normalise it to
"no workload" exactly as a null fault plan is normalised to "no faults",
which keeps closed-batch runs bit-identical with or without the argument.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ..core.errors import ConfigError

__all__ = ["AvailabilityProfile", "FlashCrowd", "WorkloadSpec"]


@dataclass(frozen=True, slots=True)
class FlashCrowd:
    """A burst of arrivals around one tick.

    ``count`` clients join spread evenly over ``width`` consecutive
    ticks starting at ``tick`` (width 1 = all in the same tick).
    """

    tick: int
    count: int
    width: int = 1

    def __post_init__(self) -> None:
        if self.tick < 1:
            raise ConfigError(
                f"flash crowd ticks are 1-based, got {self.tick}"
            )
        if self.count < 0:
            raise ConfigError(f"flash crowd count must be >= 0, got {self.count}")
        if self.width < 1:
            raise ConfigError(f"flash crowd width must be >= 1, got {self.width}")


@dataclass(frozen=True, slots=True)
class AvailabilityProfile:
    """A diurnal on/off availability class covering a share of clients.

    Each assigned node cycles with period ``period`` ticks, staying
    online an ``uptime`` fraction of every cycle and offline for the
    rest, with a per-node random phase so the swarm's capacity dips are
    staggered rather than synchronized. ``uptime == 1.0`` is an
    always-online profile (no downtime windows are compiled).
    """

    name: str
    share: float
    period: int
    uptime: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("availability profiles need a name")
        if not 0.0 < self.share <= 1.0:
            raise ConfigError(
                f"profile {self.name!r} share must be in (0, 1], got {self.share}"
            )
        if self.period < 2:
            raise ConfigError(
                f"profile {self.name!r} period must be >= 2 ticks, got {self.period}"
            )
        if not 0.0 < self.uptime <= 1.0:
            raise ConfigError(
                f"profile {self.name!r} uptime must be in (0, 1], got {self.uptime}"
            )


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Declarative open-system workload; see module docstring.

    Attributes
    ----------
    initial_fraction:
        Fraction of the ``n - 1`` clients present at tick 0 (the rest
        form the arrival pool), in [0, 1].
    arrival_rate:
        Poisson arrival rate λ in clients per tick; 0 disables the
        stream.
    arrival_start, arrival_stop:
        Inclusive tick window of the Poisson stream (1-based);
        ``arrival_stop=None`` runs it to the simulation horizon.
    arrival_trace:
        Explicit ``(tick, count)`` arrival pairs, layered on top of the
        stochastic streams (deterministic scenarios and tests).
    flash_crowds:
        :class:`FlashCrowd` spikes layered on top of the base rate.
    availability:
        :class:`AvailabilityProfile` classes; shares must sum to <= 1
        and the remainder of clients is always-online.
    depart_after_complete:
        Steady-state behavior: a client leaves once it completes,
        after lingering ``seed_holdover`` ticks as a seed.
    seed_holdover:
        Ticks a completed client keeps seeding before departing (only
        meaningful with ``depart_after_complete``).
    arrivals, departures:
        Explicit per-client ``(node, tick)`` tables (1-based ticks). A
        listed arrival is an initial-cohort client held back until its
        tick, when it joins empty; a listed departure leaves at the
        start of its tick, for good, taking its copies with it (a
        departure after the horizon never happens but still keeps a
        silent tick from proving deadlock). A client may do both, but
        must arrive first. The tables are deterministic: a spec that
        sets nothing else draws no RNG (:attr:`needs_rng`).
    """

    initial_fraction: float = 1.0
    arrival_rate: float = 0.0
    arrival_start: int = 1
    arrival_stop: int | None = None
    arrival_trace: tuple[tuple[int, int], ...] = ()
    flash_crowds: tuple[FlashCrowd, ...] = ()
    availability: tuple[AvailabilityProfile, ...] = ()
    depart_after_complete: bool = False
    seed_holdover: int = 0
    arrivals: tuple[tuple[int, int], ...] = ()
    departures: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.initial_fraction <= 1.0:
            raise ConfigError(
                f"initial_fraction must be in [0, 1], got {self.initial_fraction}"
            )
        if self.arrival_rate < 0.0:
            raise ConfigError(
                f"arrival_rate must be >= 0, got {self.arrival_rate}"
            )
        if self.arrival_start < 1:
            raise ConfigError(
                f"arrival ticks are 1-based, got arrival_start={self.arrival_start}"
            )
        if self.arrival_stop is not None and self.arrival_stop < self.arrival_start:
            raise ConfigError(
                f"arrival_stop ({self.arrival_stop}) must be >= arrival_start "
                f"({self.arrival_start})"
            )
        if self.seed_holdover < 0:
            raise ConfigError(
                f"seed_holdover must be >= 0, got {self.seed_holdover}"
            )
        # Normalise the trace to int tuples so specs built from lists
        # stay hashable and repr-stable (the cache fingerprint).
        trace = tuple((int(t), int(c)) for t, c in self.arrival_trace)
        for tick, count in trace:
            if tick < 1:
                raise ConfigError(f"arrival trace ticks are 1-based, got {tick}")
            if count < 0:
                raise ConfigError(
                    f"arrival trace counts must be >= 0, got {count} at tick {tick}"
                )
        object.__setattr__(self, "arrival_trace", trace)
        crowds = tuple(self.flash_crowds)
        for crowd in crowds:
            if not isinstance(crowd, FlashCrowd):
                raise ConfigError(
                    f"flash_crowds entries must be FlashCrowd, got {crowd!r}"
                )
        object.__setattr__(self, "flash_crowds", crowds)
        profiles = tuple(self.availability)
        total_share = 0.0
        seen: set[str] = set()
        for profile in profiles:
            if not isinstance(profile, AvailabilityProfile):
                raise ConfigError(
                    f"availability entries must be AvailabilityProfile, "
                    f"got {profile!r}"
                )
            if profile.name in seen:
                raise ConfigError(
                    f"duplicate availability profile name {profile.name!r}"
                )
            seen.add(profile.name)
            total_share += profile.share
        if total_share > 1.0 + 1e-9:
            raise ConfigError(
                f"availability profile shares sum to {total_share:.3f} > 1"
            )
        object.__setattr__(self, "availability", profiles)
        for label in ("arrivals", "departures"):
            table = tuple((int(v), int(t)) for v, t in getattr(self, label))
            seen: set[int] = set()
            for node, tick in table:
                if node < 1:
                    raise ConfigError(
                        f"{label} name clients (ids from 1; the server "
                        f"neither arrives nor departs), got {node}"
                    )
                if tick < 1:
                    raise ConfigError(f"{label} ticks are 1-based, got {tick}")
                if node in seen:
                    raise ConfigError(f"client {node} is listed twice in {label}")
                seen.add(node)
            object.__setattr__(self, label, table)

    @property
    def is_null(self) -> bool:
        """True when the spec describes the plain closed batch.

        Engines normalise a null spec to "no workload", so attaching
        ``WorkloadSpec()`` leaves every run bit-identical to a plain one
        (the same contract as a null :class:`~repro.faults.plan.FaultPlan`).
        """
        return (
            self.initial_fraction == 1.0
            and self.arrival_rate == 0.0
            and not self.arrival_trace
            and not self.flash_crowds
            and not self.availability
            and not self.depart_after_complete
            and not self.arrivals
            and not self.departures
        )

    @property
    def needs_rng(self) -> bool:
        """Whether arming the spec draws a workload seed: every non-null
        spec does, except one whose only settings are the deterministic
        ``arrivals``/``departures`` tables."""
        return not replace(self, arrivals=(), departures=()).is_null

    def describe(self) -> dict[str, object]:
        """Compact JSON-able summary (non-default fields only)."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value == f.default or value == ():
                continue
            if f.name in ("arrival_trace", "arrivals", "departures"):
                out[f.name] = [list(pair) for pair in value]
            elif f.name == "flash_crowds":
                out[f.name] = [
                    {"tick": c.tick, "count": c.count, "width": c.width}
                    for c in value
                ]
            elif f.name == "availability":
                out[f.name] = [
                    {
                        "name": p.name,
                        "share": p.share,
                        "period": p.period,
                        "uptime": p.uptime,
                    }
                    for p in value
                ]
            else:
                out[f.name] = value
        return out
