"""Lower a :class:`~repro.workloads.spec.WorkloadSpec` into per-run
artifacts.

Compilation is a pure function of ``(spec, n, seed, horizon)``: the
same inputs produce byte-identical output (the property tests pin
this). The compiled form is exactly what the kernel's membership
runtime executes:

* an **arrival schedule** — ``(node, tick)`` pairs: the spec's explicit
  ``arrivals`` table (initial-cohort clients held back), then the
  generated arrivals, client ids assigned chronologically from the
  arrival pool (ids above the initial cohort);
* the spec's explicit ``departures`` table, checked against the joins;
* per-node **downtime windows** — inclusive tick ranges during which a
  node is offline, derived from its availability profile's period,
  uptime and random phase;
* the **departure rule** (``depart_after_complete`` / ``seed_holdover``)
  carried through verbatim — departures depend on per-run completion
  times, so they are scheduled at run time, not compile time.

Arrivals beyond the client pool are *dropped* and counted
(``dropped_arrivals``): an open stream can easily outrun a finite id
space, and silently wrapping ids would alias distinct logical peers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import ConfigError
from .rng import child_rng
from .spec import WorkloadSpec

__all__ = ["CompiledWorkload", "compile_workload"]


@dataclass(frozen=True)
class CompiledWorkload:
    """One realised workload timeline; see module docstring.

    Attributes
    ----------
    n, seed, horizon:
        The compilation inputs (swarm size incl. server, workload seed,
        simulation horizon in ticks).
    initial:
        Clients ``1..initial`` are present at tick 0.
    arrivals:
        ``(node, tick)`` pairs: the explicit table in its own order
        (ids ``<= initial``), then the generated arrivals in
        chronological order, ids assigned in arrival order starting at
        ``initial + 1``. Ticks are 1-based.
    departures:
        The explicit ``(node, tick)`` departure table, in its order.
    downtime:
        ``(node, windows)`` pairs where ``windows`` is a tuple of
        inclusive ``(start, end)`` tick ranges the node spends offline.
    profile_of:
        ``(node, profile_name)`` assignments (only nodes with a
        profile; the rest are always-online).
    depart_after_complete, seed_holdover:
        The steady-state departure rule, carried from the spec.
    dropped_arrivals:
        Generated arrivals that found no free client id.
    """

    n: int
    seed: int
    horizon: int
    initial: int
    arrivals: tuple[tuple[int, int], ...]
    departures: tuple[tuple[int, int], ...]
    downtime: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    profile_of: tuple[tuple[int, str], ...]
    depart_after_complete: bool
    seed_holdover: int
    dropped_arrivals: int

    def to_json(self) -> str:
        """Canonical string form (the byte-identity test surface)."""
        return repr(self)


def _poisson(rng, lam: float) -> int:
    """One Poisson(λ) draw (Knuth's product-of-uniforms method)."""
    if lam <= 0.0:
        return 0
    threshold = math.exp(-lam)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def compile_workload(
    spec: WorkloadSpec, n: int, seed: int | None, horizon: int
) -> CompiledWorkload:
    """Realise ``spec`` for an ``n``-node swarm over ``horizon`` ticks.

    Pure and deterministic: every stochastic ingredient draws from its
    own namespaced child stream of ``seed`` (see
    :mod:`repro.workloads.rng`), so distinct ingredients never perturb
    each other's draws. ``seed`` may be ``None`` only when
    ``spec.needs_rng`` is false.
    """
    if n < 2:
        raise ConfigError(f"need a server and at least one client, got n={n}")
    if horizon < 1:
        raise ConfigError(f"horizon must be >= 1 tick, got {horizon}")
    clients = n - 1
    initial = round(spec.initial_fraction * clients)
    for node, _ in spec.arrivals + spec.departures:
        if node >= n:
            raise ConfigError(f"unknown client {node}: the swarm has n={n}")
    for node, tick in spec.arrivals:
        if node > initial:
            raise ConfigError(
                f"client {node} is in the arrival pool (ids above "
                f"{initial}); an explicit arrival must name an "
                f"initial-cohort client"
            )
        # An arrival past the horizon can never join: the run would
        # wait out the goal until max_ticks and abort.
        if tick > horizon:
            raise ConfigError(
                f"client {node} arrives at tick {tick}, after the run's "
                f"max_ticks ({horizon}); it could never join — raise "
                f"max_ticks or move the arrival"
            )

    # -- arrival counts per tick (all streams layered) ---------------------
    counts: dict[int, int] = {}
    if spec.arrival_rate > 0.0:
        rng = child_rng(seed, "arrivals")
        stop = spec.arrival_stop if spec.arrival_stop is not None else horizon
        for tick in range(spec.arrival_start, min(stop, horizon) + 1):
            drawn = _poisson(rng, spec.arrival_rate)
            if drawn:
                counts[tick] = counts.get(tick, 0) + drawn
    for index, crowd in enumerate(spec.flash_crowds):
        per_tick, extra = divmod(crowd.count, crowd.width)
        for offset in range(crowd.width):
            tick = crowd.tick + offset
            if tick > horizon:
                break
            burst = per_tick + (1 if offset < extra else 0)
            if burst:
                counts[tick] = counts.get(tick, 0) + burst
    for tick, count in spec.arrival_trace:
        if tick <= horizon and count:
            counts[tick] = counts.get(tick, 0) + count

    # -- chronological id assignment from the arrival pool -----------------
    arrivals = list(spec.arrivals)
    next_id = initial + 1
    dropped = 0
    for tick in sorted(counts):
        for _ in range(counts[tick]):
            if next_id >= n:
                dropped += 1
                continue
            arrivals.append((next_id, tick))
            next_id += 1

    join_tick = {node: tick for node, tick in arrivals}
    for node, tick in spec.departures:
        joined = join_tick.get(node, 0 if node <= initial else None)
        if joined is None or joined >= tick:
            when = "it never joins" if joined is None else f"tick {joined}"
            raise ConfigError(
                f"client {node} would depart (tick {tick}) before or at "
                f"its arrival ({when})"
            )

    # -- availability: profile assignment + downtime windows ---------------
    profile_of: list[tuple[int, str]] = []
    downtime: list[tuple[int, tuple[tuple[int, int], ...]]] = []
    if spec.availability:
        shares: list[tuple[float, object]] = []
        cumulative = 0.0
        for profile in spec.availability:
            cumulative += profile.share
            shares.append((cumulative, profile))
        assign_rng = child_rng(seed, "profiles")
        # Only participating clients (initial cohort + realised arrivals)
        # get profiles; unused pool ids never enter the swarm at all.
        for node in range(1, next_id):
            draw = assign_rng.random()
            profile = next((p for limit, p in shares if draw < limit), None)
            if profile is None:
                continue  # always-online remainder
            profile_of.append((node, profile.name))
            offline = round(profile.period * (1.0 - profile.uptime))
            if offline <= 0:
                continue
            offline = min(offline, profile.period - 1)
            phase = child_rng(seed, "avail", node).randrange(profile.period)
            joined = join_tick.get(node, 0)
            windows: list[tuple[int, int]] = []
            cycle = 0
            while True:
                start = cycle * profile.period + 1 + phase
                if start > horizon:
                    break
                end = min(start + offline - 1, horizon)
                # A window must not swallow the node's own arrival tick:
                # clip it to start strictly after the join.
                if end > joined:
                    windows.append((max(start, joined + 1), end))
                cycle += 1
            if windows:
                downtime.append((node, tuple(windows)))

    return CompiledWorkload(
        n=n,
        seed=seed,
        horizon=horizon,
        initial=initial,
        arrivals=tuple(arrivals),
        departures=spec.departures,
        downtime=tuple(downtime),
        profile_of=tuple(profile_of),
        depart_after_complete=spec.depart_after_complete,
        seed_holdover=spec.seed_holdover,
        dropped_arrivals=dropped,
    )
