"""Span tracing for the swarm benchmark and the per-layer metrics it yields.

Layers are traced from the benchmark's side. While a traced iteration
runs, :class:`Tracer` replaces each layer's public entry point (a class
method or a module function, listed in :func:`layer_targets`) with a
timing wrapper, and puts the original back afterwards. The program's own
files are never touched, and an untraced run executes none of this code.

A span is ``(id, parent, run, name, start_ns, end_ns)``: ``parent`` is
the span open when this one started (``None`` at the top), and ``run``
is the benchmark iteration, so spans of one iteration share it. Spans
stay in memory and are written out once, when the benchmark ends. A
span's *self time* is its duration minus the time its direct children
cover.

Transfers are never wrapped one at a time: per-attempt costs are derived
from the policies' ``pre_tick`` + ``run_tick`` time and the kernel's
per-tick counts, which the ``TickKernel.step`` wrapper reads after each
tick.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import statistics
import time
from collections import Counter, defaultdict

_MISSING = object()

#: Registry names of the engines whose tick policies are traced.
ENGINES = ("randomized", "exchange", "bittorrent", "coding", "async")


class Tracer:
    """In-memory span recorder that patches layer entry points on demand.

    A disabled tracer records nothing: :meth:`span` and :meth:`patched`
    are no-ops, so the untraced benchmark pays one context-manager entry
    per call site and no per-tick cost.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[int, int | None, int, str, int, int]] = []
        #: Benchmark iteration the next spans belong to.
        self.run = 0
        #: Counts read by wrapper ``after`` hooks (ticks, deliveries ...).
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body (benchmark-side)."""
        if not self.enabled:
            yield
            return
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, self.run, name, start, end))

    def _patch(self, owner: object, attr: str, name: str, after=None) -> None:
        # The wrapper repeats span()'s bookkeeping inline: it runs several
        # times per tick, where a generator-based context manager costs more.
        fn = getattr(owner, attr)
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, tracer.run, name, start, end))
            if after is not None:
                after(tracer.counts, args, result)
            return result

        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    @contextlib.contextmanager
    def patched(self, targets):
        """Wrap every ``(owner, attr, span_name, after)`` target for the
        duration of the ``with`` body; restores the originals on exit."""
        if not self.enabled:
            yield
            return
        try:
            for target in targets:
                self._patch(*target)
            yield
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)

    def durations(self) -> dict[str, list[int]]:
        """Span durations in ns, by span name."""
        out: dict[str, list[int]] = defaultdict(list)
        for _, _, _, name, start, end in self.spans:
            out[name].append(end - start)
        return out

    def self_times(self) -> dict[str, list[int]]:
        """Span self times in ns (duration minus direct children), by name."""
        covered: Counter[int] = Counter()
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list[int]] = defaultdict(list)
        for sid, _, _, name, start, end in self.spans:
            out[name].append(end - start - covered[sid])
        return out

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, run, name, start, end in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "run": run,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )


def _after_save(counts: Counter, args: tuple, _result: object) -> None:
    counts["checkpoint.count"] += 1
    counts["checkpoint.bytes"] += os.path.getsize(args[0])


def layer_targets() -> list[tuple]:
    """The program entry points a traced iteration wraps, with span names."""
    import repro.checkpoint as checkpoint
    import repro.sim.kernel as kernel_module
    from repro.asynchronous.policy import AsyncTickPolicy
    from repro.campaign.cache import ResultCache
    from repro.coding.engine import CodingTickPolicy
    from repro.core.state import SwarmState
    from repro.faults.injector import FaultInjector
    from repro.randomized.bittorrent import BitTorrentTickPolicy
    from repro.randomized.engine import RandomizedTickPolicy
    from repro.randomized.exchange import ExchangeTickPolicy
    from repro.sim.kernel import TickKernel
    from repro.sim.membership import MembershipRuntime

    policies = dict(
        zip(
            ENGINES,
            (
                RandomizedTickPolicy,
                ExchangeTickPolicy,
                BitTorrentTickPolicy,
                CodingTickPolicy,
                AsyncTickPolicy,
            ),
        )
    )
    engine_of = {cls: name for name, cls in policies.items()}

    def after_step(counts: Counter, args: tuple, made: int) -> None:
        kernel = args[0]
        failed = kernel.failures_per_tick[-1]
        counts["ticks"] += 1
        counts["delivered"] += made
        counts["failed"] += failed
        counts[f"{engine_of.get(type(kernel.policy))}.attempts"] += made + failed

    return [
        (TickKernel, "step", "sim.kernel.step", after_step),
        (SwarmState, "begin_tick", "core.state.begin_tick"),
        *[
            (cls, hook, f"{name}.policy.{hook}")
            for name, cls in policies.items()
            for hook in ("pre_tick", "run_tick")
        ],
        (MembershipRuntime, "begin_tick", "sim.membership"),
        (MembershipRuntime, "end_tick", "sim.membership"),
        (FaultInjector, "begin_tick", "faults.begin_tick"),
        (TickKernel, "checkpoint", "checkpoint.capture"),
        (TickKernel, "restore_checkpoint", "checkpoint.restore"),
        (checkpoint, "save_checkpoint", "checkpoint.save", _after_save),
        (checkpoint, "load_checkpoint", "checkpoint.load"),
        # The kernel calls digest_run through its own module namespace.
        (kernel_module, "digest_run", "telemetry.digest"),
        (ResultCache, "put", "campaign.cache.put"),
        (ResultCache, "put_summary", "campaign.cache.put"),
        (ResultCache, "get", "campaign.cache.get"),
        (ResultCache, "get_summary", "campaign.cache.get"),
    ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _p99(values: list[int]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return float(ordered[max(0, -(-99 * len(ordered) // 100) - 1)])


def layer_metrics(
    tracer: Tracer,
    counts: Counter,
    details: dict[str, tuple[list[float], str]],
    wall_s: float,
    iterations: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced iterations.

    ``counts`` sums the workloads' own layer counts (faults, adversary,
    campaign, verified rows ...), ``details`` holds per-iteration figures
    the workloads time themselves (campaign phases; the median is
    reported), ``wall_s`` is the traced timed phases' total over
    ``iterations`` iterations. Every metric a workload could leave undefined is a
    count or a share, so a layer the workload does not exercise reads 0.
    Metrics that only exist where their layer ran (absolute per-call
    times of checkpointing, telemetry, the campaign phases ...) are
    added only then.
    """
    dur = tracer.durations()
    own = tracer.self_times()
    c = tracer.counts + counts

    def total(*names: str) -> int:
        return sum(sum(dur.get(name, ())) for name in names)

    ticks = c["ticks"]
    attempts = c["delivered"] + c["failed"]
    step_ns = total("sim.kernel.step")
    wall_ns = wall_s * 1e9

    def policy(engine: str) -> int:
        """A policy's decision time: its ``pre_tick`` and ``run_tick``."""
        return total(f"{engine}.policy.pre_tick", f"{engine}.policy.run_tick")

    steps = dur.get("sim.kernel.step", [0])
    out: dict[str, tuple[float, str]] = {
        "sim.kernel.tick_us_p50": (statistics.median(steps) / 1e3, "us"),
        "sim.kernel.tick_us_p99": (_p99(steps) / 1e3, "us"),
        "sim.kernel.self_us_per_tick": (
            _ratio(sum(own.get("sim.kernel.step", ())), ticks) / 1e3,
            "us",
        ),
        "sim.kernel.ticks": (ticks, "count"),
        "sim.kernel.delivered": (c["delivered"], "count"),
        "sim.kernel.failed": (c["failed"], "count"),
        "sim.kernel.useful_frac": (_ratio(c["delivered"], attempts), "fraction"),
        "core.state.begin_tick_us": (
            _ratio(total("core.state.begin_tick"), ticks) / 1e3,
            "us",
        ),
        "policy.ns_per_attempt": (_ratio(sum(map(policy, ENGINES)), attempts), "ns"),
        **{
            f"{e}.policy.share": (_ratio(policy(e), step_ns), "fraction")
            for e in ENGINES
        },
        "sim.membership.share": (_ratio(total("sim.membership"), step_ns), "fraction"),
        "faults.share": (_ratio(total("faults.begin_tick"), step_ns), "fraction"),
        **{
            name: (c[name], "count")
            for name in (
                "faults.crashes",
                "faults.failed_attempts",
                "adversary.polluted",
                "adversary.phantoms",
                "adversary.blocked_attempts",
                "adversary.bans",
                "checkpoint.count",
            )
        },
        "checkpoint.bytes": (c["checkpoint.bytes"], "bytes"),
        "checkpoint.share": (
            _ratio(total("checkpoint.capture", "checkpoint.save"), wall_ns),
            "fraction",
        ),
        "telemetry.share": (_ratio(total("telemetry.digest"), wall_ns), "fraction"),
        "core.verify.ns_per_row": (
            _ratio(total("core.verify"), c["core.log.rows"]),
            "ns",
        ),
        "core.verify.share": (_ratio(total("core.verify"), wall_ns), "fraction"),
        "core.log.rows": (c["core.log.rows"], "count"),
        "coding.verify.share": (_ratio(total("coding.verify"), wall_ns), "fraction"),
        "campaign.cache.share": (
            _ratio(total("campaign.cache.put", "campaign.cache.get"), wall_ns),
            "fraction",
        ),
        **{
            f"campaign.{name}": (c[f"campaign.{name}"], "count")
            for name in ("executed", "cached", "failed", "retried")
        },
    }

    # Absolute per-layer figures, where the layer ran.
    for e in ENGINES:
        if c[f"{e}.attempts"]:
            out[f"{e}.policy.ns_per_attempt"] = (policy(e) / c[f"{e}.attempts"], "ns")
    if c["coding.delivered"]:
        out["coding.innovative_frac"] = (
            c["coding.required"] / c["coding.delivered"],
            "fraction",
        )
    if "sim.membership" in dur:
        out["sim.membership.us_per_tick"] = (total("sim.membership") / ticks / 1e3, "us")
    # Mean time per call, in the unit the metric name ends with.
    for layer, span in (
        ("faults.begin_tick_us", "faults.begin_tick"),
        ("checkpoint.capture_ms", "checkpoint.capture"),
        ("checkpoint.save_ms", "checkpoint.save"),
        ("checkpoint.load_ms", "checkpoint.load"),
        ("checkpoint.restore_ms", "checkpoint.restore"),
        ("telemetry.digest_ms", "telemetry.digest"),
        ("campaign.cache.put_us", "campaign.cache.put"),
        ("campaign.cache.get_us", "campaign.cache.get"),
    ):
        if span in dur:
            unit = layer.rsplit("_", 1)[1]
            scale = {"us": 1e3, "ms": 1e6}[unit]
            out[layer] = (statistics.fmean(dur[span]) / scale, unit)
    for layer, span in (("core.verify.s", "core.verify"), ("coding.verify.s", "coding.verify")):
        if span in dur:
            out[layer] = (total(span) / 1e9 / iterations, "s")
    for name, (values, unit) in details.items():
        out[name] = (statistics.median(values), unit)
    return out
