"""The four swarm-benchmark workloads and the checks on their outputs.

Each workload derives every engine seed and sweep seed from the
benchmark seed; the program only ever receives the generated inputs (n,
k, seeds and scenario specs). An iteration is closed-loop: one
simulation at a time, the next started when the previous one returned.

* ``paper-n1000`` — the paper's headline configuration: one randomized
  cooperative run on the complete graph, n = k = 1000, loop backend,
  full transfer log, then ``verify_log`` and Theorem 1. Almost all the
  work is the kernel tick, the randomized attempt path, the 1M-row log
  and the verifier.
* ``engines-n128`` — exchange, bittorrent, coding and async at n = 128,
  k = 64, each verified (``StrictBarter`` for exchange,
  ``verify_coding_log`` for coding) and checked against Theorem 2
  (exchange) or Theorem 1. The policy layers dominate; the randomized
  fast path and the array backend are not used.
* ``scenario-n512`` — credit-limited randomized barter and bittorrent at
  n = 512, k = 128 with every scenario axis armed (faults, adversaries,
  a flash crowd, bandwidth tiers, telemetry) and checkpoints every 50
  ticks; each run is verified with its crash/rejoin events and strike
  threshold, then resumed from its last checkpoint on disk, which must
  reproduce the log byte for byte.
* ``campaign-ci`` — job-per-run and batched sweeps through a two-worker
  ``ParallelExecutor`` into a fresh ``ResultCache``, every returned log
  verified, then a warm replay that must execute nothing and reproduce
  every aggregate exactly. Per-run fixed costs dominate here.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.adversary import AdversaryPlan
from repro.analysis.sweeps import sweep
from repro.campaign import (
    BatchEngineRun,
    EngineRun,
    ParallelExecutor,
    ResultCache,
    SerialExecutor,
)
from repro.checkpoint import resume_engine
from repro.coding.verify import verify_coding_log
from repro.core.errors import ReproError
from repro.core.mechanisms import CreditLimitedBarter, StrictBarter
from repro.core.serde import log_to_dict
from repro.core.verify import verify_log
from repro.experiments.heterogeneity import mix_spec
from repro.faults import FaultPlan
from repro.schedules.bounds import cooperative_lower_bound, strict_barter_lower_bound
from repro.sim.registry import create_engine
from repro.telemetry import TelemetrySpec
from repro.workloads import FlashCrowd, WorkloadSpec


def derive_seed(seed: int, *labels: object) -> int:
    """A 63-bit engine seed from the benchmark seed and a label path."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass
class Record:
    """What one iteration measured."""

    #: Timed phase: simulate + verify + resume / replay.
    wall_s: float = 0.0
    #: ``engine.run()`` time (campaign: cold sweep time).
    sim_s: float = 0.0
    #: Delivered transfers of the runs timed in ``sim_s``.
    transfers: int = 0
    #: Simulation runs timed in ``sim_s``.
    runs: int = 0
    #: Layer counts the workload reads from its results.
    counts: Counter = field(default_factory=Counter)
    #: Per-iteration layer figures the workload times itself.
    details: dict[str, tuple[float, str]] = field(default_factory=dict)


class Checks:
    """Counts attempted and failed output checks; reports failures on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"swarmbench: check failed: {what}", file=sys.stderr)
        return ok

    def call(self, what: str, fn, *args, **kwargs):
        """Run ``fn``; a :class:`ReproError` it raises (a schedule
        violation, a failed campaign) is a failed check, not a crash."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except ReproError as exc:
            self.failed += 1
            print(f"swarmbench: check failed: {what}: {exc}", file=sys.stderr)
            return None


def _log_bytes(result, n: int, k: int) -> bytes:
    return json.dumps(log_to_dict(result.log, n, k), sort_keys=True).encode()


def _log_rows(log) -> int:
    """Rows ``verify_log`` replays: every stream of the log."""
    return len(log) + len(log.failures) + log.polluted_count + log.phantom_count


class Workload:
    """One benchmark workload.

    ``prepare(i)`` builds iteration ``i``'s inputs and unstarted engines
    (timed as set-up), ``measure`` is the timed phase, and ``finish``
    cleans up and runs any pass the traced run adds.
    """

    name = ""
    #: Modules whose import the set-up time includes.
    modules: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, tracer, checks: Checks, tmp: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.checks = checks
        self.tmp = tmp

    def seed_for(self, iteration: int, label: str) -> int:
        return derive_seed(self.seed, self.name, iteration, label)

    def prepare(self, iteration: int):
        raise NotImplementedError

    def measure(self, state, rec: Record) -> None:
        raise NotImplementedError

    def finish(self, state, rec: Record, traced: bool) -> None:
        """Release what ``prepare`` created (files, directories)."""

    def _run(self, engine, rec: Record):
        with self.tracer.span("sim.run"):
            start = time.perf_counter()
            result = engine.run()
            elapsed = time.perf_counter() - start
        rec.sim_s += elapsed
        rec.runs += 1
        rec.transfers += sum(engine.kernel.uploads_per_tick)
        return result

    def _verify(self, what: str, result, n: int, k: int, rec: Record, **kwargs) -> None:
        with self.tracer.span("core.verify"):
            self.checks.call(f"{what}: verify_log", verify_log, result.log, n, k, **kwargs)
        rec.counts["core.log.rows"] += _log_rows(result.log)

    def _verify_coding(self, what: str, result, n: int, k: int, rec: Record) -> None:
        with self.tracer.span("coding.verify"):
            self.checks.call(f"{what}: verify_coding_log", verify_coding_log, result, n, k)
        rec.counts["coding.delivered"] += len(result.log)
        rec.counts["coding.required"] += k * (n - 1)

    def _check_clean(
        self, what: str, engine: str, result, n: int, k: int, rec: Record, logged: bool = True
    ) -> None:
        """Check a fault-free run: its log against the verifier (strict
        barter for exchange, the vector replay for coding) when it was
        kept, and its completion tick against Theorem 2 for exchange or
        Theorem 1 otherwise."""
        if logged:
            if engine == "coding":
                self._verify_coding(what, result, n, k, rec)
            else:
                mechanism = StrictBarter() if engine == "exchange" else None
                self._verify(what, result, n, k, rec, mechanism=mechanism)
        if engine == "exchange":
            theorem, bound = "Theorem 2", strict_barter_lower_bound(n, k)
        else:
            theorem, bound = "Theorem 1", cooperative_lower_bound(n, k)
        completion = result.completion_time
        self.checks.expect(
            completion is not None and completion >= bound,
            f"{what}: completion tick {completion} against the {theorem} bound {bound}",
        )


class PaperN1000(Workload):
    name = "paper-n1000"
    modules = ("repro.sim.registry", "repro.randomized.engine", "repro.core.verify")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.n, self.k = (64, 64) if self.smoke else (1000, 1000)

    def prepare(self, iteration: int):
        return create_engine(
            "randomized",
            self.n,
            self.k,
            rng=self.seed_for(iteration, "randomized"),
            keep_log=True,
            backend="loop",
        )

    def measure(self, engine, rec: Record) -> None:
        n, k = self.n, self.k
        result = self._run(engine, rec)
        self._check_clean(self.name, "randomized", result, n, k, rec)
        self.checks.expect(
            len(result.log) == k * (n - 1),
            f"{self.name}: {len(result.log)} deliveries, a cooperative run "
            f"needs exactly k(n-1) = {k * (n - 1)}",
        )


class EnginesN128(Workload):
    name = "engines-n128"
    modules = (
        "repro.sim.registry",
        "repro.randomized.exchange",
        "repro.randomized.bittorrent",
        "repro.coding.engine",
        "repro.asynchronous.engine",
        "repro.core.verify",
        "repro.coding.verify",
    )
    ENGINES = ("exchange", "bittorrent", "coding", "async")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.n, self.k = (32, 16) if self.smoke else (128, 64)

    def prepare(self, iteration: int):
        return [
            (
                name,
                create_engine(
                    name, self.n, self.k, rng=self.seed_for(iteration, name), keep_log=True
                ),
            )
            for name in self.ENGINES
        ]

    def measure(self, engines, rec: Record) -> None:
        n, k = self.n, self.k
        for name, engine in engines:
            result = self._run(engine, rec)
            self._check_clean(f"{self.name} {name}", name, result, n, k, rec)


class ScenarioN512(Workload):
    name = "scenario-n512"
    modules = (
        "repro.sim.registry",
        "repro.randomized.engine",
        "repro.randomized.bittorrent",
        "repro.faults",
        "repro.adversary",
        "repro.workloads",
        "repro.experiments.heterogeneity",
        "repro.telemetry",
        "repro.checkpoint",
        "repro.core.verify",
    )
    ENGINES = ("randomized", "bittorrent")
    CREDIT = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.n, self.k, self.interval = (64, 32, 10) if self.smoke else (512, 128, 50)
        clients = self.n - 1
        initial = 0.5
        self.adversary = AdversaryPlan(
            free_rider_fraction=0.05,
            polluter_fraction=0.05,
            pollution_rate=0.3,
            strike_threshold=2,
        )
        self.specs = {
            "faults": FaultPlan(
                loss_rate=0.02,
                crash_rate=0.0005,
                rejoin_delay=5,
                rejoin_retention=0.5,
                server_outages=((30, 34),),
                max_crashes=20,
            ),
            "adversary": self.adversary,
            # Half the clients start; the rest arrive as one flash crowd.
            "workload": WorkloadSpec(
                initial_fraction=initial,
                flash_crowds=(
                    FlashCrowd(tick=20, count=clients - round(initial * clients), width=10),
                ),
            ),
            "bandwidth": mix_spec("broadband"),
            "telemetry": TelemetrySpec(window=25),
        }

    def _mechanism(self, name: str):
        return CreditLimitedBarter(self.CREDIT) if name == "randomized" else None

    def _build(self, name: str, seed: int):
        mechanism = self._mechanism(name)
        extra = {"mechanism": mechanism} if mechanism else {}
        return create_engine(
            name, self.n, self.k, rng=seed, keep_log=True, **self.specs, **extra
        )

    def prepare(self, iteration: int):
        runs = []
        for name in self.ENGINES:
            build = functools.partial(self._build, name, self.seed_for(iteration, name))
            engine = build()
            path = os.path.join(self.tmp, f"{name}-{iteration}.ckpt.json")
            engine.kernel.arm_checkpoints(self.interval, path=path)
            runs.append((name, build, engine, path))
        return runs

    def measure(self, runs, rec: Record) -> None:
        n, k = self.n, self.k
        for name, build, engine, path in runs:
            result = self._run(engine, rec)
            what = f"{self.name} {name}"
            meta, log = result.meta, result.log
            self._verify(
                what,
                result,
                n,
                k,
                rec,
                model=engine.kernel.model,
                mechanism=self._mechanism(name),
                require_completion=result.completed,
                crash_events=meta.get("crash_events"),
                rejoin_events=meta.get("rejoin_events"),
                strike_threshold=self.adversary.strike_threshold,
            )
            rec.counts["faults.crashes"] += meta.get("crashes", 0)
            rec.counts["faults.failed_attempts"] += len(log.failures)
            rec.counts["adversary.polluted"] += log.polluted_count
            rec.counts["adversary.phantoms"] += log.phantom_count
            rec.counts["adversary.blocked_attempts"] += meta.get("blocked_attempts", 0)
            rec.counts["adversary.bans"] += meta.get("bans", 0)
            if not self.checks.expect(os.path.exists(path), f"{what}: no checkpoint written"):
                continue
            resumed = self.checks.call(f"{what}: resume", resume_engine, path, build)
            if resumed is None:
                continue
            tick = resumed.kernel.tick
            again = resumed.run()
            self.checks.expect(
                _log_bytes(again, n, k) == _log_bytes(result, n, k),
                f"{what}: the run resumed from tick {tick} produced a different log",
            )

    def finish(self, runs, rec: Record, traced: bool) -> None:
        for *_, path in runs:
            if os.path.exists(path):
                os.remove(path)


@dataclass(frozen=True)
class _Sweep:
    engine: str
    n: int
    k: int
    replicates: int
    #: ``None`` for the job-per-run path, else the batched path's chunk.
    replicas_per_batch: int | None = None

    @property
    def label(self) -> str:
        path = "batched" if self.replicas_per_batch else "job-per-run"
        return f"{path}-{self.engine}-{self.n}"

    def factory(self):
        cls = BatchEngineRun if self.replicas_per_batch else EngineRun
        return cls.configure(self.engine, self.n, self.k)


def _aggregates(points) -> list[tuple]:
    return [
        (p.label, p.completion, p.timeouts, p.runs, p.mean_client_completion)
        for p in points
    ]


class CampaignCI(Workload):
    name = "campaign-ci"
    modules = ("repro.analysis.sweeps", "repro.campaign", "repro.sim.array", "repro.core.verify")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        if self.smoke:
            self.sweeps = (
                _Sweep("randomized", 16, 8, 4),
                _Sweep("exchange", 16, 8, 4),
                _Sweep("bittorrent", 16, 8, 4),
                _Sweep("coding", 8, 4, 4),
                _Sweep("randomized", 32, 16, 4, replicas_per_batch=2),
            )
        else:
            self.sweeps = (
                _Sweep("randomized", 64, 32, 64),
                _Sweep("exchange", 64, 32, 32),
                _Sweep("bittorrent", 64, 32, 64),
                _Sweep("coding", 32, 16, 32),
                _Sweep("randomized", 256, 128, 32, replicas_per_batch=8),
            )
        self.jobs = min(2, os.cpu_count() or 1)

    def prepare(self, iteration: int):
        root = tempfile.mkdtemp(prefix=f"campaign-{iteration}-", dir=self.tmp)
        return {
            "root": root,
            "cache": ResultCache(root),
            "base_seed": self.seed_for(iteration, "sweeps") % 2**31,
            "cold": {},
        }

    def _sweep(self, spec: _Sweep, state: dict, executor, cache):
        """One sweep; returns ``(points or None, stats, seconds)``."""
        with self.tracer.span("campaign.sweep"):
            start = time.perf_counter()
            points = self.checks.call(
                f"{self.name} {spec.label}",
                sweep,
                [{}],
                spec.factory(),
                replicates=spec.replicates,
                base_seed=state["base_seed"],
                keep_results=True,
                executor=executor,
                cache=cache,
                experiment=spec.label,
                replicas_per_batch=spec.replicas_per_batch,
            )
            elapsed = time.perf_counter() - start
        return points, executor.last_stats, elapsed

    @staticmethod
    def _count(rec: Record, stats) -> None:
        for name in ("executed", "cached", "failed", "retried"):
            rec.counts[f"campaign.{name}"] += getattr(stats, name)

    def measure(self, state, rec: Record) -> None:
        cold = {"job_per_run": 0.0, "batched": 0.0}
        for spec in self.sweeps:
            executor = ParallelExecutor(jobs=self.jobs)
            points, stats, elapsed = self._sweep(spec, state, executor, state["cache"])
            cold["batched" if spec.replicas_per_batch else "job_per_run"] += elapsed
            rec.sim_s += elapsed
            rec.runs += stats.runs
            self._count(rec, stats)
            if points is None:
                continue
            state["cold"][spec.label] = _aggregates(points)
            what = f"{self.name} {spec.label}"
            for result in points[0].results:
                rec.transfers += sum(result.meta["uploads_per_tick"])
                self._check_clean(
                    what,
                    spec.engine,
                    result,
                    spec.n,
                    spec.k,
                    rec,
                    logged=not spec.replicas_per_batch,  # summaries carry no log
                )
        for name, seconds in cold.items():
            rec.details[f"campaign.{name}_s"] = (seconds, "s")

        start = time.perf_counter()
        for spec in self.sweeps:
            executor = ParallelExecutor(jobs=self.jobs)
            points, stats, _ = self._sweep(spec, state, executor, state["cache"])
            self._count(rec, stats)
            what = f"{self.name} warm replay of {spec.label}"
            self.checks.expect(stats.executed == 0, f"{what}: executed {stats.executed} tasks")
            self.checks.expect(
                points is not None and _aggregates(points) == state["cold"].get(spec.label),
                f"{what}: aggregates differ from the cold pass",
            )
        rec.details["campaign.replay_s"] = (time.perf_counter() - start, "s")

    def finish(self, state, rec: Record, traced: bool) -> None:
        if traced:
            # The same cold sweeps in-process: traces the kernel layers
            # the pool workers hide, and gives parallel efficiency.
            start = time.perf_counter()
            for spec in self.sweeps:
                points, _, _ = self._sweep(spec, state, SerialExecutor(), None)
                self.checks.expect(
                    points is not None and _aggregates(points) == state["cold"].get(spec.label),
                    f"{self.name} serial {spec.label}: aggregates differ from the parallel pass",
                )
            serial = time.perf_counter() - start
            parallel = rec.details["campaign.job_per_run_s"][0] + rec.details["campaign.batched_s"][0]
            rec.details["campaign.serial_s"] = (serial, "s")
            rec.details["campaign.parallel_efficiency"] = (
                serial / (self.jobs * parallel),
                "fraction",
            )
        shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {
    cls.name: cls for cls in (PaperN1000, EnginesN128, ScenarioN512, CampaignCI)
}
