"""Cross-engine conformance suite for the :mod:`repro.sim` registry.

Every registered engine must honor one contract: constructed by name with
the same kernel options, returning a :class:`~repro.core.log.RunResult`
with the uniform ``None | deadlock | stall | max-ticks`` abort verdict,
seed-stable output, a working progress callback, and either honored or
explicitly rejected fault plans. The suite is parametrized over the
registry itself, so adding an engine automatically subjects it to the
contract.

Log verification is tiered by what an engine's log *means*:

* block-semantic engines (randomized, exchange, bittorrent) log
  real block transfers, so :func:`repro.core.verify.verify_log` replays
  them against the full model;
* ``coding`` logs the *pivot* of each coefficient vector — two deliveries
  of the same pivot to one node are legal (different vectors), so the
  model's usefulness rule does not apply and the log gets
  well-formedness checks instead;
* ``async`` logs continuous-time transfers quantised to unit windows —
  several may land in one tick without violating the continuous model,
  so capacity rules do not apply either.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import random
from functools import partial

import pytest

from repro.adversary import AdversaryPlan
from repro.coding.engine import network_coding_run
from repro.core.bandwidth import BandwidthClasses
from repro.core.errors import ConfigError
from repro.core.log import RunResult
from repro.core.mechanisms import CreditLimitedBarter
from repro.core.model import BandwidthModel
from repro.core.verify import verify_log
from repro.faults import FaultPlan, RecoveryPolicy
from repro.randomized.barter import randomized_barter_run
from repro.randomized.bittorrent import bittorrent_run
from repro.randomized.cooperative import randomized_cooperative_run
from repro.randomized.exchange import randomized_exchange_run
from repro.randomized.triangular import randomized_triangular_run
from repro.sim import create_engine, engine_names, run_engine
from repro.sim.kernel import TickKernel
from repro.telemetry import TelemetrySpec
from repro.workloads import WorkloadSpec

from .capture_golden import result_fingerprint

# One small-but-nontrivial configuration per registry entry, plus
# ``churn``: the randomized engine with ``CHURN_TABLES`` layered onto
# whatever workload a test passes, which exercises the membership
# runtime. Everything else runs plain.
CHURN_TABLES = {"arrivals": ((3, 2),), "departures": ((5, 8),)}
CASES: dict[str, dict] = {
    "randomized": {"n": 16, "k": 6},
    "churn": {"engine": "randomized", "n": 16, "k": 6},
    "exchange": {"n": 16, "k": 6},
    "bittorrent": {"n": 16, "k": 6},
    "coding": {"n": 12, "k": 5},
    "async": {"n": 12, "k": 5},
}

# Engines whose logged entries are literal block transfers under the
# paper's capacity model (see module docstring for the exclusions).
BLOCK_SEMANTIC = ("randomized", "churn", "exchange", "bittorrent")

SEED = 2024


def _run_case(name: str, **options) -> RunResult:
    kwargs = {**CASES[name], **options}
    engine, n, k = kwargs.pop("engine", name), kwargs.pop("n"), kwargs.pop("k")
    if name == "churn":
        workload = kwargs.pop("workload", None) or WorkloadSpec()
        kwargs["workload"] = dataclasses.replace(workload, **CHURN_TABLES)
    return run_engine(engine, n, k, **kwargs)


#: Every entry point that builds a kernel run, bound to a small case:
#: the registry cases and the ``*_run`` helpers (triangular barter has
#: a helper but no registry entry).
RUNNERS = {
    **{name: partial(_run_case, name) for name in CASES},
    "randomized_cooperative_run": partial(randomized_cooperative_run, 16, 6),
    "randomized_barter_run": partial(randomized_barter_run, 16, 6, 2),
    "randomized_exchange_run": partial(randomized_exchange_run, 16, 6),
    "bittorrent_run": partial(bittorrent_run, 16, 6),
    "network_coding_run": partial(network_coding_run, 12, 5),
    "randomized_triangular_run": partial(randomized_triangular_run, 16, 6),
}

#: The kernel's run options: its keyword-only parameters, less the
#: ``credit`` ledger that ``RandomizedEngine`` derives from its mechanism.
KERNEL_OPTIONS = sorted(
    name
    for name, param in inspect.signature(TickKernel.__init__).parameters.items()
    if param.kind is param.KEYWORD_ONLY and name != "credit"
)

#: A value per kernel option that must leave a run's fingerprint as it is.
NULL_OPTIONS = {
    "model": BandwidthModel.symmetric(),
    "rng": random.Random(SEED),
    "max_ticks": None,
    "keep_log": True,
    "faults": FaultPlan(),
    "recovery": RecoveryPolicy(),
    "backend": "loop",
    "workload": WorkloadSpec(),
    "adversary": AdversaryPlan(),
    "bandwidth": BandwidthClasses(),
    "telemetry": TelemetrySpec(),
}


def test_every_engine_has_a_case() -> None:
    assert sorted(CASES) == sorted([*engine_names(), "churn"])


def test_unknown_engine_rejected() -> None:
    with pytest.raises(ConfigError, match="unknown engine"):
        create_engine("riffle", 8, 4)


@pytest.mark.parametrize("name", sorted(CASES))
def test_returns_uniform_runresult(name: str) -> None:
    result = _run_case(name, rng=SEED)
    assert isinstance(result, RunResult)
    assert result.completed
    assert result.meta["abort"] is None
    assert result.meta["deadlocked"] is False
    assert result.meta["algorithm"]
    assert len(result.log), "a completed run must have logged transfers"


@pytest.mark.parametrize("name", sorted(CASES))
def test_max_ticks_abort_is_uniform(name: str) -> None:
    result = _run_case(name, rng=SEED, max_ticks=2)
    assert not result.completed
    assert result.completion_time is None
    assert result.meta["abort"] == "max-ticks"
    assert result.meta["deadlocked"] is False


@pytest.mark.parametrize("name", sorted(CASES))
def test_seed_stable_twice(name: str) -> None:
    first = result_fingerprint(_run_case(name, rng=SEED))
    second = result_fingerprint(_run_case(name, rng=SEED))
    assert first == second


@pytest.mark.parametrize("name", BLOCK_SEMANTIC)
def test_block_semantic_logs_verify(name: str) -> None:
    result = _run_case(name, rng=SEED)
    verify_log(
        result.log,
        result.n,
        result.k,
        # Churn departures leave absent clients legitimately incomplete.
        require_completion=(name != "churn"),
    )


@pytest.mark.parametrize("name", ("coding", "async"))
def test_non_block_logs_are_well_formed(name: str) -> None:
    result = _run_case(name, rng=SEED)
    last = 0
    for t in result.log:
        assert t.tick >= max(1, last)  # ordered, one-indexed ticks
        last = t.tick
        assert t.src != t.dst
        assert 0 <= t.src < result.n and 0 <= t.dst < result.n
        assert 0 <= t.block < result.k


@pytest.mark.parametrize("name", sorted(CASES))
def test_progress_callback(name: str) -> None:
    calls: list[tuple[int, int]] = []
    result = _run_case(
        name, rng=SEED, progress=lambda t, made: calls.append((t, made))
    )
    assert calls
    ticks = [t for t, _ in calls]
    assert ticks == sorted(ticks)
    # Every delivery is announced through the callback, no more, no less.
    assert sum(made for _, made in calls) == len(result.log)


@pytest.mark.parametrize("name", sorted(CASES))
def test_loss_plan_accepted_everywhere(name: str) -> None:
    result = _run_case(name, rng=SEED, faults=FaultPlan(loss_rate=0.2))
    assert isinstance(result, RunResult)
    assert result.log.failures, "a lossy run at this seed records failed attempts"
    assert "failed_transfers" in result.meta


@pytest.mark.parametrize("name", sorted(CASES))
def test_crash_plan_honored_or_rejected(name: str) -> None:
    """Every engine carries the full fault model, crash/rejoin included."""
    plan = FaultPlan(crash_rate=0.01, rejoin_delay=3, rejoin_retention=0.5)
    result = _run_case(name, rng=SEED, faults=plan)
    assert isinstance(result, RunResult)


def test_every_kernel_option_has_a_null_value() -> None:
    assert sorted(NULL_OPTIONS) == KERNEL_OPTIONS


@pytest.mark.parametrize("option", KERNEL_OPTIONS)
@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_kernel_option_reaches_every_entry_point(runner: str, option: str) -> None:
    """Each entry point forwards each kernel option to the kernel: a null
    value is accepted and changes nothing."""
    run = RUNNERS[runner]
    plain = run(rng=SEED)
    # A fresh copy per run: a Random is consumed by the run it seeds.
    armed = run(**{"rng": SEED, option: copy.deepcopy(NULL_OPTIONS[option])})
    assert result_fingerprint(armed) == result_fingerprint(plain)
    if option == "telemetry":
        # The one option whose null value leaves a mark: proof it arrived.
        assert "telemetry" in armed.meta


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_misspelt_option_raises_type_error(runner: str) -> None:
    with pytest.raises(TypeError):
        RUNNERS[runner](rng=SEED, fautls=FaultPlan(loss_rate=0.1))


@pytest.mark.parametrize("runner", sorted(RUNNERS))
def test_credit_ledger_is_not_a_run_option(runner: str) -> None:
    # Only a mechanism restricts transfers; a bare ledger would be charged
    # without restricting anything, so no entry point takes one.
    with pytest.raises(TypeError, match="credit"):
        RUNNERS[runner](rng=SEED, credit=CreditLimitedBarter(1))


def test_async_refuses_a_bandwidth_model() -> None:
    # Its rates are the async engine's capacity, so a model that would
    # change capacity is refused rather than silently ignored.
    with pytest.raises(ConfigError, match="BandwidthModel"):
        create_engine("async", 12, 5, model=BandwidthModel(download=2))
