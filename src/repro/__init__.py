"""repro — reproduction of "On Cooperative Content Distribution and the
Price of Barter" (Ganesan & Seshadri, ICDCS 2005).

The library models a server disseminating a ``k``-block file to ``n - 1``
clients under the paper's tick-synchronous bandwidth model, and provides:

* :mod:`repro.core` — block sets, bandwidth model, transfer logs, barter
  mechanisms (strict / credit-limited / triangular), schedule execution and
  an independent log verifier;
* :mod:`repro.overlays` — overlay-network substrate built from scratch
  (complete, random regular, hypercube with non-power-of-two doubling,
  d-ary and binomial trees, chains, dynamic rewiring);
* :mod:`repro.schedules` — the deterministic algorithms and closed-form
  bounds (pipeline, multicast, binomial pipeline and its hypercube
  embedding, riffle pipeline, lower bounds);
* :mod:`repro.sim` — the shared tick-simulation kernel every swarm engine
  runs on, and the engine registry (``run_engine("randomized", n, k)``)
  that constructs any engine by name with uniform kernel options;
* :mod:`repro.randomized` — the paper's randomized algorithms on arbitrary
  overlays with Random / Rarest-First block selection, cooperative and
  credit-limited, plus strict-barter exchange matching;
* :mod:`repro.analysis` — replicated sweeps, confidence intervals and the
  least-squares completion-time fit;
* :mod:`repro.campaign` — the execution subsystem behind every sweep:
  serial and process-parallel executors, a content-addressed result
  cache with resumable campaigns, and progress telemetry;
* :mod:`repro.experiments` — one runner per paper figure/table.

Quickstart::

    from repro import hypercube_schedule, execute_schedule, verify_log

    schedule = hypercube_schedule(n=16, k=32)
    result = execute_schedule(schedule)
    assert result.completion_time == 32 + 4 - 1   # k + log2(n) - 1, optimal
    verify_log(result.log, n=16, k=32)
"""

from importlib import import_module

__version__ = "1.0.0"

#: Subpackage -> the public names re-exported from it. Each subpackage is
#: imported on first access to one of its names (PEP 562), so importing
#: one submodule, say ``repro.sim.registry``, does not load them all.
_EXPORTS = {
    "campaign": (
        "Campaign",
        "CampaignError",
        "ParallelExecutor",
        "ResultCache",
        "SerialExecutor",
        "configured",
    ),
    "core": (
        "SERVER",
        "BandwidthModel",
        "BlockSet",
        "ConfigError",
        "Cooperative",
        "CreditLedger",
        "CreditLimitedBarter",
        "Mechanism",
        "ReproError",
        "RunResult",
        "Schedule",
        "ScheduleViolation",
        "StrictBarter",
        "SwarmState",
        "Transfer",
        "TransferLog",
        "TriangularBarter",
        "VerificationReport",
        "execute_schedule",
        "verify_log",
    ),
    "overlays": (
        "Graph",
        "binomial_tree",
        "chain",
        "complete_graph",
        "dary_tree",
        "hypercube",
        "random_regular_graph",
    ),
    "randomized": (
        "BlockPolicy",
        "RandomPolicy",
        "RarestFirstPolicy",
        "randomized_barter_run",
        "randomized_cooperative_run",
    ),
    "schedules": (
        "binomial_pipeline_schedule",
        "binomial_tree_schedule",
        "cooperative_lower_bound",
        "hypercube_schedule",
        "multicast_tree_schedule",
        "pipeline_schedule",
        "riffle_pipeline_schedule",
        "strict_barter_lower_bound",
    ),
    "sim": ("ENGINES", "create_engine", "engine_names", "run_engine"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_SOURCE), "__version__"]


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
