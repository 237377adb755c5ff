"""The engine registry: construct any simulation engine by name.

The paper's point is comparing *mechanisms* under one model; the registry
is that comparison surface in code. Every entry accepts the same kernel
options (``rng``, ``max_ticks``, ``keep_log``, ``faults``, ``recovery``,
and a ``progress`` callback on :func:`run_engine`) and returns a
:class:`~repro.core.log.RunResult` with the uniform
``None | deadlock | stall | max-ticks`` abort verdict — which is what
lets experiment runners, campaign factories and the fault suite treat
engines as data::

    from repro.sim import run_engine

    result = run_engine("randomized", n=100, k=100, rng=42)
    result = run_engine("exchange", n=50, k=20, rng=7,
                        faults=FaultPlan(loss_rate=0.05))

A scenario an engine cannot honor raises
:class:`~repro.core.errors.ConfigError` at construction instead of being
silently ignored; each entry reads its support levels
(``EngineSpec.adversary_support`` and friends) from its policy class.

Array-capable engines (``EngineSpec.array_backend``) additionally accept
``backend="array"`` — the :mod:`repro.sim.array` vectorized backend,
byte-identical to the default loop. The ambient default is ``"loop"``;
:func:`set_default_backend` or the ``REPRO_BACKEND`` environment variable
(read once at import, so parallel-executor workers inherit it) switch it
swarm-wide, in which case array-capable engines pick the array backend up
*softly* — engines without array support keep the loop. Passing
``backend=`` explicitly always wins, and an *explicit* ``"array"`` on an
unsupporting engine raises ``ConfigError`` naming the engine.

Engine modules are imported lazily, on first use of an entry: the
registry is imported by :mod:`repro.sim`, which the engines themselves
import for the kernel, and laziness breaks that cycle.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from typing import Any, Callable

from ..core.errors import ConfigError
from ..core.log import RunResult

__all__ = [
    "ENGINES",
    "EngineSpec",
    "create_engine",
    "default_backend",
    "engine_names",
    "run_engine",
    "set_default_backend",
]


def _load(path: str) -> Any:
    """Import ``"module:attr"`` and return the attribute."""
    module, _, attr = path.partition(":")
    return getattr(importlib.import_module(module), attr)


@dataclass(frozen=True)
class EngineSpec:
    """One registry entry: how to build an engine and what it can do.

    What it can do is read from its tick-policy class, importing the
    engine's module on first access.
    """

    #: Registry key (also the conventional CLI / campaign label).
    name: str
    #: One-line description for listings.
    summary: str
    #: Paper mechanism the engine realises (see DESIGN.md mapping).
    mechanism: str
    #: ``"module:Class"`` of the engine; ``Class(n, k, **kwargs)`` returns
    #: an object with ``run(progress=None) -> RunResult``.
    engine: str
    #: ``"module:Class"`` of its :class:`~repro.sim.policy.TickPolicy`.
    policy: str

    @property
    def factory(self) -> Callable[..., Any]:
        """``factory(n, k, **kwargs)`` building an unstarted engine."""
        return _load(self.engine)

    @property
    def policy_class(self) -> type:
        return _load(self.policy)

    @property
    def array_backend(self) -> bool:
        """Whether the engine accepts ``backend="array"``
        (:mod:`repro.sim.array`); others reject it with ``ConfigError``."""
        return self.policy_class.supports_array

    @property
    def adversary_support(self) -> str:
        """See :data:`~repro.sim.policy.ADVERSARY_SUPPORT_LEVELS`."""
        return self.policy_class.adversary_support

    @property
    def bandwidth_support(self) -> str:
        """See :data:`~repro.sim.policy.BANDWIDTH_SUPPORT_LEVELS`."""
        return self.policy_class.bandwidth_support


ENGINES: dict[str, EngineSpec] = {
    spec.name: spec
    for spec in (
        EngineSpec(
            name="randomized",
            summary="randomized uniform-neighbor sampling "
            "(cooperative or credit-limited barter)",
            mechanism="cooperative / credit-limited barter",
            engine="repro.randomized.engine:RandomizedEngine",
            policy="repro.randomized.engine:RandomizedTickPolicy",
        ),
        EngineSpec(
            name="churn",
            summary="randomized sampling with scheduled arrivals/departures",
            mechanism="cooperative / credit-limited barter",
            engine="repro.randomized.churn:ChurnEngine",
            policy="repro.randomized.churn:ChurnTickPolicy",
        ),
        EngineSpec(
            name="exchange",
            summary="randomized strict-barter pairwise exchange matching",
            mechanism="strict barter",
            engine="repro.randomized.exchange:ExchangeEngine",
            policy="repro.randomized.exchange:ExchangeTickPolicy",
        ),
        EngineSpec(
            name="bittorrent",
            summary="BitTorrent-style tit-for-tat choking",
            mechanism="tit-for-tat (approximate barter)",
            engine="repro.randomized.bittorrent:BitTorrentEngine",
            policy="repro.randomized.bittorrent:BitTorrentTickPolicy",
        ),
        EngineSpec(
            name="coding",
            summary="GF(2) network coding (random linear combinations)",
            mechanism="cooperative",
            engine="repro.coding.engine:NetworkCodingEngine",
            policy="repro.coding.engine:CodingTickPolicy",
        ),
        EngineSpec(
            name="async",
            summary="continuous-time asynchronous engine "
            "(kernel-hosted event windows, one tick per unit time)",
            mechanism="cooperative",
            engine="repro.asynchronous.engine:AsyncKernelRun",
            policy="repro.asynchronous.policy:AsyncTickPolicy",
        ),
    )
}


def engine_names() -> list[str]:
    """Registered engine names, in registry order."""
    return list(ENGINES)


# Ambient execution backend, applied *softly*: array-capable engines pick
# it up as their default, everyone else keeps the loop. Seeded from the
# environment once at import so ParallelExecutor worker processes inherit
# the parent's choice.
_DEFAULT_BACKEND = os.environ.get("REPRO_BACKEND") or "loop"


def default_backend() -> str:
    """The ambient backend name (``"loop"`` unless switched)."""
    return _DEFAULT_BACKEND


def set_default_backend(backend: str) -> str:
    """Set the ambient backend (``"loop"`` or ``"array"``); returns the
    previous value. The CLI's ``--backend`` flag lands here."""
    global _DEFAULT_BACKEND
    if backend not in ("loop", "array"):
        raise ConfigError(
            f"unknown backend {backend!r}; choose 'loop' or 'array'"
        )
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = backend
    return previous


def create_engine(name: str, n: int, k: int, **kwargs: Any) -> Any:
    """Build the named engine (unstarted); raises ``ConfigError`` for an
    unknown name or options the engine rejects.

    ``backend=`` is resolved here: ``None`` means the ambient default
    (which only array-capable engines follow); an explicit value is
    checked against ``EngineSpec.array_backend`` so the error names the
    engine rather than surfacing as an unexpected-keyword ``TypeError``.
    """
    spec = ENGINES.get(name)
    if spec is None:
        raise ConfigError(
            f"unknown engine {name!r}; registered: {', '.join(ENGINES)}"
        )
    backend = kwargs.pop("backend", None)
    if backend is None and _DEFAULT_BACKEND != "loop" and spec.array_backend:
        backend = _DEFAULT_BACKEND
    if backend is not None and backend != "loop":
        if not spec.array_backend:
            capable = ", ".join(s.name for s in ENGINES.values() if s.array_backend)
            raise ConfigError(
                f"the {name} engine does not support the array backend; "
                f"use backend='loop' or one of: {capable}"
            )
        kwargs["backend"] = backend
    return spec.factory(n, k, **kwargs)


def run_engine(
    name: str,
    n: int,
    k: int,
    *,
    progress: Callable[[int, int], None] | None = None,
    **kwargs: Any,
) -> RunResult:
    """Construct and run the named engine; the uniform entry point used
    by experiment runners and campaign factories."""
    return create_engine(name, n, k, **kwargs).run(progress)
