"""Event-driven (continuous-time) swarm simulation on the shared kernel.

Section 2.3.4, "Dealing with asynchrony": in reality nodes have slightly
differing bandwidths and no global tick; the paper suggests running the
hypercube algorithm with each node simply using its links in round-robin
order *at its own pace*, and notes the connection to the randomized
algorithms. The paper's own ongoing BitTorrent study also uses
asynchronous simulations.

Time is continuous; each node ``v`` has an upload rate ``up[v]`` and a
download rate ``down[v]`` (blocks per unit time). A transfer occupies
the sender's uplink and one downlink slot at the receiver for
``1 / min(up[src], down[dst])`` time units (the paper's tail-link
bottleneck, one connection at a time). Whenever a node's uplink frees,
its *strategy* picks the next (receiver, block) — or the node idles
until some transfer completes somewhere and retries.

The event loop itself lives in
:class:`~repro.asynchronous.policy.AsyncTickPolicy`, hosted on the
shared :class:`~repro.sim.kernel.TickKernel` (one tick = one unit-time
window). Two front ends wrap it:

* :class:`AsyncKernelRun` — the registry adapter surface (the kernel's
  run options and a progress callback) returning the uniform
  :class:`~repro.core.log.RunResult`;
* :class:`AsyncEngine` — the continuous-time API
  (:class:`AsyncRunResult` with float times), built through
  :class:`AsyncKernelRun` with a time horizon in place of ``max_ticks``,
  used by the asynchrony extension experiment and the strategy tests.

Both carry the full fault model, including node crash/rejoin. With
all rates equal to 1 this reduces to
the synchronous model up to scheduling slack, so the test suite
cross-checks completion times against the tick engines.
"""

from __future__ import annotations

from math import ceil
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..core.errors import ConfigError
from ..core.log import RunResult
from ..core.model import BandwidthModel
from ..overlays.graph import Graph
from ..sim.kernel import TickKernel
from .policy import AsyncTickPolicy, AsyncTransfer, validate_rates

__all__ = [
    "AsyncTransfer",
    "AsyncRunResult",
    "AsyncStrategy",
    "AsyncEngine",
    "AsyncKernelRun",
]


class AsyncStrategy(Protocol):
    """Decides what a node uploads next when its uplink frees.

    A strategy may set the class attribute ``candidates_from_masks =
    True`` when every receiver it could propose depends only on the
    kernel masks, ``engine.inflight`` and free downlink slots, and it
    draws no randomness when it returns ``None``. The policy then
    narrows the retry round after a finish to the nodes that finish can
    wake (see ``AsyncTickPolicy._retry_idle``). Without the attribute
    every round tries every idle node.
    """

    def next_transfer(self, engine, src: int) -> tuple[int, int] | None:
        """Return ``(dst, block)`` or ``None`` to idle.

        ``engine`` is the live :class:`AsyncTickPolicy` (the query
        surface documented there). Must only propose receivers with a
        free downlink slot (``engine.downlink_free(dst)``) holding
        ``block`` not yet present (``engine.has_block(dst, block)`` is
        False) that ``src`` holds.
        """
        ...


@dataclass(slots=True)
class AsyncRunResult:
    """Outcome of an asynchronous run."""

    n: int
    k: int
    completion_time: float | None
    client_completions: dict[int, float]
    transfers: list[AsyncTransfer]
    meta: dict[str, object] = field(default_factory=dict)
    failed_transfers: list[AsyncTransfer] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Whether every client received the whole file."""
        return self.completion_time is not None


class AsyncEngine:
    """Continuous-time swarm simulation; see module docstring.

    Built through :class:`AsyncKernelRun`, which documents ``strategy``
    (required here), the per-node rates and ``parallel_downloads``.
    ``max_time`` is the simulation horizon (default ``50 * (k + n)``); an
    unfinished run returns ``completion_time=None``, and the kernel's
    ``max_ticks`` is derived from it. Every other keyword is a kernel run option (see
    :class:`~repro.sim.kernel.TickKernel`): ``rng``, ``faults`` (every
    axis, including node crash/rejoin; loss and link outages are judged
    at the tick of the window a transfer ends in, and a server outage
    window benches the server at transfer start), workloads, adversaries,
    bandwidth classes and telemetry. ``keep_log`` defaults to False:
    float transfer times are the result surface here, so the kernel's
    tick-quantised log is redundant.
    """

    def __init__(
        self,
        n: int,
        k: int,
        strategy: AsyncStrategy,
        upload_rates: Sequence[float] | None = None,
        download_rates: Sequence[float] | None = None,
        parallel_downloads: int = 1,
        *,
        max_time: float | None = None,
        **options,
    ) -> None:
        self.n, self.k = n, k
        self.strategy = strategy
        self.max_time = max_time if max_time is not None else 50.0 * (k + n)
        options.setdefault("keep_log", False)
        run = AsyncKernelRun(
            n,
            k,
            strategy=strategy,
            upload_rates=upload_rates,
            download_rates=download_rates,
            parallel_downloads=parallel_downloads,
            max_ticks=max(1, int(ceil(self.max_time - 1e-9))),
            **options,
        )
        self.policy, self.kernel = run.policy, run.kernel
        self.up = self.policy.up
        self.down = self.policy.down

    @property
    def masks(self) -> list[int]:
        """Live holdings (mutable test hook; the kernel's swarm state)."""
        return self.kernel.state.masks

    @property
    def now(self) -> float:
        return self.policy.now

    @property
    def transfers(self) -> list[AsyncTransfer]:
        return self.policy.transfers

    @property
    def failed(self) -> list[AsyncTransfer]:
        return self.policy.failed

    def run(
        self, progress: Callable[[int, int], None] | None = None
    ) -> AsyncRunResult:
        """Simulate until every client completes or ``max_time`` passes.

        ``progress`` (optional) is called as ``progress(t, deliveries)``
        once per unit-time window ``(t - 1, t]`` — the tick callback of
        the underlying kernel (with unit rates the windows *are* the
        ticks).
        """
        result = self.kernel.run(progress)
        policy = self.policy
        completions = dict(policy.float_completions)
        done = result.completion_time is not None
        return AsyncRunResult(
            n=self.n,
            k=self.k,
            completion_time=(
                max(completions.values()) if done and completions else
                (policy.now if done else None)
            ),
            client_completions=completions,
            transfers=policy.transfers,
            meta=dict(result.meta),
            failed_transfers=policy.failed,
        )


class AsyncKernelRun:
    """Registry surface for the asynchronous engine; see module docstring.

    ``strategy`` (an :class:`AsyncStrategy`, deciding each node's next
    upload) defaults to
    :class:`~repro.asynchronous.strategies.AsyncRandom` (the asynchronous
    analogue of the randomized cooperative algorithm), restricted to
    ``overlay`` when one is given. ``upload_rates``/``download_rates``
    are per-node rates in blocks per time unit (length ``n``, default 1.0
    everywhere), and a node accepts ``parallel_downloads`` simultaneous
    incoming transfers. Every other keyword is a kernel run option (see
    :class:`~repro.sim.kernel.TickKernel`); ``max_ticks`` bounds
    simulated time (one tick = one unit-time window) and defaults to
    ``50 * (k + n)``. Per-node capacity comes from the rates or from
    ``bandwidth`` classes, never from a ``model``.
    """

    def __init__(
        self,
        n: int,
        k: int,
        overlay: Graph | None = None,
        strategy: AsyncStrategy | None = None,
        *,
        upload_rates: Sequence[float] | None = None,
        download_rates: Sequence[float] | None = None,
        parallel_downloads: int = 1,
        **options,
    ) -> None:
        from .strategies import AsyncRandom

        if n < 2:
            raise ConfigError(f"need a server and at least one client, got n={n}")
        if k < 1:
            raise ConfigError(f"file must have at least one block, got k={k}")
        bandwidth = options.get("bandwidth")
        if (
            bandwidth is not None
            and not bandwidth.is_null
            and (upload_rates is not None or download_rates is not None)
        ):
            raise ConfigError(
                "bandwidth classes and explicit upload_rates/download_rates "
                "are two spellings of per-node capacity; pass one or the other"
            )
        model = options.get("model")
        if model is not None and model != BandwidthModel.symmetric():
            raise ConfigError(
                "the async engine takes per-node capacity from upload_rates/"
                "download_rates or bandwidth classes, not a BandwidthModel"
            )
        if options.get("max_ticks") is None:
            options["max_ticks"] = 50 * (k + n)
        self.n, self.k = n, k
        self.policy = policy = AsyncTickPolicy(
            strategy if strategy is not None else AsyncRandom(overlay),
            validate_rates(upload_rates, n, "upload"),
            validate_rates(download_rates, n, "download"),
            parallel_downloads,
        )
        # The async engine is cooperative: a ``credit=`` keyword collides
        # with this one and raises TypeError.
        self.kernel = kernel = TickKernel(n, k, policy, credit=None, **options)
        if kernel.bandwidth is not None:
            # Map the realized tier model onto the continuous-time rates:
            # a tier upload of u is u blocks per unit time, and an
            # unbounded download tier never bottlenecks a transfer.
            model = kernel.model
            policy.up = [float(model.upload_capacity(v)) for v in range(n)]
            policy.down = [
                float("inf") if model.download_capacity(v) is None
                else float(model.download_capacity(v))
                for v in range(n)
            ]

    def run(self, progress: Callable[[int, int], None] | None = None) -> RunResult:
        return self.kernel.run(progress)
