"""The paper's warm-up strategies: pipeline, d-ary multicast, binomial tree.

Section 2.2 uses these to illustrate the model before deriving the optimal
binomial pipeline. Each builder returns an explicit
:class:`~repro.core.engine.Schedule`; completion times match the closed
forms in :mod:`repro.schedules.bounds` (asserted by the tests).
"""

from __future__ import annotations

from ..core.engine import Schedule
from ..core.errors import ConfigError
from ..core.model import SERVER
from ..overlays.trees import RootedTree, dary_tree
from .bounds import ceil_log2

__all__ = [
    "pipeline_schedule",
    "multicast_tree_schedule",
    "binomial_tree_schedule",
]


def _check_nk(n: int, k: int) -> None:
    if n < 2:
        raise ConfigError(f"need a server and at least one client, got n={n}")
    if k < 1:
        raise ConfigError(f"file must have at least one block, got k={k}")


def pipeline_schedule(n: int, k: int) -> Schedule:
    """Section 2.2.1: the server feeds client 1, which feeds client 2, ...

    Client ``i`` (1-based) receives block ``j`` (0-based) at tick
    ``j + i`` and forwards it at the next tick; the last client finishes
    at ``k + n - 2``.
    """
    _check_nk(n, k)
    schedule = Schedule(n, k, meta={"algorithm": "pipeline"})
    for j in range(k):
        schedule.add(j + 1, SERVER, 1, j)
        for i in range(1, n - 1):
            schedule.add(j + 1 + i, i, i + 1, j)
    return schedule


def multicast_tree_schedule(n: int, k: int, d: int) -> Schedule:
    """Section 2.2.2: blocks flow down a complete d-ary tree.

    Each node relays blocks in order to its children in order, one upload
    per tick, as early as causality allows (a greedy store-and-forward
    pipeline on the tree). For full trees the completion time is exactly
    ``d * (k + depth - 1)``.
    """
    _check_nk(n, k)
    tree = dary_tree(n, d)
    return tree_pipeline_schedule(tree, k, meta={"algorithm": "multicast-tree", "d": d})


def tree_pipeline_schedule(
    tree: RootedTree, k: int, meta: dict[str, object] | None = None
) -> Schedule:
    """Greedy pipelined dissemination of ``k`` blocks over any rooted tree.

    Every node sends block 0 to child 1, block 0 to child 2, ... then
    block 1 to child 1, and so on — each transfer at the earliest tick
    after both (a) the block arrived and (b) the sender's previous upload.
    """
    if k < 1:
        raise ConfigError(f"file must have at least one block, got k={k}")
    schedule = Schedule(tree.n, k, meta=meta)
    # arrival[v][j] = tick at which v holds block j (0 for the server).
    arrival = [[0] * k for _ in range(tree.n)]
    next_free = [0] * tree.n  # last tick each node uploaded at

    for v in tree.iter_bfs():
        for j in range(k):
            for child in tree.children[v]:
                tick = max(arrival[v][j], next_free[v]) + 1
                next_free[v] = tick
                schedule.add(tick, v, child, j)
                arrival[child][j] = tick
    return schedule


def binomial_tree_schedule(n: int, k: int) -> Schedule:
    """Section 2.2.3: broadcast one block at a time along binomial trees.

    Each round lasts ``ceil(log2 n)`` ticks and doubles the holder count
    of the current block every tick; rounds run back to back, for a total
    of ``k * ceil(log2 n)`` ticks. For ``n = 2^h`` the round's transfer
    pattern is a binomial tree — the paper's Figure 1 — with node ``v``
    receiving from ``v`` with its highest set bit cleared.
    """
    _check_nk(n, k)
    rounds = ceil_log2(n)
    schedule = Schedule(n, k, meta={"algorithm": "binomial-tree"})
    for j in range(k):
        offset = j * rounds
        holders = [SERVER]
        frontier = 1  # next node without the block
        for step in range(rounds):
            new_holders: list[int] = []
            for sender in holders:
                if frontier >= n:
                    break
                schedule.add(offset + step + 1, sender, frontier, j)
                new_holders.append(frontier)
                frontier += 1
            holders.extend(new_holders)
        if frontier < n:  # pragma: no cover - rounds always suffice
            raise ConfigError("binomial broadcast failed to cover all nodes")
    return schedule
