#!/usr/bin/env python3
"""Scenario: a flash crowd hits a fresh release — with churn.

The paper analyses a static swarm; real swarms churn. This example
stresses the randomized algorithm with the two classic churn patterns:

* a **flash crowd**: most clients arrive in a burst shortly after the
  release, then stragglers trickle in;
* **early leavers**: a fraction of clients departs as soon as it
  finishes, taking its upload capacity (and its block copies) away.

It reports the completion time and the per-client completion spread, and
shows the swarm absorbing both patterns with modest slowdown — the
self-scaling property that motivates swarm-style distribution.

Run:  python examples/flash_crowd.py [--clients 80] [--blocks 64]
"""

from __future__ import annotations

import argparse
import random

from repro.randomized import randomized_cooperative_run
from repro.schedules import cooperative_lower_bound
from repro.workloads import WorkloadSpec


def churned(n: int, k: int, seed: int, arrivals=None, departures=None):
    """A cooperative run with per-client arrival and departure tables."""
    tables = WorkloadSpec(
        arrivals=tuple((arrivals or {}).items()),
        departures=tuple((departures or {}).items()),
    )
    return randomized_cooperative_run(n, k, rng=seed, workload=tables)


def spread(completions: dict[int, int]) -> str:
    ticks = sorted(completions.values())
    if not ticks:
        return "n/a"
    mid = ticks[len(ticks) // 2]
    return f"first {ticks[0]}, median {mid}, last {ticks[-1]}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=80)
    parser.add_argument("--blocks", type=int, default=64)
    parser.add_argument("--seed", type=int, default=13)
    args = parser.parse_args()
    n, k = args.clients + 1, args.blocks
    rng = random.Random(args.seed)

    print(f"{args.clients} clients, {k}-block release, "
          f"optimum for a static swarm: {cooperative_lower_bound(n, k)} ticks\n")

    baseline = randomized_cooperative_run(n, k, rng=args.seed, keep_log=False)
    print(f"static swarm:        T = {baseline.completion_time}")

    # Flash crowd: 10% of clients present at release; the rest arrive in a
    # burst over the first k/2 ticks, stragglers over the next k.
    arrivals: dict[int, int] = {}
    clients = list(range(1, n))
    rng.shuffle(clients)
    core = max(1, len(clients) // 10)
    for i, c in enumerate(clients[core:]):
        if i < len(clients) * 6 // 10:
            arrivals[c] = 1 + rng.randrange(1, max(2, k // 2))
        else:
            arrivals[c] = 1 + rng.randrange(max(2, k // 2), max(3, 3 * k // 2))
    crowd = churned(n, k, args.seed, arrivals=arrivals)
    print(f"flash crowd:         T = {crowd.completion_time}  "
          f"({spread(crowd.client_completions)})")

    # Early leavers: a third of the swarm departs mid-distribution.
    leavers = clients[: len(clients) // 3]
    departures = {c: 2 + rng.randrange(k) for c in leavers}
    drained = churned(n, k, args.seed, departures=departures)
    survivors = set(drained.client_completions) - set(drained.meta["departed_at"])
    print(f"early leavers (1/3): T = {drained.completion_time}  "
          f"({len(survivors)} survivors completed)")

    both = churned(
        n,
        k,
        args.seed,
        arrivals=arrivals,
        departures={c: arrivals.get(c, 1) + k // 2 for c in leavers},
    )
    print(f"crowd + leavers:     T = {both.completion_time}")

    print(
        "\nTakeaway: the randomized swarm needs no repair protocol — "
        "arrivals bootstrap off whoever is present and departures only "
        "cost their upload capacity."
    )


if __name__ == "__main__":
    main()
