"""Extension experiments: the paper's Section 2.3.4 / Section 4 side
claims, quantified.

* :func:`extension_multiserver` — higher server bandwidths: grouped
  binomial pipelines are optimal, and extra server bandwidth only buys
  back the logarithmic term.
* :func:`extension_asynchrony` — the hypercube algorithm run without a
  global clock (each node phases its links at its own pace) vs the
  randomized algorithm, under increasing bandwidth heterogeneity.
* :func:`extension_bittorrent` — a tit-for-tat BitTorrent within the same
  model; the paper's ongoing work reports it ">30% worse than optimal"
  even well-tuned.
* :func:`extension_freerider` — never-uploading clients under each
  mechanism: credit-limited barter starves them (the incentive works),
  BitTorrent's optimistic unchokes feed them (the paper's critique).
* :func:`extension_embedding` — optimizing the hypercube for the
  physical network (the Apocrypha-style embedding the paper cites).
"""

from __future__ import annotations

import random

from ..adversary.plan import AdversaryPlan
from ..analysis.sweeps import derive_seed
from ..asynchronous import AsyncEngine, AsyncHypercube, AsyncRandom
from ..core.engine import execute_schedule
from ..core.model import BandwidthModel
from ..overlays.embedding import (
    PhysicalNetwork,
    embedding_cost,
    optimize_embedding,
)
from ..overlays.hypercube import HypercubeLayout
from ..overlays.random_regular import random_regular_graph
from ..randomized.barter import randomized_barter_run
from ..randomized.bittorrent import bittorrent_run
from ..randomized.cooperative import randomized_cooperative_run
from ..schedules.bounds import cooperative_lower_bound
from ..schedules.multiserver import multi_server_schedule, multi_server_time
from ..workloads import WorkloadSpec
from .figures import FigureResult
from .scale import Scale, resolve_scale

__all__ = [
    "extension_multiserver",
    "extension_asynchrony",
    "extension_bittorrent",
    "extension_freerider",
    "extension_embedding",
    "extension_churn",
    "extension_triangular",
    "extension_coding",
    "extension_incentives",
]


def extension_multiserver(scale: str | Scale | None = None) -> FigureResult:
    """Completion time vs server bandwidth multiplier (Section 2.3.4)."""
    s = resolve_scale(scale)
    n = max(s.table_ns)
    k = max(s.table_ks)
    rows: list[dict[str, object]] = []
    series: dict[str, list[tuple[float, float]]] = {"grouped pipelines": []}
    for m in (1, 2, 4, 8):
        schedule = multi_server_schedule(n, k, m)
        model = BandwidthModel(server_upload=m)
        result = execute_schedule(schedule, model)
        predicted = multi_server_time(n, k, m)
        assert result.completion_time == predicted, (m, result.completion_time, predicted)
        rows.append(
            {
                "n": n,
                "k": k,
                "server m": m,
                "T": result.completion_time,
                "predicted": predicted,
                "single-server opt": cooperative_lower_bound(n, k),
            }
        )
        series["grouped pipelines"].append((float(m), float(result.completion_time)))
    return FigureResult(
        name="Extension: multi-server",
        title=f"Higher server bandwidths (n={n}, k={k})",
        scale=s.name,
        columns=("n", "k", "server m", "T", "predicted", "single-server opt"),
        rows=rows,
        series=series,
        x_label="server bandwidth multiple m",
        notes=[
            "paper Sec 2.3.4: splitting clients into m groups with m virtual "
            "servers is optimal; the k term is untouched — only the log "
            "term shrinks",
        ],
    )


def extension_asynchrony(
    scale: str | Scale | None = None, base_seed: int = 31
) -> FigureResult:
    """Async hypercube vs async randomized under rate heterogeneity."""
    s = resolve_scale(scale)
    n = max(x for x in s.table_ns if x & (x - 1) == 0)  # a power of two
    k = max(s.table_ks)
    lb = cooperative_lower_bound(n, k)
    rows: list[dict[str, object]] = []
    for spread in (0.0, 0.15, 0.4):
        for name, strategy_factory in (
            ("hypercube round-robin", lambda: AsyncHypercube(n)),
            ("randomized", AsyncRandom),
        ):
            times = []
            for i in range(s.replicates):
                rng = random.Random(derive_seed(base_seed, (spread, name), i))
                rates = [1.0] + [
                    rng.uniform(1 - spread, 1 + spread) for _ in range(n - 1)
                ]
                engine = AsyncEngine(
                    n,
                    k,
                    strategy_factory(),
                    upload_rates=rates,
                    download_rates=rates,
                    rng=rng,
                )
                result = engine.run()
                if result.completed:
                    times.append(result.completion_time)
            mean_t = sum(times) / len(times) if times else None
            rows.append(
                {
                    "strategy": name,
                    "rate spread": f"±{spread:.0%}",
                    "mean T": mean_t,
                    "T/opt": mean_t / lb if mean_t else None,
                }
            )
    return FigureResult(
        name="Extension: asynchrony",
        title=f"Event-driven runs without a global clock (n={n}, k={k}, opt={lb})",
        scale=s.name,
        columns=("strategy", "rate spread", "mean T", "T/opt"),
        rows=rows,
        series={},
        notes=[
            "paper Sec 2.3.4: the hypercube algorithm run with each node "
            "pacing its own links stays exactly optimal when rates are "
            "homogeneous; heterogeneity erodes its phase structure, while "
            "the randomized strategy degrades gracefully",
        ],
    )


def extension_bittorrent(
    scale: str | Scale | None = None, base_seed: int = 32
) -> FigureResult:
    """BitTorrent tit-for-tat vs the paper's randomized algorithm vs optimal."""
    s = resolve_scale(scale)
    n, k = s.fig67_n, s.fig67_k
    degree = min(40, n - 2)
    if (n * degree) % 2:
        degree -= 1
    lb = cooperative_lower_bound(n, k)
    rows: list[dict[str, object]] = []

    configs: list[tuple[str, dict[str, object]]] = [
        ("BT slots=4 period=10", {"unchoke_slots": 4, "rechoke_period": 10}),
        ("BT slots=8 period=10", {"unchoke_slots": 8, "rechoke_period": 10}),
        ("BT slots=4 period=5", {"unchoke_slots": 4, "rechoke_period": 5}),
        ("BT slots=12 period=4", {"unchoke_slots": 12, "rechoke_period": 4}),
    ]
    for name, kwargs in configs:
        times = []
        timeouts = 0
        for i in range(s.replicates):
            seed = derive_seed(base_seed, name, i)
            graph = random_regular_graph(n, degree, rng=seed)
            result = bittorrent_run(
                n, k, overlay=graph, rng=seed + 1, keep_log=False, **kwargs
            )
            if result.completed:
                times.append(float(result.completion_time))
            else:
                timeouts += 1
        mean_t = sum(times) / len(times) if times else None
        rows.append(
            {
                "algorithm": name,
                "mean T": mean_t,
                "T/opt": mean_t / lb if mean_t else None,
                "timeouts": timeouts,
            }
        )

    times = []
    for i in range(s.replicates):
        seed = derive_seed(base_seed, "randomized", i)
        graph = random_regular_graph(n, degree, rng=seed)
        result = randomized_cooperative_run(
            n, k, overlay=graph, rng=seed + 1, keep_log=False
        )
        if result.completed:
            times.append(float(result.completion_time))
    mean_t = sum(times) / len(times) if times else None
    rows.append(
        {
            "algorithm": "randomized (paper)",
            "mean T": mean_t,
            "T/opt": mean_t / lb if mean_t else None,
            "timeouts": 0,
        }
    )
    rows.append({"algorithm": "optimal (Thm 1)", "mean T": lb, "T/opt": 1.0, "timeouts": 0})
    return FigureResult(
        name="Extension: BitTorrent",
        title=f"Tit-for-tat BitTorrent vs randomized vs optimal (n={n}, k={k}, deg={degree})",
        scale=s.name,
        columns=("algorithm", "mean T", "T/opt", "timeouts"),
        rows=rows,
        series={},
        notes=[
            "paper Sec 4 (ongoing work): 'even with perfect tuning of "
            "protocol parameters, the completion time with BitTorrent is "
            "more than 30% worse than the optimal'",
        ],
    )


def extension_freerider(
    scale: str | Scale | None = None, base_seed: int = 33
) -> FigureResult:
    """What a never-uploading client obtains under each mechanism."""
    s = resolve_scale(scale)
    n, k = s.fig67_n, s.fig67_k
    degree = s.fig67_degrees[-1]
    riders = max(1, (n - 1) // 20)
    plan = AdversaryPlan(free_riders=range(1, riders + 1))
    rows: list[dict[str, object]] = []

    def run_case(name: str, runner) -> None:
        got = []
        compliant_done = 0
        for i in range(s.replicates):
            seed = derive_seed(base_seed, name, i)
            result = runner(seed)
            holdings = result.meta["final_holdings"]
            got.extend(holdings[v] for v in plan.free_riders)
            compliant = [c for c in range(1, n) if c not in plan.free_riders]
            compliant_done += sum(
                1 for c in compliant if holdings[c] == k
            ) / len(compliant)
        rows.append(
            {
                "mechanism": name,
                "free-riders": riders,
                "mean blocks obtained": sum(got) / len(got),
                "of k": k,
                "compliant completion": compliant_done / s.replicates,
            }
        )

    def coop(seed):
        from ..randomized.engine import RandomizedEngine

        graph = random_regular_graph(n, degree, rng=seed)
        return RandomizedEngine(
            n, k, overlay=graph, rng=seed + 1, adversary=plan, keep_log=False
        ).run()

    def credit(limit):
        def runner(seed):
            from ..core.mechanisms import CreditLimitedBarter
            from ..randomized.engine import RandomizedEngine

            graph = random_regular_graph(n, degree, rng=seed)
            return RandomizedEngine(
                n,
                k,
                overlay=graph,
                mechanism=CreditLimitedBarter(limit),
                rng=seed + 1,
                adversary=plan,
                max_ticks=s.fig67_max_ticks,
                keep_log=False,
            ).run()

        return runner

    def bt(seed):
        graph = random_regular_graph(n, degree, rng=seed)
        return bittorrent_run(
            n, k, overlay=graph, rng=seed + 1, adversary=plan, keep_log=False
        )

    run_case("cooperative", coop)
    run_case("credit-limited s=1", credit(1))
    run_case("credit-limited s=3", credit(3))
    run_case("bittorrent tit-for-tat", bt)

    return FigureResult(
        name="Extension: free-riders",
        title=f"Never-uploading clients under each mechanism (n={n}, k={k}, deg={degree})",
        scale=s.name,
        columns=(
            "mechanism",
            "free-riders",
            "mean blocks obtained",
            "of k",
            "compliant completion",
        ),
        rows=rows,
        series={},
        notes=[
            "paper Sec 3.2.1: with per-pair credit s and degree d, a "
            "free-rider can leech at most ~s*d blocks — the mechanism "
            "starves it; Sec 4: BitTorrent's optimistic unchokes keep "
            "feeding it",
        ],
    )


def extension_churn(
    scale: str | Scale | None = None, base_seed: int = 35
) -> FigureResult:
    """Completion under arrivals/departures (robustness beyond the paper).

    Sweeps the fraction of clients that departs mid-run and, separately,
    the fraction arriving late, against the static baseline.
    """
    s = resolve_scale(scale)
    n, k = s.fig4_n, max(s.fit_ks)
    lb = cooperative_lower_bound(n, k)
    rows: list[dict[str, object]] = []

    def run_pattern(name: str, fraction: float, kind: str) -> None:
        times = []
        for i in range(s.replicates):
            seed = derive_seed(base_seed, (name, fraction), i)
            rng = random.Random(seed)
            clients = list(range(1, n))
            rng.shuffle(clients)
            affected = clients[: int(fraction * (n - 1))]
            first = 2 if kind == "departures" else 1
            table = tuple((c, first + rng.randrange(max(2, k))) for c in affected)
            result = randomized_cooperative_run(
                n, k, rng=seed + 1, keep_log=False,
                workload=WorkloadSpec(**{kind: table}),
            )
            if result.completed:
                times.append(float(result.completion_time))
        mean_t = sum(times) / len(times) if times else None
        rows.append(
            {
                "pattern": name,
                "fraction": f"{fraction:.0%}",
                "mean T": mean_t,
                "T/opt": mean_t / lb if mean_t else None,
            }
        )

    run_pattern("static", 0.0, "departures")
    for fraction in (0.2, 0.5):
        run_pattern("departures", fraction, "departures")
    for fraction in (0.2, 0.5):
        run_pattern("late arrivals", fraction, "arrivals")

    return FigureResult(
        name="Extension: churn",
        title=f"Randomized swarm under churn (n={n}, k={k}, opt={lb})",
        scale=s.name,
        columns=("pattern", "fraction", "mean T", "T/opt"),
        rows=rows,
        series={},
        notes=[
            "beyond the paper's static model: departures cost only their "
            "upload capacity; late arrivals bound completion by their own "
            "arrival + download time",
        ],
    )


def extension_triangular(
    scale: str | Scale | None = None, base_seed: int = 36
) -> FigureResult:
    """Randomized triangular barter on low-degree overlays (Section 3.3).

    The paper's closing future-work item: does cyclic barter help on
    low-degree overlays? Three modes at each degree: pairwise exchange
    plus a one-block credit line, the same plus 3-cycles, and the plain
    one-way credit-limited algorithm of Figure 6 as the baseline.
    """
    from ..randomized.triangular import randomized_triangular_run

    s = resolve_scale(scale)
    n, k = s.fig67_n, s.fig67_k
    rows: list[dict[str, object]] = []
    series: dict[str, list[tuple[float, float]]] = {}

    def run_mode(name: str, degree: int, seed: int):
        graph = random_regular_graph(n, degree, rng=seed)
        if name == "one-way credit (fig 6)":
            return randomized_barter_run(
                n,
                k,
                credit_limit=1,
                overlay=graph,
                rng=seed + 1,
                max_ticks=s.fig67_max_ticks,
                keep_log=False,
            )
        return randomized_triangular_run(
            n,
            k,
            overlay=graph,
            rng=seed + 1,
            max_ticks=s.fig67_max_ticks,
            keep_log=False,
            allow_triangles=(name == "cycles + credit"),
        )

    for name in ("exchange + credit", "cycles + credit", "one-way credit (fig 6)"):
        curve: list[tuple[float, float]] = []
        for degree in s.fig67_degrees:
            times = []
            timeouts = 0
            for i in range(s.replicates):
                seed = derive_seed(base_seed, (name, degree), i)
                result = run_mode(name, degree, seed)
                if result.completed:
                    times.append(float(result.completion_time))
                else:
                    timeouts += 1
            mean_t = sum(times) / len(times) if times else None
            rows.append(
                {
                    "mode": name,
                    "degree": degree,
                    "mean T": mean_t,
                    "timeouts": timeouts,
                }
            )
            if mean_t is not None:
                curve.append((float(degree), mean_t))
        series[name] = curve
    return FigureResult(
        name="Extension: triangular barter",
        title=f"Randomized cyclic barter vs pure exchange (n={n}, k={k})",
        scale=s.name,
        columns=("mode", "degree", "mean T", "timeouts"),
        rows=rows,
        series=series,
        x_label="overlay degree",
        notes=[
            "paper Sec 3.3 (future work) conjectured cyclic barter could "
            "help low-degree overlays; measured: it does not — adding "
            "triangles to exchange never moves the threshold, and both "
            "simultaneity-based modes need *denser* overlays than Figure "
            "6's one-way credit algorithm. Credit exhaustion and matching "
            "constraints bind, not pairwise-interest scarcity",
        ],
    )


def extension_incentives(
    scale: str | Scale | None = None, base_seed: int = 38
) -> FigureResult:
    """Is full uploading a best response? (paper Secs 3.1.1, 3.2.1, 4).

    One strategic client throttles its upload rate; the table shows its
    own completion and obtained blocks as the throttle grows, under the
    cooperative mechanism, credit-limited barter, and BitTorrent.
    """
    from ..core.mechanisms import CreditLimitedBarter
    from ..incentives import throttle_response

    s = resolve_scale(scale)
    n, k = s.fig67_n, s.fig67_k
    degree = s.fig67_degrees[-1]

    def overlay(seed: int):
        return random_regular_graph(n, degree, rng=seed)

    rows: list[dict[str, object]] = []
    cases = (
        ("cooperative", None, "randomized"),
        ("credit-limited s=1", lambda: CreditLimitedBarter(1), "randomized"),
        ("bittorrent", None, "bittorrent"),
    )
    for name, mech, engine in cases:
        curve = throttle_response(
            n,
            k,
            mech,
            overlay_factory=overlay,
            engine=engine,
            replicates=s.replicates,
            base_seed=base_seed,
            max_ticks=s.fig67_max_ticks,
        )
        for outcome in curve:
            rows.append(
                {
                    "mechanism": name,
                    "throttle": f"{outcome.throttle:.0%}",
                    "own finish": outcome.mean_completion
                    if outcome.mean_completion is not None
                    else "starved",
                    "blocks got": outcome.mean_blocks,
                    "of k": k,
                }
            )
    return FigureResult(
        name="Extension: incentives",
        title=f"One strategic client's payoff vs upload throttle (n={n}, k={k})",
        scale=s.name,
        columns=("mechanism", "throttle", "own finish", "blocks got", "of k"),
        rows=rows,
        series={},
        notes=[
            "Sec 3.1.1 measured: under credit-limited barter any throttling "
            "starves the throttler; Sec 4 measured: a BitTorrent free-rider "
            "still obtains the whole file (just later); plain cooperation "
            "punishes nothing",
        ],
    )


def extension_coding(
    scale: str | Scale | None = None, base_seed: int = 37
) -> FigureResult:
    """Network coding vs block-based dissemination (related work [13]).

    Random GF(2) combinations against the paper's Random and Rarest-First
    block policies, on low-degree overlays and the complete graph.
    """
    from ..coding import network_coding_run
    from ..randomized.policies import RarestFirstPolicy

    s = resolve_scale(scale)
    # The basis bookkeeping is O(k^2) per decision; a moderate swarm shows
    # the comparison without paper-scale cost.
    n, k = s.fig4_n, min(s.fit_ks)
    lb = cooperative_lower_bound(n, k)
    degrees: list[int | None] = [
        s.fig5_degrees[0],
        s.fig5_degrees[len(s.fig5_degrees) // 2],
        None,
    ]
    rows: list[dict[str, object]] = []

    def run_one(mode: str, overlay, seed: int):
        if mode == "coding GF(2)":
            return network_coding_run(n, k, overlay=overlay, rng=seed)
        if mode == "coding ideal":
            return network_coding_run(n, k, overlay=overlay, rng=seed, field="ideal")
        policy = RarestFirstPolicy() if mode == "block rarest-first" else None
        return randomized_cooperative_run(
            n, k, overlay=overlay, policy=policy, rng=seed, keep_log=False
        )

    for degree in degrees:
        label = "complete" if degree is None else degree
        for mode in ("block random", "block rarest-first", "coding GF(2)", "coding ideal"):
            times = []
            redundant = 0
            for i in range(s.replicates):
                seed = derive_seed(base_seed, (mode, label), i)
                overlay = (
                    None if degree is None else random_regular_graph(n, degree, rng=seed)
                )
                result = run_one(mode, overlay, seed + 1)
                if result.completed:
                    times.append(float(result.completion_time))
                redundant += int(result.meta.get("redundant_combinations", 0))
            mean_t = sum(times) / len(times) if times else None
            rows.append(
                {
                    "degree": label,
                    "mode": mode,
                    "mean T": mean_t,
                    "T/opt": mean_t / lb if mean_t else None,
                    "redundant": redundant // s.replicates
                    if mode.startswith("coding")
                    else "-",
                }
            )
    return FigureResult(
        name="Extension: network coding",
        title=f"GF(2) network coding vs block-based (n={n}, k={k}, opt={lb})",
        scale=s.name,
        columns=("degree", "mode", "mean T", "T/opt", "redundant"),
        rows=rows,
        series={},
        notes=[
            "related work [13]: ideal (large-field) coding matches the "
            "best block policy (rarest-first) with NO block-selection "
            "logic at all; plain GF(2) coding pays a ~30-50% redundant-"
            "combination tax that makes it worse than rarest-first — and "
            "in the paper's homogeneous static model the block-based "
            "algorithms are already near-optimal, so coding's remaining "
            "headroom is robustness and locality, not speed",
        ],
    )


def extension_embedding(
    scale: str | Scale | None = None, base_seed: int = 34
) -> FigureResult:
    """Hypercube embedding optimization for the physical network."""
    s = resolve_scale(scale)
    n = max(s.table_ns)
    rows: list[dict[str, object]] = []
    for topology, factory in (
        ("uniform", PhysicalNetwork.random_euclidean),
        ("clustered", lambda n, rng: PhysicalNetwork.clustered(n, rng=rng)),
    ):
        for i in range(s.replicates):
            seed = derive_seed(base_seed, topology, i)
            network = factory(n, seed)
            base_cost = embedding_cost(HypercubeLayout.assign(n), network)
            _, optimized = optimize_embedding(network, rng=seed + 1)
            rows.append(
                {
                    "topology": topology,
                    "replicate": i,
                    "base cost": base_cost,
                    "optimized": optimized,
                    "saved": 1 - optimized / base_cost,
                }
            )
    return FigureResult(
        name="Extension: embedding",
        title=f"Optimizing the hypercube for the physical network (n={n})",
        scale=s.name,
        columns=("topology", "replicate", "base cost", "optimized", "saved"),
        rows=rows,
        series={},
        notes=[
            "paper Sec 2.3.4: embedding techniques [Apocrypha] find the "
            "'best' hypercube for the nodes' physical locations; local "
            "search recovers a sizable fraction of random-placement cost",
        ],
    )
