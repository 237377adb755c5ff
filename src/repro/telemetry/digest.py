"""Post-run digestion of a transfer log into telemetry metadata.

:func:`digest_run` is a pure function from a completed run — its
transfer log, per-client completion ticks and bandwidth model — to the
compact JSON-shaped dict exported as ``meta["telemetry"]``. Running it
after the tick loop (rather than hooking every attempt) costs the hot
paths nothing, draws zero RNG, and works identically on the loop and
array backends, because both produce the same byte-identical log.

The digest answers the queueing questions the heterogeneity experiment
asks:

* ``wait_hist`` — per-tier histograms of block inter-arrival gaps (the
  per-node wait between consecutive useful deliveries; the queueing
  "waiting time" of a client for its next block);
* ``throughput`` — per-tier windowed delivery rate (blocks/tick per
  node of the tier), zero-filled across idle windows;
* ``server_util`` — windowed server upload utilization against its
  capacity, plus the run-wide mean;
* ``completion`` — per-tier completion-time percentiles (exact, from
  the sorted per-tier completion ticks).

:func:`fold_digests` merges digests across campaign replicas: wait-time
histograms merge exactly; per-replica completion percentiles are
collected into lists so the caller can attach confidence intervals
(e.g. :func:`repro.analysis.stats.summarize`).
"""

from __future__ import annotations

from math import ceil

from ..core.model import SERVER
from .accumulators import Histogram, Stats
from .spec import TelemetrySpec

__all__ = ["digest_run", "fold_digests", "exact_percentile"]


def exact_percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending-sorted sequence."""
    if not sorted_values:
        return None
    rank = max(1, ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def _tier_of_fn(model, n: int):
    """Per-node tier labels; the uniform model maps every client to
    ``"default"``."""
    tier_name = getattr(model, "tier_name", None)
    if tier_name is None or not getattr(model, "tier_of", ()):
        return ["server" if v == SERVER else "default" for v in range(n)]
    return [tier_name(v) for v in range(n)]


def digest_run(
    spec: TelemetrySpec,
    *,
    n: int,
    k: int,
    model,
    log,
    completions: dict[int, int],
    ticks: int,
) -> dict[str, object]:
    """Digest one completed run; see module docstring for the shape."""
    ticks = max(ticks, log.last_tick, 1)
    tiers = _tier_of_fn(model, n)
    tier_names = sorted({tiers[v] for v in range(1, n)})
    tier_pop = {t: 0 for t in tier_names}
    for v in range(1, n):
        tier_pop[tiers[v]] += 1

    # One pass over the delivery stream: inter-arrival gaps per receiver,
    # per-tier delivery counts per window, server upload counts. Gaps
    # are tallied in plain dicts first — distinct gap values are few, so
    # bulk-adding them afterwards keeps the pass allocation-light even
    # on million-transfer logs (the telemetry arm of bench_overhead).
    last_arrival = [0] * n
    gap_counts = {t: {} for t in tier_names}  # tier -> gap -> samples
    thru_counts = {t: {} for t in tier_names}  # tier -> window -> blocks
    util_counts: dict[int, int] = {}
    width = spec.window
    for tr in log:
        dst = tr.dst
        tick = tr.tick
        tier = tiers[dst]
        gaps = gap_counts[tier]
        g = tick - last_arrival[dst]
        gaps[g] = gaps.get(g, 0) + 1
        last_arrival[dst] = tick
        w = (tick - 1) // width
        counts = thru_counts[tier]
        counts[w] = counts.get(w, 0) + 1
        if tr.src == SERVER:
            util_counts[w] = util_counts.get(w, 0) + 1

    wait = {}
    for t in tier_names:
        hist = Histogram(width=spec.wait_width, log2=spec.wait_log2)
        for g in sorted(gap_counts[t]):
            hist.add(g, gap_counts[t][g])
        wait[t] = hist

    n_windows = (ticks - 1) // width + 1
    server_cap = float(model.upload_capacity(SERVER)) * width
    throughput: dict[str, object] = {}
    for t in tier_names:
        pop = max(tier_pop[t], 1)
        series = [
            thru_counts[t].get(w, 0) / (width * pop) for w in range(n_windows)
        ]
        agg = Stats()
        for x in series:
            agg.add(x)
        throughput[t] = {"per_window": series, "stats": agg.to_json()}
    util_series = [util_counts.get(w, 0) / server_cap for w in range(n_windows)]
    util_agg = Stats()
    for x in util_series:
        util_agg.add(x)

    completion: dict[str, object] = {}
    by_tier: dict[str, list[int]] = {t: [] for t in tier_names}
    for node, tick in completions.items():
        by_tier[tiers[node]].append(tick)
    for t in tier_names:
        values = sorted(by_tier[t])
        entry: dict[str, object] = {
            "population": tier_pop[t],
            "completed": len(values),
        }
        if values:
            entry["mean"] = sum(values) / len(values)
            entry["max"] = values[-1]
            for p in spec.percentiles:
                entry[f"p{p:g}"] = exact_percentile(values, p)
        completion[t] = entry

    return {
        "window": width,
        "ticks": ticks,
        "tiers": {t: tier_pop[t] for t in tier_names},
        "wait_hist": {
            t: wait[t].to_json(spec.percentiles) for t in tier_names
        },
        "throughput": throughput,
        "server_util": {
            "per_window": util_series,
            "mean": util_agg.mean,
            "stats": util_agg.to_json(),
        },
        "completion": completion,
    }


def fold_digests(digests) -> dict[str, object]:
    """Fold telemetry digests across campaign replicas.

    Wait-time histograms merge exactly (same spec across replicas);
    throughput/server-util means and per-tier completion percentiles are
    collected into per-replica lists under ``samples`` so callers can
    summarize them with confidence intervals.
    """
    digests = [d for d in digests if d]
    if not digests:
        return {}
    merged_wait: dict[str, Histogram] = {}
    samples: dict[str, dict[str, list[float]]] = {}
    util_means: list[float] = []
    for d in digests:
        for tier, hist_json in d.get("wait_hist", {}).items():
            hist = Histogram.from_json(hist_json)
            if tier in merged_wait:
                merged_wait[tier].merge(hist)
            else:
                merged_wait[tier] = hist
        for tier, entry in d.get("completion", {}).items():
            bucket = samples.setdefault(tier, {})
            for key, value in entry.items():
                if key in ("population", "completed"):
                    continue
                if value is not None:
                    bucket.setdefault(key, []).append(float(value))
        util = d.get("server_util", {})
        if "mean" in util:
            util_means.append(float(util["mean"]))
    return {
        "replicas": len(digests),
        "wait_hist": {
            t: h.to_json((50.0, 90.0, 99.0)) for t, h in merged_wait.items()
        },
        "completion_samples": samples,
        "server_util_means": util_means,
    }
