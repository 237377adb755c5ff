"""Repeat the swarm benchmark over seeds; report spreads or compare commits.

Run-to-run spread of this checkout (the baseline recorded in README.md)::

    python3 swarmbench/spread.py --seeds 1-10 --out baseline.json

Compare a change against its parent: clone the parent commit into
another directory, then run from the change's checkout::

    python3 swarmbench/spread.py --seeds 1-10 --against ../parent

Runs alternate between the two checkouts, flipping which goes first on
every seed. For each workload and end-to-end metric it prints both
medians and quartiles, how many pairs the change won, and a verdict: a
``gain`` needs wins in at least 9 of 10 pairs and medians further apart
than the parent's interquartile range; a ``regression`` is a median worse
than the parent's by more than the metric's bound in ``BENCHMARK.json``.
Spreads wider than the bound make the metric ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bench(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark invocation in ``checkout``; returns its JSON result."""
    cmd = [
        sys.executable,
        os.path.join("swarmbench", "bench.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{checkout}: {workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(HERE, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in manifest["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=manifest["run_seconds"])
    parser.add_argument("--against", help="checkout of the parent commit to compare with")
    parser.add_argument("--out", help="write every run's metrics and the summary as JSON")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    metrics = manifest["end_to_end"]
    sides = {"change": HERE} | ({"parent": os.path.abspath(args.against)} if args.against else {})
    runs: dict[str, dict[str, list[dict]]] = {w: {s: [] for s in sides} for w in args.workloads}
    for workload in args.workloads:
        for i, seed in enumerate(seeds):
            order = list(sides) if i % 2 == 0 else list(reversed(sides))
            for side in order:
                runs[workload][side].append(bench(sides[side], workload, seed, args.seconds, 0))

    summary: dict[str, dict[str, dict]] = {}
    for workload in args.workloads:
        summary[workload] = {}
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            lower = spec["better"] == "lower"
            row: dict[str, object] = {}
            for side in sides:
                values = [r["metrics"][name]["value"] for r in runs[workload][side]]
                q1, median, q3 = quartiles(values)
                row[side] = {"values": values, "q1": q1, "median": median, "q3": q3,
                             "spread": (q3 - q1) / median if median else 0.0}
            line = (f"{workload:14} {name:16} median {row['change']['median']:.6g} "
                    f"q1 {row['change']['q1']:.6g} q3 {row['change']['q3']:.6g} "
                    f"spread {row['change']['spread']:.2%} (bound {bound:.0%})")
            if args.against:
                new, old = row["change"], row["parent"]
                wins = sum(
                    (a < b) if lower else (a > b)
                    for a, b in zip(new["values"], old["values"])
                )
                worse = (new["median"] - old["median"]) / old["median"]
                worse = worse if lower else -worse
                if old["spread"] > bound and not all(
                    (a < b) if lower else (a > b) for a in new["values"] for b in old["values"]
                ):
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regression"
                elif wins >= 0.9 * len(seeds) and abs(new["median"] - old["median"]) > old["q3"] - old["q1"]:
                    verdict = "gain"
                else:
                    verdict = "no change"
                row |= {"wins": wins, "pairs": len(seeds), "verdict": verdict}
                line += (f" | parent {old['median']:.6g} [{old['q1']:.6g}, {old['q3']:.6g}]"
                         f" wins {wins}/{len(seeds)} {verdict}")
            summary[workload][name] = row
            print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"seeds": seeds, "seconds": args.seconds, "summary": summary}, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
