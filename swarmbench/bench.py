"""Swarm benchmark: one workload per invocation, measured end to end.

Run from the root of a checkout of the repository::

    python3 swarmbench/bench.py --workload paper-n1000 --seed 1 --seconds 30 --trace 0
    python3 swarmbench/bench.py --seed 1            # every workload, one child process each

The benchmark imports the program from the checkout's ``src/`` (and
refuses to run without it), derives all inputs from ``--seed``, times
the workload's set-up several times, then runs closed-loop iterations
of the workload for about ``--seconds`` seconds, checking every output.
It prints ``workload metric value unit`` lines and, last, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``. The exit code is non-zero if
any check failed.

``--trace 1`` first runs one untraced iteration, then traced ones: the
layers' entry points are wrapped (see ``layers.py``), spans go to
``.swarmbench/trace/<workload>-seed<seed>/spans.jsonl`` and every
per-layer figure to ``layers.json`` beside it.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".swarmbench")
#: Set-up repetitions; ``setup_s`` is their median.
SETUP_REPS = 5


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src/`` or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"swarmbench: no program source at {SRC}; run from a repository checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"swarmbench: imported repro from {repro.__file__}, not from {SRC}")


def import_seconds(modules: tuple[str, ...]) -> float:
    """Import time of ``modules`` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import "
        + ", ".join(modules)
        + "; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.split()[-1])


def setup_seconds(workload) -> float:
    """Median over repetitions of import + input generation + construction."""
    from workloads import Record

    samples = []
    for _ in range(SETUP_REPS):
        imported = import_seconds(workload.modules)
        start = time.perf_counter()
        state = workload.prepare(0)
        built = time.perf_counter() - start
        workload.finish(state, Record(), traced=False)
        samples.append(imported + built)
    return statistics.median(samples)


def run_iteration(workload, iteration: int, tracer, traced: bool):
    """Prepare, time and finish one iteration; returns its record."""
    from layers import layer_targets
    from workloads import Record

    rec = Record()
    tracer.run = iteration
    with tracer.patched(layer_targets() if traced else ()):
        state = workload.prepare(iteration)
        measured = False
        try:
            with tracer.span("iteration"):
                start = time.perf_counter()
                workload.measure(state, rec)
                rec.wall_s = time.perf_counter() - start
            measured = True
        finally:
            workload.finish(state, rec, traced and measured)
    return rec


def measure(workload, seconds: float, trace: bool, tracer, checks):
    """Closed-loop iterations for about ``seconds``; returns the untraced
    and traced records. A traced run starts with one untraced iteration
    (the overhead baseline), then repeats its inputs traced."""
    plain, traced = [], []
    if trace:
        schedule = itertools.chain([(0, False)], ((i, True) for i in itertools.count()))
    else:
        schedule = ((i, False) for i in itertools.count())
    start = time.perf_counter()
    for iteration, is_traced in schedule:
        # The previous iteration's garbage goes before this one allocates,
        # so peak memory does not depend on how many iterations fit.
        gc.collect()
        began = time.perf_counter()
        try:
            rec = run_iteration(workload, iteration, tracer, is_traced)
        except Exception:  # noqa: BLE001 - reported and counted as a failure
            traceback.print_exc()
            checks.attempted += 1
            checks.failed += 1
            break
        (traced if is_traced else plain).append(rec)
        if checks.failed:
            break
        if trace and not traced:
            continue
        # Start another iteration only if it should end in time.
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    return plain, traced


def end_to_end(records, setup_s: float) -> dict[str, tuple[float, str]]:
    def median(values):
        return statistics.median(values) if values else 0.0

    return {
        "wall_s": (median([r.wall_s for r in records]), "s"),
        "setup_s": (setup_s, "s"),
        "us_per_transfer": (
            median([r.sim_s / r.transfers * 1e6 for r in records if r.transfers]),
            "us",
        ),
        "runs_per_s": (median([r.runs / r.sim_s for r in records if r.sim_s]), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain, traced, out_dir: str) -> dict[str, tuple[float, str]]:
    from layers import layer_metrics

    counts: Counter = Counter()
    details: dict[str, tuple[list[float], str]] = {}
    for rec in traced:
        counts += rec.counts
        for name, (value, unit) in rec.details.items():
            details.setdefault(name, ([], unit))[0].append(value)
    metrics = layer_metrics(
        tracer, counts, details, sum(r.wall_s for r in traced), len(traced)
    )
    base = plain[0].wall_s if plain else 0.0
    metrics["trace_overhead_frac"] = (
        traced[0].wall_s / base - 1.0 if traced and base else 0.0,
        "fraction",
    )
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, "spans.jsonl"))
    with open(os.path.join(out_dir, "layers.json"), "w", encoding="utf-8") as handle:
        json.dump({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, handle, indent=2)
        handle.write("\n")
    return metrics


def run_workload(args, manifest: dict) -> int:
    from layers import Tracer
    from workloads import WORKLOADS, Checks

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    tracer = Tracer(enabled=bool(args.trace))
    checks = Checks()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke, tracer, checks, tmp)
        setup_s = setup_seconds(workload)
        plain, traced = measure(workload, args.seconds, bool(args.trace), tracer, checks)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        out_dir = os.path.join(OUT, "trace", f"{args.workload}-seed{args.seed}")
        metrics = per_layer(tracer, plain, traced, out_dir)
        wanted = manifest["per_layer"]
    else:
        metrics = end_to_end(plain, setup_s)
        wanted = manifest["end_to_end"]

    error_frac = checks.failed / checks.attempted
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} error_frac {error_frac:.6g} fraction")
    print(f"{args.workload} iterations {len(plain) + len(traced)} count")
    result = {}
    for spec in wanted:
        value, unit = metrics[spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']} measured in {unit}, BENCHMARK.json says {spec['unit']}")
        result[spec["name"]] = {"value": value, "unit": unit}
    correct = checks.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": result,
            }
        )
    )
    return 0 if correct else 1


def run_all(args, names: list[str]) -> int:
    """Every workload in its own child process, one after another."""
    status = 0
    for name in names:
        cmd = [
            sys.executable,
            os.path.abspath(__file__),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        status |= subprocess.run(cmd, cwd=ROOT, check=False).returncode
    return 1 if status else 0


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        manifest = json.load(handle)
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*names, "all"), default="all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny sizes for tests; every check still runs",
    )
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.workload == "all":
        return run_all(args, names)
    return run_workload(args, manifest)


if __name__ == "__main__":
    sys.exit(main())
