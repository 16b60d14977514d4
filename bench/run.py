"""Benchmark tropigraph on one workload and print one JSON result line.

    python3 bench/run.py --workload verify-reps|cover-corpus|class-sweep
                         [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from the sources in ``src/`` next
to this directory, never from an installed copy.  The untraced run
(``--trace 0``) reports the end-to-end metrics, the traced run (``--trace 1``)
the per-layer metrics and its own overhead.  Both check every output against
independent computations and exit 1 if one disagrees.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from collections.abc import Callable
from pathlib import Path
from time import perf_counter

from checks import CheckError
from spans import NullTracer, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
}

# Per-layer metrics that are the summed duration of one span name, per round.
SPAN_METRICS = (
    "tropical.trop_dot",
    "graphs.parse_graph6",
    "representations.from_json",
    "verify.verify_valid",
    "verify.verify_corrupt",
    "verify.realize",
    "verify.slices",
    "verify.rho",
    "threshold.theta",
    "threshold.theta_hat",
    "threshold.theta_bounds",
    "graphs.alpha",
    "graphs.complement",
    "threshold.is_threshold",
    "threshold.validate_cover",
    "representations.from_cover",
    "verify.witness_verify",
    "verify.enumerate",
    "verify.check_conjecture",
)
LAYERS = ("tropical", "graphs", "threshold", "representations", "verify", "cli")

PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    "cli.overhead_s": "s",
    "threshold.theta_max_s": "s",
    "threshold.decisions": "count",
    "threshold.decision_yield": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def load_package():
    """Import tropigraph afresh, so that every set-up pays the import."""
    for name in [m for m in sys.modules if m == "tropigraph" or m.startswith("tropigraph.")]:
        del sys.modules[name]
    tg = importlib.import_module("tropigraph")
    cli = importlib.import_module("tropigraph.cli")
    if Path(tg.__file__).resolve().parent != SRC / "tropigraph":
        raise ImportError(f"tropigraph imported from {tg.__file__}, not from {SRC}")
    return tg, cli


def set_up(name: str, seed: int, workdir: Path, **sizes):
    """Import the package and build the workload's inputs once; return the workload and the time taken."""
    gc.collect()
    start = perf_counter()
    tg, cli = load_package()
    workload = WORKLOADS[name](tg, cli, seed, workdir, **sizes)
    return workload, perf_counter() - start


def setup(name: str, seed: int, workdir: Path, **sizes):
    """Set up SETUPS times; the last set-up is the one measured."""
    times = []
    for _ in range(SETUPS):
        workload, elapsed = set_up(name, seed, workdir, **sizes)
        times.append(elapsed)
    return workload, times


def best_of(per_round) -> list[float]:
    """Each operation's fastest time among the rounds; every round lists the same operations."""
    return [min(times) for times in zip(*per_round, strict=True)]


def measure(workload, setup_times: list[float], seconds: float, trace: bool, span_path: Path | None = None,
            resetup: Callable[[], float] | None = None) -> dict:
    """Run whole rounds until `seconds` of rounds are measured; check them; return the result.

    `resetup`, if given, sets up once more and returns the time taken; it is
    called after each round, outside the round's timing, and its times join
    `setup_times`, so that the median of setup_s samples the host over the
    whole run and not over its first seconds only.
    """
    tracer = Tracer() if trace else NullTracer()
    counts: Counter = Counter()
    first = None
    reference = None

    def checked(r):
        """Check the first round in full; later rounds must repeat its outputs exactly."""
        nonlocal first
        digest = hashlib.sha256(json.dumps(workload.summary(r.outputs)).encode()).hexdigest()
        if first is None:
            workload.check(r.outputs)
            first = digest
        elif digest != first:
            raise CheckError("a round's outputs differ from the first round's")

    if trace:
        start = perf_counter()
        r = workload.run_round(NullTracer())
        reference = perf_counter() - start
        checked(r)
    rounds = []
    peak_rss_mb = None
    while not rounds or sum(r.wall for r in rounds) < seconds:
        gc.collect()
        with tracer.span("bench.round"):
            start = perf_counter()
            r = workload.run_round(tracer)
            r.wall = perf_counter() - start
            if trace:
                with tracer.span("bench.attribution"):
                    workload.attribute(tracer, r.outputs, counts)
        if peak_rss_mb is None:
            # Read before the first check, so the checks' own memory is left out.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked(r)
        r.outputs = None
        rounds.append(r)
        if resetup is not None:
            setup_times.append(resetup())

    result = {
        "correct": True,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if not trace:
        values = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "round_s": sum(best_of(r.latencies for r in rounds)),
        }
        units = END_TO_END
    else:
        k = len(rounds)
        walls = statistics.median(r.wall for r in rounds)
        selfs = tracer.self_times()
        theta_times = tracer.durations("threshold.theta") + tracer.durations("threshold.theta_hat")
        values = {
            **{f"{name}_s": tracer.total(name) / k for name in SPAN_METRICS},
            "cli.overhead_s": (tracer.total("cli.main") - tracer.total("bench.cli_direct")) / k,
            "threshold.theta_max_s": max(theta_times, default=0.0),
            "threshold.decisions": counts["decisions"] / k,
            "threshold.decision_yield": counts["solves"] / counts["decisions"] if counts["decisions"] else 0.0,
            **{f"{layer}.self_s": selfs.get(layer, 0.0) / k for layer in LAYERS},
            "trace.overhead_s": walls - reference,
            "trace.overhead_pct": 100 * (walls - reference) / reference,
        }
        units = PER_LAYER
        if span_path is not None:
            tracer.write(span_path)
    result["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropigraph" / "__init__.py").is_file():
        print(f"error: no tropigraph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload, setup_times = setup(args.workload, args.seed, workdir)
        span_path = OUT / f"spans-{args.workload}-seed{args.seed}.json" if args.trace else None
        # The rounds keep using `workload`; a later set-up rewrites its input files with the same contents.
        resetup = None if args.trace else lambda: set_up(args.workload, args.seed, workdir)[1]
        try:
            result = measure(workload, setup_times, args.seconds, bool(args.trace), span_path, resetup)
        except CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 0, "failed": 0, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
