"""dynring benchmark: time one workload, or trace it layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0

``--trace 0`` times repeated passes of the workload's fixed body with no
instrumentation and reports the end-to-end metrics. ``--trace 1`` first
times untraced passes, then installs the span wrappers from
``tracing.py`` and runs traced passes; it reports the per-layer metrics
and the tracing overhead, and checks that the traced passes produced
exactly the same results and counts as the untraced ones. ``--smoke``
shrinks every workload to a tiny size.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every operation matched its known answer;
it is 2, with no JSON line, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# Seconds the reference computation is taken to last at nominal host speed.
REFERENCE_S = 0.2
UNTRACED_SHARE = 0.4  # of --seconds spent on untraced passes in a traced run
MIN_TRACED_PASSES = 2

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The program under test is missing or cannot be imported."""


def import_dynring() -> SimpleNamespace:
    """Import dynring afresh from this checkout's ``src`` directory."""
    if not (SRC / "dynring" / "__init__.py").is_file():
        raise SetupError(f"no dynring package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "dynring" or m.startswith("dynring.")]:
        del sys.modules[name]
    try:
        package = importlib.import_module("dynring")
        modules = {name: importlib.import_module(f"dynring.{name}")
                   for name in ("ring", "policies", "adversaries", "scheduler", "verifier",
                                "cli")}
    except ImportError as exc:
        raise SetupError(f"cannot import dynring: {exc}") from exc
    if SRC.resolve() not in Path(package.__file__).resolve().parents:
        raise SetupError(f"dynring was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**modules)


def reference_work() -> int:
    """A fixed computation in dynring's style, used to gauge host speed.

    Tuple building, rotations, sorting and small dicts, like the program's
    own inner loops. It must never change: its time is what turns host
    seconds into reference seconds.
    """
    rng = random.Random(7)
    total = 0
    for _ in range(5000):
        slots = tuple(tuple(sorted(rng.sample(range(20), rng.randrange(3)))) for _ in range(8))
        best = min(slots[s:] + slots[:s] for s in range(8))
        index = {i: s for i, s in enumerate(best)}
        total += len(index) + sum(len(s) for s in index.values())
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def run_passes(body, seconds: float, min_passes: int = 1, before=None, after=None):
    """Run the body until ``seconds`` have passed.

    ``before`` and ``after`` run around each pass, outside the timed part.
    The reference computation is timed before the first pass and after
    every pass. Returns the host seconds of each pass, the results, and
    each pass's speed factor: ``REFERENCE_S`` over the mean reference time
    on either side of the pass. Host seconds times the factor are
    reference seconds, which do not follow the host's changes of speed.
    """
    walls, results, refs = [], [], [time_reference()]
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        if before is not None:
            before()
            gc.collect()
        start = time.perf_counter()
        result = body()
        end = time.perf_counter()
        if after is not None:
            after()
        refs.append(time_reference())
        walls.append(end - start)
        results.append(result)
        if time.perf_counter() >= deadline and len(walls) >= min_passes:
            factors = [2 * REFERENCE_S / (a + b) for a, b in zip(refs, refs[1:])]
            return walls, results, factors


def tail(walls: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(walls)
    index = len(ordered) - 11
    if 2 * index < len(ordered) - 1:
        return (f"no percentile above the median has ten samples beyond it at "
                f"{len(ordered)} samples")
    pct = 100 * index / (len(ordered) - 1)
    return f"p{pct:.0f} {ordered[index]:.4f} s over {len(ordered)} samples"


def check_repeats(results, problems: list[str], label: str) -> None:
    first = results[0]
    for index, result in enumerate(results[1:], start=2):
        if result.digest != first.digest or result.counts != first.counts:
            problems.append(f"{label} pass {index} reported different results than pass 1")


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str):
    """One benchmark run; returns (metrics, attempted, failed, problems, lines)."""
    build, run_pass = WORKLOADS[workload]
    out_dir = OUT_DIR / f"{workload}-{seed}"
    state = SimpleNamespace()
    setup_times = []

    def set_up():
        start = time.perf_counter()
        state.dr = import_dynring()
        state.inputs = build(state.dr, seed, size)
        setup_times.append(time.perf_counter() - start)

    def body():
        return run_pass(state.dr, state.inputs, out_dir)

    # The first set-up may compile the program; it is not counted. After
    # it, set-up is timed once before every timed pass, so its median
    # samples the whole run like wall_s does.
    set_up()
    del setup_times[:]
    untraced_seconds = seconds * UNTRACED_SHARE if trace else seconds
    walls, results, factors = run_passes(body, untraced_seconds,
                                         before=None if trace else set_up)
    ref_walls = [w * f for w, f in zip(walls, factors)]
    problems: list[str] = []
    for result in results:
        problems.extend(result.problems)
    lines = [f"workload {workload} seed {seed} size {size}: {len(walls)} untraced passes, "
             f"{results[0].ops} operations per pass"]
    for key, value in sorted(results[0].counts.items()):
        lines.append(f"  result count {key} = {value}")

    if not trace:
        check_repeats(results, problems, "untraced")
        attempted, failed = sum(r.ops for r in results), sum(r.failed for r in results)
        metrics = {
            "wall_s": statistics.median(ref_walls),
            "ops_per_s": attempted / sum(ref_walls),
            "setup_s": statistics.median(s * f for s, f in zip(setup_times, factors)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines.append(f"  host seconds: wall {statistics.median(walls):.4f} s, "
                     f"{attempted / sum(walls):.4g} ops per s, set-up "
                     f"{statistics.median(setup_times):.4f} s; speed factor median "
                     f"{statistics.median(factors):.4f}")
        lines.append(f"  wall_s tail: {tail(ref_walls)}")
        lines.append("  pass host times: " + " ".join(f"{w:.3f}" for w in walls))
        lines.append("  pass factors: " + " ".join(f"{f:.3f}" for f in factors))
        lines.append(f"  ops_failed_ratio {failed / attempted:.6g} ratio "
                     f"({failed} failed of {attempted} attempted)")
        units = END_TO_END
    else:
        dr = state.dr
        policies = list(dr.policies.POLICIES.values()) + list(state.inputs.get("tables", ()))
        tracer = Tracer()
        tracer.install(dr, policies, dr.adversaries.ADVERSARIES.values())
        layer_runs = []
        try:
            traced_walls, traced_results, traced_factors = run_passes(
                body, seconds * (1 - UNTRACED_SHARE), MIN_TRACED_PASSES,
                before=tracer.reset, after=lambda: layer_runs.append(tracer.summarize()))
            tracer.write(out_dir.with_name(out_dir.name + "-spans.csv.gz"))
        finally:
            tracer.uninstall()
        for result in traced_results:
            problems.extend(result.problems)
        check_repeats(results + traced_results, problems, "traced")
        metrics = layer_metrics(layer_runs, traced_factors, traced_results[0], problems)
        metrics["trace.wall_s"] = statistics.median(
            w * f for w, f in zip(traced_walls, traced_factors))
        metrics["trace.untraced_wall_s"] = statistics.median(ref_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        lines.append(f"  {len(traced_walls)} traced passes; spans of the last written to "
                     f"{out_dir.name}-spans.csv.gz")
        lines.append(f"  verifier.memo_hit_ratio base: {metrics['verifier.memo_lookups']} "
                     f"lookups; adversaries.choose_repeat_ratio base: "
                     f"{metrics['adversaries.chooses']} chooses")
        results = results + traced_results
        attempted, failed = sum(r.ops for r in results), sum(r.failed for r in results)
        units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
    return {name: (metrics[name], unit) for name, unit in units.items()}, \
        attempted, failed, problems, lines


def layer_metrics(layer_runs: list[dict], factors: list[float], result,
                  problems: list[str]) -> dict:
    """Median self reference seconds over traced passes; counts, which must
    repeat exactly."""
    metrics = {}
    for name, value in layer_runs[0].items():
        if LAYER_METRICS[name][0] == "s":
            metrics[name] = statistics.median(
                run[name] * f for run, f in zip(layer_runs, factors))
            continue
        values = {run[name] for run in layer_runs}
        if len(values) != 1:
            problems.append(f"count {name} differs between traced passes: {values}")
        metrics[name] = value
    metrics["cli.trace_bytes"] = result.counts["cli.trace_bytes"]
    # Counts the program reports itself must equal the counts the wrappers saw.
    for name, value in result.counts.items():
        if metrics[name] != value:
            problems.append(f"traced {name} = {metrics[name]} but the results say {value}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run the workload at tiny sizes")
    args = parser.parse_args(argv)
    try:
        metrics, attempted, failed, problems, lines = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            "smoke" if args.smoke else "full")
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for problem in problems[:20]:
        print(f"  problem: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
