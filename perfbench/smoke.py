"""The benchmark's own test: every workload at tiny sizes, in both modes.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that
- every run is correct and prints every metric of ``BENCHMARK.json`` by
  name with its unit, in the human lines and in the final JSON line;
- the counts read off the program's results are the same in the timed
  and the traced run (the traced run itself checks its wrapper counts
  against them and across its passes);
- a second seed leaves every verdict and the search state counts unchanged;
- without the program beside it, the benchmark fails without a result.

Exit code 0 means every check passed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SEEDS = (1, 2)
SECONDS = "0.5"


def bench_run(workload: str, seed: int, trace: int) -> tuple[list[str], dict, int]:
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                         "--trace", str(trace), "--smoke"])
    lines = printed.getvalue().splitlines()
    return lines[:-1], json.loads(lines[-1]), code


def result_counts(lines: list[str]) -> list[str]:
    return [line for line in lines if line.startswith("  result count ")]


def check_metrics(label: str, lines, result, declared, failures) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        failures.append(f"{label}: metrics {sorted(got.items())} != declared {sorted(want.items())}")
    for name, unit in want.items():
        if not any(line.startswith(f"  {name} ") and line.endswith(f" {unit}") for line in lines):
            failures.append(f"{label}: no human-readable line for {name} in {unit}")


def no_program_fails(failures) -> None:
    """Only BENCHMARK.json and the benchmark's files: must fail, print no result."""
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("out"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "search", "--seed", "1",
             "--seconds", SECONDS, "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        failures.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    failures: list[str] = []
    by_seed = {}
    for workload in run.WORKLOADS:
        for seed in SEEDS:
            timed_lines, timed, timed_code = bench_run(workload, seed, 0)
            traced_lines, traced, traced_code = bench_run(workload, seed, 1)
            label = f"{workload} seed {seed}"
            for mode, code, result in (("timed", timed_code, timed),
                                       ("traced", traced_code, traced)):
                if code != 0 or not result["correct"] or result["failed"]:
                    failures.append(f"{label} {mode}: exit {code}, {result['failed']} failed")
            check_metrics(f"{label} timed", timed_lines, timed, declared["end_to_end"],
                          failures)
            check_metrics(f"{label} traced", traced_lines, traced, declared["per_layer"],
                          failures)
            if result_counts(timed_lines) != result_counts(traced_lines):
                failures.append(f"{label}: timed and traced runs report different counts")
            by_seed[workload, seed] = result_counts(timed_lines), traced["metrics"]
        first, second = (by_seed[workload, seed] for seed in SEEDS)
        if workload == "search":
            if first[0] != second[0]:
                failures.append(f"search state counts differ between seeds: {first[0]} "
                                f"!= {second[0]}")
            if first[1]["verifier.states"] != second[1]["verifier.states"]:
                failures.append("search traced state counts differ between seeds")
    no_program_fails(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"smoke: {len(run.WORKLOADS)} workloads x {len(SEEDS)} seeds x 2 modes, "
          f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
