"""The benchmark must keep working on the program.

``perfbench/tracing.py`` patches functions at the module attributes their
callers look up, and reads the shapes they return. A refactor that drops or
moves one of those names, or changes a shape, breaks the traced benchmark
run; these tests catch it with the unit tests.
"""
from __future__ import annotations

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from dynring import Mode, all_on_one, get_adversary, get_policy

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_program_and_uninstalls_cleanly():
    tracing = _load_tracing()
    dr = SimpleNamespace(**{name: importlib.import_module(f"dynring.{name}")
                            for name in ("ring", "policies", "adversaries", "scheduler",
                                         "verifier", "cli")})
    originals = {(module, attr): getattr(getattr(dr, module), attr)
                 for module, attr, _ in tracing.MODULE_SPANS}
    table, killer = get_policy("k0:cascas"), get_adversary("1i-killer")
    tracer = tracing.Tracer()
    tracer.install(dr, [table], [killer])
    try:
        report = dr.verifier.verify_impossibility(killer, 2, Mode.ONE_INTERVAL,
                                                  policies=[table])
        run = dr.scheduler.run_simulation(get_policy("vp-chain"), get_adversary("benign"),
                                          all_on_one(4), Mode.NONE)
        metrics = tracer.summarize()
    finally:
        tracer.uninstall()

    assert report.all_blocked and run.dispersed
    # Each round is counted under the entry point that drove it.
    assert metrics["scheduler.simulated_rounds"] == run.rounds
    assert metrics["verifier.run_rounds"] == metrics["scheduler.steps"] - run.rounds > 0
    assert metrics["verifier.proven_stalls"] == report.proven_infinite
    for (module, attr), original in originals.items():
        assert getattr(getattr(dr, module), attr) is original, (module, attr)


def test_benchmark_smoke_passes():
    """Every workload at tiny sizes, timed and traced, must be correct and
    report the same result counts both ways (``perfbench/smoke.py``)."""
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
