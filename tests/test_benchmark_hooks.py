"""The benchmark must keep working on the program.

``perfbench/tracing.py`` patches functions at the module attributes their
callers look up, and reads the shapes they return. A refactor that drops or
moves one of those names, or changes a shape, breaks the traced benchmark
run; these tests catch it with the unit tests.
"""
from __future__ import annotations

import ast
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from decisions import recorded_decisions
from dynring import Mode, Orientation, all_on_one, get_adversary, get_policy, initial_robots

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
# The imports no module reads: the tracer wraps each by its name in the
# importing module, so they stay until the benchmark stops wrapping them.
BENCHMARK_ONLY_IMPORTS = {"scheduler.resolve_moves", "verifier.resolve_moves",
                          "verifier.predict_intents", "policies.classify",
                          "adversaries.resolve_moves", "adversaries.classify"}


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
    methods = {(cls, attr): vars(cls)[attr] for cls, attrs in (
        (dr.verifier.WorstCaseSearcher, ("value", "witness", "_key", "__init__")),
        (dr.ring.RingConfiguration, ("__post_init__",)),
        (dr.adversaries.Dynamism, ("apply",))) for attr in attrs}
    table, killer = get_policy("k0:cascas"), get_adversary("1i-killer")
    composed = get_policy("no-chir-1i")
    tracer = tracing.Tracer()
    tracer.install(dr, [table, composed], [killer])
    try:
        report = dr.verifier.verify_impossibility(killer, 2, Mode.ONE_INTERVAL,
                                                  policies=[table])
        run = dr.scheduler.run_simulation(get_policy("vp-chain"), get_adversary("benign"),
                                          all_on_one(4), Mode.NONE)
        hands = {1: Orientation.ALIGNED, 2: Orientation.REVERSED,
                 3: Orientation.REVERSED, 4: Orientation.ALIGNED}
        gathered = dr.scheduler.run_simulation(
            composed, get_adversary("benign"), all_on_one(4), Mode.COMBINED,
            robots=initial_robots(all_on_one(4), hands))
        metrics = tracer.summarize()
        tracer.reset()
        with recorded_decisions() as points:
            bound = dr.verifier.verify_worst_case(get_policy("vp-chain"), 4, Mode.VP)
        searched = tracer.summarize()
    finally:
        tracer.uninstall()

    assert report.all_blocked and run.dispersed and gathered.dispersed
    # Each round is counted under the entry point that drove it.
    simulated = run.rounds + gathered.rounds
    assert metrics["scheduler.simulated_rounds"] == simulated
    assert metrics["verifier.run_rounds"] == metrics["scheduler.steps"] - simulated > 0
    assert metrics["verifier.proven_stalls"] == report.proven_infinite
    # The post-move hook is still wrapped on the rule that flips in it.
    assert metrics["policies.after_move_s"] > 0
    # A search builds its chain indexes through the wrapped name: one per
    # (node counts, removed edge) of the rings its robots see.
    seen = {(tuple(map(len, slots)), edge) for slots, edge, _ in points}
    assert bound.holds and searched["verifier.states"] == bound.states_explored
    assert searched["ring.chain_analyses"] == len(seen) < searched["scheduler.steps"]
    for (module, attr), original in originals.items():
        assert getattr(getattr(dr, module), attr) is original, (module, attr)
    for (cls, attr), original in methods.items():
        assert vars(cls)[attr] is original, (cls, attr)
    for instance in (table, composed, killer):
        assert not {"decide", "after_move", "choose"} & vars(instance).keys(), instance


def test_benchmark_smoke_passes():
    """Every workload at tiny sizes, timed and traced, must be correct and
    report the same result counts both ways (``perfbench/smoke.py``)."""
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_no_module_imports_a_name_it_does_not_read_but_for_the_benchmark():
    """Every name a module of the package imports is read in it, apart from
    the names the tracer wraps; the package's ``__init__`` imports to
    re-export."""
    unread = set()
    for path in sorted((ROOT / "src" / "dynring").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.partition(".")[0]
                             for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unread |= {f"{path.stem}.{name}" for name in imported - read}
    assert unread == BENCHMARK_ONLY_IMPORTS


def _callers(name: str, passes=lambda call: True) -> list[str]:
    """``module.function`` for every call of ``name`` in the package for
    which ``passes(call)`` holds, with the innermost function that holds the
    call, sorted."""
    callers = []
    for path in sorted((ROOT / "src" / "dynring").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {}  # node -> name of the innermost function holding it
        for function in ast.walk(tree):  # outer functions come first
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update(dict.fromkeys(ast.walk(function), function.name))
        callers += [f"{path.stem}.{scope.get(node, '<module>')}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None))
                    and passes(node)]
    return sorted(callers)


def test_only_the_run_and_the_orbit_walk_play_rounds():
    """The tracer counts a simulated round as a ``step`` under a
    ``run_simulation`` call, so every run plays its rounds inside
    ``scheduler.run_simulation``; a second loop over ``play_round`` would
    lose them from that count."""
    assert _callers("play_round") == ["scheduler.run_simulation", "verifier._letter_tree"]


def test_only_the_orbit_walk_hands_its_rounds_a_look_table():
    """An impossibility sweep keeps one look table per call and hands it to
    every round it plays; a run keeps none, so a run at n=1024 holds no
    table that grows with every ring it meets. A call passes a table by
    ``looks=``, by a seventh positional argument or by unpacking."""
    def passes_looks(call):
        return (len(call.args) > 6 or any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(keyword.arg in ("looks", None) for keyword in call.keywords))
    assert _callers("play_round", passes_looks) == ["verifier._letter_tree"]


def test_only_the_decision_helper_calls_a_rules_decide():
    """The bound search's decision memo sits in ``scheduler._decide``, so no
    other code of the package calls ``decide`` and bypasses it."""
    assert _callers("decide") == ["scheduler._decide"]


def test_an_adversary_checks_a_start_only_where_it_enters():
    """``Adversary.check_start`` runs where a start enters the program, once,
    and never in the middle of a run."""
    assert _callers("check_start") == ["scheduler.validate_scenario",
                                       "verifier.check_adaptive_soundness",
                                       "verifier.verify_impossibility"]


def test_no_rule_raises_in_the_middle_of_a_round():
    """A rule's start is checked where it enters (``check_scenario``), so no
    ``decide``, ``actors``, ``round_guarantees`` or ``after_move`` in
    ``dynring.policies`` raises, module-level ``*_decide`` functions
    included, but the base ``decide`` that every rule overrides."""
    tree = ast.parse((ROOT / "src" / "dynring" / "policies.py").read_text(encoding="utf-8"))
    raising = []
    for owner in ast.walk(tree):
        if not isinstance(owner, (ast.Module, ast.ClassDef)):
            continue
        for function in owner.body:
            if isinstance(function, ast.FunctionDef) and (
                    function.name.endswith("decide")
                    or function.name in ("actors", "round_guarantees", "after_move")):
                raising += [(getattr(owner, "name", "<module>"), function.name,
                             ast.unparse(node.exc))
                            for node in ast.walk(function) if isinstance(node, ast.Raise)]
    assert raising == [("Policy", "decide", "NotImplementedError")]


def test_only_the_spec_is_a_dataclass_and_a_ring_has_one_constructor():
    """Every ``@dataclass`` costs code generation at each import of the
    package, which the benchmark's set-up times, so only the spec file's
    trust boundary, ``cli.ExperimentSpec``, is one. A ring has one
    constructor, which trusts its input: no ``_trusted`` second one."""
    dataclasses, trusted = [], []
    for path in sorted((ROOT / "src" / "dynring").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(decorator) for decorator in node.decorator_list):
                dataclasses.append(f"{path.stem}.{node.name}")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                    node.name == "_trusted":
                trusted.append(f"{path.stem}.{node.name}")
    assert dataclasses == ["cli.ExperimentSpec"]
    assert trusted == []
