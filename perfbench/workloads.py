"""Inputs and pass bodies of the three dynring benchmark workloads.

Each workload is split in two: ``build`` makes every input from the seed
(this is the timed set-up), and ``run_pass`` executes the fixed body once,
checks every operation against its known answer, and returns a digest of
everything the program reported. A pass does the same work every time it
runs, so the digest must repeat exactly across passes.

The seed picks every random input and the rotation at which each
exhaustive start is handed to the program. The program only ever sees
the generated inputs.

Calls go through module attributes (``dr.verifier.verify_worst_case``)
so that the traced run can wrap them at the names consumers look up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# (policy, n, mode, roots): roots is "starts" for every start profile or
# "gathered" for the all-on-one start only.
SEARCH_CASES = {
    "full": (("vp-chain", 5, "vp", "starts"),
             ("even4", 4, "combined", "starts"),
             ("no-chir-1i", 4, "combined", "gathered")),
    "smoke": (("vp-chain", 4, "vp", "starts"),
              ("no-chir-1i", 3, "combined", "gathered")),
}

# Every zero-visibility table is run against these (adversary, n, mode).
TABLE_CASES = {
    "full": (("1i-killer", 3, "1i"), ("vp-killer-n3", 3, "vp")),
    "smoke": (("1i-killer", 2, "1i"),),
}

# (adversary, n, mode, neutral_required): the adaptive-soundness cases of
# the acceptance battery's impossibility criterion, checked from every
# rotation of every start.
SOUNDNESS_CASES = {
    "full": (("vp-killer-n3", 3, "vp", True), ("vp-killer", 4, "vp", False),
             ("1i-killer", 2, "1i", False), ("1i-killer", 3, "1i", False),
             ("1i-killer", 4, "1i", False)),
    "smoke": (("vp-killer-n3", 3, "vp", True), ("1i-killer", 2, "1i", False)),
}

# (gathered n, random-start n, random-start runs, CLI run n)
SIMULATE_SIZES = {
    "full": (256, 1024, 2, 256),
    "smoke": (32, 32, 2, 32),
}


@dataclass
class PassResult:
    """What one pass did: operations attempted and failed, a digest of
    every reported result, and the exact counts that can be read off those
    results (the traced run must count the same)."""

    ops: int = 0
    failed: int = 0
    digest: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def record(self, ops: int, failed: int, what: str) -> None:
        self.ops += ops
        self.failed += failed
        if failed:
            self.problems.append(what)


# Worst case of the 4-node orientation-free rule, found by exhaustive search.
EVEN4_WORST = 6


def _expected_worst(policy_id: str, n: int) -> int:
    # Known answers from the paper's bounds, all shown tight by search.
    if policy_id == "even4":
        return EVEN4_WORST
    if policy_id == "no-chir-1i":
        return n
    return n - 1


def _rotated(dr, cfg, rng: random.Random):
    return dr.ring.rotate(cfg, rng.randrange(cfg.n))


# ---------------------------------------------------------------- search

def build_search(dr, seed: int, size: str) -> dict:
    rng = random.Random(seed)
    cases = []
    for policy_id, n, mode, roots in SEARCH_CASES[size]:
        policy = dr.policies.get_policy(policy_id)
        if roots == "gathered":
            starts = (dr.ring.all_on_one(n),)
        else:
            starts = dr.verifier.enumerate_initial_configs(n)
        starts = tuple(_rotated(dr, cfg, rng) for cfg in starts)
        hands = "aligned" if policy.requires_chirality else "all"
        root_count = len(starts) * (1 if hands == "aligned" else 2 ** n)
        cases.append(dict(policy=policy, n=n, mode=dr.ring.Mode.from_string(mode),
                          starts=starts, hands=hands, roots=root_count,
                          expected=_expected_worst(policy_id, n)))
    return {"cases": cases}


def run_search(dr, inputs: dict, out_dir: Path) -> PassResult:
    result = PassResult()
    for case in inputs["cases"]:
        name = f"{case['policy'].policy_id} n={case['n']}"
        try:
            report = dr.verifier.verify_worst_case(
                case["policy"], case["n"], case["mode"],
                starts=case["starts"], orientations=case["hands"])
        except Exception as exc:  # a raising case fails every one of its roots
            result.record(case["roots"], case["roots"], f"{name}: raised {exc!r}")
            result.digest.append((name, "raised"))
            continue
        values = sorted(report.root_values.values())
        case_ok = (report.worst_rounds == case["expected"] and report.holds
                   and len(report.witness) == report.worst_rounds
                   and len(values) == case["roots"])
        failed = case["roots"] if not case_ok else sum(
            1 for v in values if v == math.inf or v > case["expected"])
        result.record(case["roots"], failed,
                      f"{name}: worst={report.worst_rounds} want {case['expected']}, "
                      f"holds={report.holds}, witness={len(report.witness)}, "
                      f"{len(values)} of {case['roots']} roots")
        result.counts["verifier.states"] += report.states_explored
        result.digest.append((name, report.worst_rounds, report.holds,
                              report.states_explored, len(report.witness), values))
    return result


# --------------------------------------------------------- impossibility

def build_impossibility(dr, seed: int, size: str) -> dict:
    rng = random.Random(seed)
    tables = list(dr.policies.all_no_visibility_policies())
    table_cases = []
    for adversary_id, n, mode in TABLE_CASES[size]:
        adversary = dr.adversaries.get_adversary(adversary_id)
        starts = [_rotated(dr, cfg, rng)
                  for cfg in dr.verifier.enumerate_initial_configs(n, up_to_reflection=False)
                  if dr.verifier.adversary_start_filter(adversary, cfg)]
        table_cases.append(dict(adversary=adversary, n=n,
                                mode=dr.ring.Mode.from_string(mode), starts=starts))
    soundness = []
    for adversary_id, n, mode, neutral in SOUNDNESS_CASES[size]:
        adversary = dr.adversaries.get_adversary(adversary_id)
        seen = set()
        for cfg in dr.verifier.enumerate_initial_configs(n, up_to_reflection=False):
            if not dr.verifier.adversary_start_filter(adversary, cfg):
                continue
            for shift in range(n):
                turned = dr.ring.rotate(cfg, shift)
                if turned.slots not in seen:
                    seen.add(turned.slots)
                    soundness.append((adversary, turned, dr.ring.Mode.from_string(mode),
                                      neutral))
    rng.shuffle(soundness)
    return {"tables": tables, "table_cases": table_cases, "soundness": soundness}


def run_impossibility(dr, inputs: dict, out_dir: Path) -> PassResult:
    result = PassResult()
    tables = inputs["tables"]
    for case in inputs["table_cases"]:
        name = f"{case['adversary'].adversary_id} n={case['n']}"
        runs = len(tables) * len(case["starts"])
        try:
            report = dr.verifier.verify_impossibility(
                case["adversary"], case["n"], case["mode"],
                policies=tables, starts=case["starts"])
        except Exception as exc:
            result.record(runs, runs, f"{name}: raised {exc!r}")
            result.digest.append((name, "raised"))
            continue
        complete = (report.policies_checked == len(tables) == 729
                    and report.starts_checked == len(case["starts"]))
        failed = len(report.dispersals) if complete else runs
        result.record(runs, failed, f"{name}: {len(report.dispersals)} dispersals, "
                      f"{report.policies_checked} tables, {report.starts_checked} starts")
        result.counts["verifier.proven_stalls"] += report.proven_infinite
        result.counts["verifier.horizon_hits"] += report.horizon_hits
        result.digest.append((name, report.policies_checked, report.starts_checked,
                              report.proven_infinite, report.horizon_hits,
                              len(report.dispersals)))
    problems = 0
    for adversary, cfg, mode, neutral in inputs["soundness"]:
        try:
            found = dr.verifier.check_adaptive_soundness(adversary, cfg, mode,
                                                         neutral_required=neutral)
        except Exception as exc:
            found = [f"raised {exc!r}"]
        problems += len(found)
        result.counts["verifier.intent_vectors"] += 3 ** cfg.n
        result.record(1, 1 if found else 0, f"soundness {adversary.adversary_id} {cfg}: "
                      f"{found[:1]}")
    result.digest.append(("soundness", len(inputs["soundness"]), problems))
    return result


# --------------------------------------------------------------- simulate

def build_simulate(dr, seed: int, size: str) -> dict:
    rng = random.Random(seed)
    gathered_n, random_n, random_runs, cli_n = SIMULATE_SIZES[size]
    runs = [(_rotated(dr, dr.ring.all_on_one(gathered_n), rng), rng.randrange(2 ** 32))]
    for _ in range(random_runs):
        runs.append((dr.ring.random_configuration(random_n, rng), rng.randrange(2 ** 32)))
    cli_args = ["run", "--n", str(cli_n), "--policy", "no-chir-1i", "--adversary", "random",
                "--mode", "combined", "--orientations", "random",
                "--seed", str(rng.randrange(2 ** 32))]
    return {"policy": dr.policies.get_policy("vp-1i"),
            "adversary": dr.adversaries.get_adversary("random"),
            "mode": dr.ring.Mode.COMBINED, "runs": runs,
            "cli_args": cli_args, "cli_n": cli_n}


def run_simulate(dr, inputs: dict, out_dir: Path) -> PassResult:
    result = PassResult()
    policy = inputs["policy"]
    for cfg, seed in inputs["runs"]:
        name = f"vp-1i n={cfg.n} seed={seed}"
        try:
            run = dr.scheduler.run_simulation(policy, inputs["adversary"], cfg,
                                              inputs["mode"], seed=seed)
        except Exception as exc:
            result.record(1, 1, f"{name}: raised {exc!r}")
            result.digest.append((name, "raised"))
            continue
        result.counts["scheduler.simulated_rounds"] += run.rounds
        ok = run.dispersed and run.rounds <= cfg.n - 1 and not run.violations
        result.record(max(run.rounds, 1), 0 if ok else max(run.rounds, 1),
                      f"{name}: {run.outcome} in {run.rounds}, "
                      f"{len(run.violations)} violations")
        result.digest.append((name, run.outcome, run.rounds, len(run.violations),
                              hash(run.final_config.slots)))
    _run_cli(dr, inputs, out_dir, result)
    return result


def _run_cli(dr, inputs: dict, out_dir: Path, result: PassResult) -> None:
    """One ``dynring run`` writing a JSONL trace, then ``dynring replay`` of it."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        trace = Path(tmp) / "run.jsonl"
        printed = io.StringIO()
        try:
            with contextlib.redirect_stdout(printed):
                run_code = dr.cli.main(inputs["cli_args"] + ["--out", str(trace)])
                replay_code = dr.cli.main(["replay", str(trace)])
            data = trace.read_bytes()
            summary = json.loads(data.rsplit(b"\n", 2)[-2])
        except Exception as exc:
            result.record(1, 1, f"cli: raised {exc!r}")
            result.digest.append(("cli", "raised"))
            return
    rounds = summary.get("rounds", 0)
    result.counts["scheduler.simulated_rounds"] += rounds
    result.counts["cli.trace_bytes"] += len(data)
    ok = (run_code == 0 and replay_code == 0 and summary.get("outcome") == "dispersed"
          and rounds <= inputs["cli_n"] and printed.getvalue().startswith(f"replayed {rounds} "))
    result.record(max(rounds, 1), 0 if ok else max(rounds, 1),
                  f"cli: run exit {run_code}, replay exit {replay_code}, {rounds} rounds")
    result.digest.append(("cli", run_code, replay_code, rounds, len(data),
                          hashlib.sha256(data).hexdigest()))


WORKLOADS = {
    "search": (build_search, run_search),
    "impossibility": (build_impossibility, run_impossibility),
    "simulate": (build_simulate, run_simulate),
}
