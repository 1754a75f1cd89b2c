"""Acceptance battery: one test per numbered item of the project checklist.

Every test prints a scorecard line (``criterion N: PASS/FAIL``) straight to
the terminal, bypassing pytest capture, so the test log doubles as the
acceptance report. Expensive enumerations are module-scoped fixtures shared
between the bound checks (1-6), the lemma aggregation (7), and the oracle
comparison (10), whose decision points the bound checks record as they
search (``decisions.recorded_decisions``).
"""
from __future__ import annotations

import hashlib
import itertools
import random
import time

import pytest

from dynring import (
    EVEN4_WORST_ROUNDS,
    Action,
    ChainAnalysis,
    Mode,
    Orientation,
    Policy,
    Snapshot,
    adversary_start_filter,
    all_on_one,
    check_adaptive_soundness,
    enumerate_initial_configs,
    exhaustive_branches,
    get_adversary,
    get_policy,
    initial_robots,
    random_configuration,
    ring_from_slots,
    run_simulation,
    step,
    verify_impossibility,
    verify_worst_case,
)
from dynring import cli
from conftest import KILLER_SOUNDNESS_CASES, snapshot_facts
from decisions import mismatches, recorded_decisions
from naive_policies import naive_intents
from views import compute_view

RANDOM_SIZES = (8, 16, 32, 64)
RANDOM_SEEDS = 1000
ACHIRAL_SIZES = (7, 9, 11, 13, 15, 17)
ACHIRAL_SEEDS = 500


def scorecard(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_orientations(n: int, rng: random.Random) -> dict[int, Orientation]:
    choices = (Orientation.ALIGNED, Orientation.REVERSED)
    return {label: rng.choice(choices) for label in range(1, n + 1)}


class _FixedActions(Policy):
    """Robot 1 and robot 2 of a 2-ring take fixed own-frame actions and
    never flip. Each robot's memory keeps every snapshot fact it was handed
    before its move and the labels it was handed after it."""

    policy_id = "fixed-actions"

    def __init__(self, actions: dict[int, Action]):
        self.actions = actions

    def decide(self, snap, robot):
        return self.actions[robot.label], (snapshot_facts(snap),)

    def after_move(self, robot, memory, mates):
        return robot.orientation, memory + (mates,)


def _two_ring_round(cfg, dynamism, actions, hands: str):
    """One round of fixed actions on a 2-ring: the configuration it ends in
    and, per robot, what its rule was handed, its snapshot after the move
    and its full views before and after."""
    policy = _FixedActions(actions)
    assignment = {label: Orientation(hand) for label, hand in zip((1, 2), hands)}
    robots = initial_robots(cfg, assignment)
    _, settled, trace = step(policy, cfg, robots, dynamism)
    after, landed = ChainAnalysis(trace.config_after), trace.config_after.positions()
    observations = tuple(
        (robot.memory,
         snapshot_facts(Snapshot(after, trace.config_after.slots, landed[robot.label], robot)),
         compute_view(trace.config_seen, robot, 2),
         compute_view(trace.config_after, robot, 2))
        for robot in settled)
    return trace.config_after, observations


def two_ring_hand_leaks():
    """Edge-free 2-ring rounds in which robot 2's hand changes what anyone sees.

    Every 2-ring configuration is, up to rotation, gathered or dispersed.
    From each, for every pair of own-frame actions of robots 1 and 2 and
    every edge-free branch, the worlds AA and AR (and RR and RA) are run
    side by side. An empty result means the two worlds end in the same
    configuration and each robot holds the same snapshots and views in both.
    """
    leaks = []
    rounds = 0
    for cfg in (all_on_one(2), ring_from_slots(((1,), (2,)))):
        edge_free = [d for d in exhaustive_branches(cfg, Mode.COMBINED)
                     if d.edge_removal is None]
        for dynamism in edge_free:
            for pair in itertools.product(Action, repeat=2):
                actions = dict(zip((1, 2), pair))
                for hand in "AR":
                    worlds = [_two_ring_round(cfg, dynamism, actions, hand + other)
                              for other in "AR"]
                    rounds += 2
                    if worlds[0] != worlds[1]:
                        leaks.append((str(cfg), dynamism, pair, hand))
    return leaks, rounds


def checked_search(decisions: list, policy_id: str, n: int, mode, **roots):
    """``verify_worst_case`` of a rule. Every decision point of the search is
    checked against the rule's plain transcription, and ``decisions`` gets
    the number of points and the mismatches."""
    with recorded_decisions() as points:
        report = verify_worst_case(get_policy(policy_id), n, mode, **roots)
    decisions.append((len(points), mismatches(points, naive_intents(policy_id))))
    return report


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def chain_search():
    t0 = time.perf_counter()
    decisions = []
    reports = {n: checked_search(decisions, "vp-chain", n, Mode.VP) for n in (2, 3, 4, 5)}
    return reports, time.perf_counter() - t0, decisions


@pytest.fixture(scope="module")
def interval_search():
    t0 = time.perf_counter()
    decisions = []
    reports = {n: checked_search(decisions, "vp-1i", n, Mode.COMBINED) for n in (2, 3, 4)}
    return reports, time.perf_counter() - t0, decisions


@pytest.fixture(scope="module")
def interval_random_runs():
    policy = get_policy("vp-1i")
    adversary = get_adversary("random")
    failures = []
    violations = []
    runs = 0
    t0 = time.perf_counter()
    for n in RANDOM_SIZES:
        for i in range(RANDOM_SEEDS):
            seed = n * 1_000_003 + i
            cfg = random_configuration(n, random.Random(seed))
            run = run_simulation(policy, adversary, cfg, Mode.COMBINED,
                                 seed=seed, max_rounds=n - 1)
            runs += 1
            violations.extend(run.violations)
            if not run.dispersed:
                failures.append((n, seed, run.outcome))
    return failures, violations, runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def chirality_gain():
    # One preprocessing round from every gathered start, every orientation
    # assignment, every dynamism branch; success = a single shared hand.
    policy = get_policy("no-chir-1i")
    failures = []
    traces = []
    branches_tried = 0
    t0 = time.perf_counter()
    for n in range(2, 7):
        cfg = all_on_one(n)
        branches = exhaustive_branches(cfg, Mode.COMBINED)
        for combo in itertools.product("AR", repeat=n):
            assignment = {i + 1: Orientation(letter) for i, letter in enumerate(combo)}
            for dynamism in branches:
                robots = initial_robots(cfg, assignment)
                _, settled, trace = step(policy, cfg, robots, dynamism)
                traces.append(trace)
                branches_tried += 1
                if len({r.orientation for r in settled}) != 1:
                    failures.append((n, "".join(combo), dynamism))
    return failures, traces, branches_tried, time.perf_counter() - t0


@pytest.fixture(scope="module")
def composed_search():
    t0 = time.perf_counter()
    decisions = []
    reports = {n: checked_search(decisions, "no-chir-1i", n, Mode.COMBINED,
                                 starts=(all_on_one(n),), orientations="all")
               for n in (2, 3, 4, 5)}
    return reports, time.perf_counter() - t0, decisions


@pytest.fixture(scope="module")
def composed_random_runs():
    policy = get_policy("no-chir-1i")
    adversary = get_adversary("random")
    failures = []
    violations = []
    runs = 0
    t0 = time.perf_counter()
    for n in RANDOM_SIZES:
        cfg = all_on_one(n)
        for i in range(RANDOM_SEEDS):
            seed = n * 7_000_003 + i
            robots = initial_robots(cfg, _random_orientations(n, random.Random(seed)))
            run = run_simulation(policy, adversary, cfg, Mode.COMBINED,
                                 robots=robots, seed=seed, max_rounds=n)
            runs += 1
            violations.extend(run.violations)
            if not run.dispersed:
                failures.append((n, seed, run.outcome))
    return failures, violations, runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def achiral_search():
    t0 = time.perf_counter()
    decisions = []
    reports = {n: checked_search(decisions, "achiral-odd", n, Mode.COMBINED) for n in (3, 5)}
    return reports, time.perf_counter() - t0, decisions


@pytest.fixture(scope="module")
def achiral_random_runs():
    policy = get_policy("achiral-odd")
    adversary = get_adversary("random")
    failures = []
    violations = []
    runs = 0
    t0 = time.perf_counter()
    for n in ACHIRAL_SIZES:
        bound = policy.proven_bound(n)
        for i in range(ACHIRAL_SEEDS):
            seed = n * 11_000_027 + i
            rng = random.Random(seed)
            cfg = random_configuration(n, rng)
            robots = initial_robots(cfg, _random_orientations(n, rng))
            run = run_simulation(policy, adversary, cfg, Mode.COMBINED,
                                 robots=robots, seed=seed, max_rounds=bound)
            runs += 1
            violations.extend(run.violations)
            if not run.dispersed:
                failures.append((n, seed, run.outcome))
    return failures, violations, runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def four_ring_search():
    t0 = time.perf_counter()
    decisions = []
    report = checked_search(decisions, "even4", 4, Mode.COMBINED)
    return report, time.perf_counter() - t0, decisions


@pytest.fixture(scope="module")
def impossibility_sweep():
    t0 = time.perf_counter()
    reports = [verify_impossibility(get_adversary("vp-killer-n3"), 3, Mode.VP)]
    for n in (4, 5):
        reports.append(verify_impossibility(get_adversary("vp-killer"), n, Mode.VP))
    for n in (2, 3, 4, 5):
        reports.append(verify_impossibility(get_adversary("1i-killer"), n,
                                            Mode.ONE_INTERVAL))
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def killer_soundness():
    problems = []
    starts_checked = 0
    for adversary_id, n, mode, neutral in KILLER_SOUNDNESS_CASES:
        adversary = get_adversary(adversary_id)
        for cfg in enumerate_initial_configs(n, up_to_reflection=False):
            if not adversary_start_filter(adversary, cfg):
                continue
            problems.extend(check_adaptive_soundness(adversary, cfg, mode,
                                                     neutral_required=neutral))
            starts_checked += 1
    return problems, starts_checked


# ------------------------------------------------------------------ tests

def test_criterion_01_chain_rule_worst_case(chain_search, capsys):
    reports, elapsed, _ = chain_search
    problems = []
    for n, report in reports.items():
        if not report.holds or report.worst_rounds > n - 1:
            problems.append(f"n={n} worst={report.worst_rounds} bound={report.bound}")
        gathered = next(value for (slots, hands), value in report.root_values.items()
                        if sum(1 for slot in slots if slot) == 1)
        if gathered != n - 1:
            problems.append(f"n={n} gathered start took {gathered}, want exactly {n - 1}")
    ok = not problems and elapsed < 60
    scorecard(capsys, 1, ok,
              f"worst == n-1 for n in 2..5, gathered start tight, {elapsed:.1f}s")
    assert not problems, problems
    assert elapsed < 60


def test_criterion_02_interval_rule_bound(interval_search, interval_random_runs, capsys):
    reports, search_elapsed, _ = interval_search
    failures, _, runs, random_elapsed = interval_random_runs
    problems = [f"n={n} worst={r.worst_rounds} bound={r.bound}"
                for n, r in reports.items() if not r.holds]
    total = search_elapsed + random_elapsed
    ok = not problems and not failures and total < 300
    scorecard(capsys, 2, ok,
              f"exhaustive n=2..4 within n-1; {runs} random runs, "
              f"{len(failures)} misses, {total:.1f}s")
    assert not problems, problems
    assert not failures, failures[:5]
    assert total < 300


def test_criterion_03_one_round_orientation_agreement(chirality_gain, capsys):
    failures, _, branches_tried, elapsed = chirality_gain
    larger = [f for f in failures if f[0] > 2]
    # n >= 3: the preprocessing round always leaves one shared hand.
    #
    # n = 2: no deterministic rule can do that, and the certificate below
    # checks why. Both edges of a 2-ring join the same two nodes, so with no
    # edge removed every move lands on the other node whichever hand made
    # it. Take the worlds AA and AR (or RR and RA): robot 1 has the same hand
    # in both, and two_ring_hand_leaks finds that for every own-frame action
    # pair each robot ends up with the same snapshots, views and memory in
    # both worlds. A flip rule depends only on rank, memory and observation,
    # so each robot makes the same flip choice in both worlds; equal choices
    # leave AA shared but AR mixed, unequal ones the reverse. The adversary
    # may keep every edge, and the two worlds then stay alike but for robot
    # 2's hand round after round, since the certificate starts from the
    # dispersed 2-ring as well as the gathered one.
    leaks, probe_rounds = two_ring_hand_leaks()
    unavoidable = {(2, hands, d) for hands in ("AR", "RA")
                   for d in exhaustive_branches(all_on_one(2), Mode.COMBINED)
                   if d.edge_removal is None}
    two = {f for f in failures if f[0] == 2}
    ok = not larger and not leaks and two == unavoidable and elapsed < 10
    scorecard(capsys, 3, ok,
              f"{branches_tried} branch runs: {len(larger)} mixed outcomes for n=3..6; "
              f"n=2 mixed exactly on its {len(unavoidable)} edge-free mixed-hand starts, "
              f"which {probe_rounds} probe rounds with {len(leaks)} hand leaks certify "
              f"no rule avoids; {elapsed:.1f}s")
    assert not larger, larger
    assert not leaks, leaks[:5]
    # Every edge-removal branch at n=2 still ends with one shared hand.
    assert two == unavoidable, sorted(map(str, two ^ unavoidable))
    assert elapsed < 10


def test_criterion_04_preprocess_then_disperse(composed_search, composed_random_runs,
                                               capsys):
    reports, search_elapsed, _ = composed_search
    failures, _, runs, random_elapsed = composed_random_runs
    problems = []
    for n, report in reports.items():
        if not report.holds or report.worst_rounds > n:
            problems.append(f"n={n} worst={report.worst_rounds} budget={n}")
    ok = not problems and not failures
    scorecard(capsys, 4, ok,
              f"exhaustive n=2..5 within 1+(n-1); {runs} random runs, "
              f"{len(failures)} misses, {search_elapsed + random_elapsed:.1f}s")
    assert not problems, problems
    assert not failures, failures[:5]


def test_criterion_05_achiral_odd_bound(achiral_search, achiral_random_runs, capsys):
    reports, search_elapsed, _ = achiral_search
    failures, violations, runs, random_elapsed = achiral_random_runs
    problems = [f"n={n} worst={r.worst_rounds} bound={r.bound}"
                for n, r in reports.items() if not r.holds]
    ok = not problems and not failures and not violations
    scorecard(capsys, 5, ok,
              f"exhaustive n=3,5 within ceil(n/2)+2n-2; {runs} random odd-n runs, "
              f"{len(failures)} misses, {len(violations)} guarantee breaks, "
              f"{search_elapsed + random_elapsed:.1f}s")
    assert not problems, problems
    assert not failures, failures[:5]
    assert not violations, violations[:5]


def test_criterion_06_four_ring_game_tree(four_ring_search, capsys):
    report, elapsed, _ = four_ring_search
    ok = (report.holds and not report.has_cycle
          and report.worst_rounds == EVEN4_WORST_ROUNDS
          and report.worst_rounds <= 8 and elapsed < 60)
    scorecard(capsys, 6, ok,
              f"R*={report.worst_rounds} (frozen {EVEN4_WORST_ROUNDS}, cap 8), "
              f"{report.states_explored} states, {elapsed:.1f}s")
    assert report.holds
    assert not report.has_cycle
    assert report.worst_rounds == EVEN4_WORST_ROUNDS
    assert report.worst_rounds <= 8
    assert elapsed < 60


def test_criterion_07_round_guarantees_everywhere(chain_search, interval_search,
                                                  interval_random_runs, chirality_gain,
                                                  composed_search, composed_random_runs,
                                                  achiral_search, achiral_random_runs,
                                                  four_ring_search, capsys):
    reports = list(chain_search[0].values()) + list(interval_search[0].values())
    reports += list(composed_search[0].values()) + list(achiral_search[0].values())
    reports.append(four_ring_search[0])
    broken = [v for report in reports for v in report.lemma_violations]
    broken += interval_random_runs[1] + composed_random_runs[1] + achiral_random_runs[1]
    broken += [v for trace in chirality_gain[1] for v in trace.violations]
    sources = (f"{len(reports)} exhaustive searches, "
               f"{interval_random_runs[2] + composed_random_runs[2] + achiral_random_runs[2]}"
               f" random runs, {len(chirality_gain[1])} preprocessing rounds")
    scorecard(capsys, 7, not broken, f"{len(broken)} violations across {sources}")
    assert not broken, broken[:5]


def test_criterion_08_zero_visibility_impossibility(impossibility_sweep,
                                                    killer_soundness, capsys):
    reports, elapsed = impossibility_sweep
    problems, starts_checked = killer_soundness
    leaks = [(r.adversary_id, r.n, len(r.dispersals)) for r in reports
             if not r.all_blocked]
    short = [(r.adversary_id, r.n) for r in reports if r.policies_checked != 729]
    stalled = sum(r.proven_infinite for r in reports)
    hits = sum(r.horizon_hits for r in reports)
    # A horizon hit is a run left undecided: it proves no stall.
    ok = not leaks and not short and not problems and hits == 0
    scorecard(capsys, 8, ok,
              f"{len(reports)} sweeps x 729 tables: {stalled} proven stalls, "
              f"{hits} horizon hits, {sum(len(r.dispersals) for r in reports)} dispersals; "
              f"{starts_checked} starts x 3^n intent vectors sound, {elapsed:.0f}s")
    assert not leaks, leaks
    assert not short, short
    assert not problems, problems[:5]
    assert hits == 0, [(r.adversary_id, r.n, r.horizon_hits) for r in reports if r.horizon_hits]
    assert (stalled, hits) == (53_946, 0)


def test_criterion_09_byte_identical_reruns(tmp_path, capsys):
    # Each trace's sha256 is pinned as well, so a change to the round core
    # that alters any trace fails here even though its reruns agree.
    cases = [
        (["run", "--n", "16", "--policy", "vp-1i", "--adversary", "random",
          "--mode", "combined", "--config", "random", "--seed", "4242",
          "--max-rounds", "15"],
         "41c262f439021d76ca5a4e9bfb79281c0e20e7af1fe466411330613b42d24938"),
        (["run", "--n", "9", "--policy", "achiral-odd", "--adversary", "random",
          "--mode", "combined", "--config", "random", "--orientations", "random",
          "--seed", "99", "--max-rounds", "21"],
         "e179411f48ef2ce8954b3a08ce21735c6da83648dba06ab7b1bc50fc8337974c"),
        (["run", "--n", "8", "--policy", "no-chir-1i", "--adversary", "random",
          "--mode", "combined", "--orientations", "random", "--seed", "7",
          "--max-rounds", "8"],
         "c7a22baaf1d30f2d52fa6c0c9edaa84058707d0dc6ad83e9af88389093083ba8"),
    ]
    mismatches = []
    for index, (case, pinned) in enumerate(cases):
        first = tmp_path / f"first-{index}.jsonl"
        second = tmp_path / f"second-{index}.jsonl"
        code_first = cli.main(case + ["--out", str(first)])
        code_second = cli.main(case + ["--out", str(second)])
        if code_first != 0 or code_second != 0:
            mismatches.append((index, "exit", code_first, code_second))
        elif first.read_bytes() != second.read_bytes():
            mismatches.append((index, "bytes differ"))
        elif hashlib.sha256(first.read_bytes()).hexdigest() != pinned:
            mismatches.append((index, "sha256 differs from the pinned trace"))
    scorecard(capsys, 9, not mismatches,
              f"{len(cases)} seeded scenarios rerun, trace files byte-identical "
              f"and equal to the pinned digests")
    assert not mismatches, mismatches


# Decision points of the searches of criteria 1, 2, 4, 5 and 6, in order.
DECISION_POINTS = (1, 3, 25, 153, 3, 12, 155, 12, 44, 330, 3486, 48, 31968, 1530)


def test_criterion_10_oracle_agreement(chain_search, interval_search, composed_search,
                                       achiral_search, four_ring_search, capsys):
    decisions = [checked for search in (chain_search, interval_search, composed_search,
                                        achiral_search, four_ring_search)
                 for checked in search[2]]
    points = tuple(count for count, _ in decisions)
    wrong = [m for _, found in decisions for m in found]
    ok = not wrong and points == DECISION_POINTS
    scorecard(capsys, 10, ok,
              f"5 rules, {len(decisions)} exhaustive searches replayed against the "
              f"plain transcription at {sum(points)} decision points, "
              f"{len(wrong)} decision mismatches")
    assert not wrong, wrong[:3]
    assert points == DECISION_POINTS
