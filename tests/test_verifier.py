"""Unit and property tests for enumeration and the exhaustive checkers."""
from __future__ import annotations

import ast
import itertools
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import dynring.ring
import dynring.scheduler
import dynring.verifier
from decisions import mismatches, recorded_decisions
from naive_policies import naive_intents
from recursive_search import RecursiveSearcher
from dynring import (
    Action,
    ChainAnalysis,
    Dynamism,
    ImpossibilityReport,
    Mode,
    NO_VISIBILITY_DOMAIN,
    NoVisibilityPolicy,
    Orientation,
    Policy,
    RingConfiguration,
    RobotState,
    ScenarioError,
    adversary_start_filter,
    all_no_visibility_policies,
    all_on_one,
    canonical_rotation,
    classify,
    convert_frame,
    default_verification_roots,
    enumerate_initial_configs,
    enumerate_multiplicity_profiles,
    get_adversary,
    get_policy,
    initial_robots,
    permutation_classes,
    play_round,
    predict_intents,
    resolve_moves,
    ring_from_multiplicities,
    reflect,
    ring_from_slots,
    rotate,
    run_simulation,
    step,
    verify_impossibility,
    verify_worst_case,
)
from dynring.policies import census_classes, holes_strictly_decrease
from dynring.verifier import Dispersal, WorstCaseSearcher, _aux, _orientation_assignments


# -------------------------------------------------------------- enumeration


def _totient(m: int) -> int:
    return sum(1 for b in range(1, m + 1) if math.gcd(b, m) == 1)


def profile_necklace_count(n: int) -> int:
    """Closed-form count of occupancy profiles up to rotation only.

    Averages, over the cyclic group, the number of profiles fixed by each
    rotation; a rotation of order n/g fixes the profiles constant on its
    g orbits, and distributing n robots over g orbit classes has
    C(2g-1, g-1) outcomes once weighted by orbit size.
    """
    total = 0
    for g in range(1, n + 1):
        if n % g == 0:
            total += _totient(n // g) * math.comb(2 * g - 1, g - 1)
    return total // n


def labeled_initial_configs(n: int):
    """Every placement of robots 1..n on the ring, one per rotation class."""
    seen = set()
    for assignment in itertools.product(range(n), repeat=n):
        slots = [[] for _ in range(n)]
        for label0, node in enumerate(assignment):
            slots[node].append(label0 + 1)
        seen.add(canonical_rotation(RingConfiguration(n, tuple(map(tuple, slots)))).slots)
    return tuple(RingConfiguration(n, key) for key in sorted(seen))


def test_shape_counts_for_small_rings():
    assert len(enumerate_multiplicity_profiles(2)) == 2
    assert len(enumerate_multiplicity_profiles(3)) == 3
    assert len(enumerate_multiplicity_profiles(4)) == 8
    # Without merging mirror images there are two more 4-node shapes.
    assert len(enumerate_multiplicity_profiles(4, up_to_reflection=False)) == 10


def test_rotation_only_counts_match_closed_formula():
    for n in range(1, 8):
        assert len(enumerate_multiplicity_profiles(n, up_to_reflection=False)) == \
            profile_necklace_count(n)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_every_shape_is_reachable_and_unique(n, data):
    """Each profile class appears exactly once: no two enumerated shapes
    are rotations or reflections of one another."""
    shapes = enumerate_multiplicity_profiles(n)
    picked = data.draw(st.sampled_from(shapes))
    twins = [
        other for other in shapes
        if other is not picked and _same_shape(picked, other, n)
    ]
    assert twins == []
    assert sum(picked) == n


def _same_shape(a, b, n):
    def turns(vec):
        for r in range(n):
            yield vec[n - r:] + vec[:n - r]
    return any(t == b for t in turns(a)) or any(t == b for t in turns(tuple(reversed(a))))


def test_configuration_enumeration_is_deduplicated():
    unlabeled = enumerate_initial_configs(4)
    assert len(unlabeled) == 8
    for cfg in unlabeled:
        assert cfg.n == 4 and cfg.missing_edge is None
    # Distinct robot placements up to rotation: 3^3 lose a factor 3.
    labeled = labeled_initial_configs(3)
    assert len(labeled) == 9
    assert len({canonical_rotation(c).slots for c in labeled}) == 9
    with pytest.raises(ScenarioError):
        enumerate_initial_configs(9)
    for n in (0, -1):
        with pytest.raises(ScenarioError):
            enumerate_multiplicity_profiles(n)


# ------------------------------------------------------------- bound checks


def test_worst_case_search_on_smallest_ring():
    policy = get_policy("vp-chain")
    report = verify_worst_case(policy, 3, Mode.VP,
                               starts=enumerate_initial_configs(3),
                               orientations="aligned")
    assert report.holds and not report.has_cycle
    assert report.worst_rounds == 2 and report.bound == 2
    assert report.lemma_violations == ()
    # The witness replays the worst line: it must truly take that long.
    assert len(report.witness) == 2
    assert classify(report.witness[-1].config_after).dispersed
    assert not classify(report.witness[0].config_after).dispersed


class RotationKeyedSearcher(WorstCaseSearcher):
    """The search with its memo keyed by rotation class in every mode: a
    finer key, exact in every mode, and the oracle for the slot-multiset
    key of the permuting modes."""

    def _key(self, cfg, robots):
        return canonical_rotation(cfg).slots, _aux(robots)


class MultisetKeyedSearcher(WorstCaseSearcher):
    """The search with its memo keyed by slot multiset and the robots' own
    hands in a permuting mode: the key without mirror twins merged."""

    def _key(self, cfg, robots):
        return tuple(sorted(cfg.slots)), _aux(robots)


def _mirrored(decision_point):
    """A decision point of the mirror world: the ring reflected about 0
    and turned to its least rotation, as the branches leave it, with every
    hand flipped."""
    slots, edge, aux = decision_point
    seen = canonical_rotation(reflect(RingConfiguration(len(slots), slots, edge), 0))
    hands = tuple((label, Orientation(hand).flipped().value, memory)
                  for label, hand, memory in aux)
    return seen.slots, seen.missing_edge, hands


def _mirror_closed(decision_points):
    return set(decision_points) | {_mirrored(point) for point in decision_points}


def _root_values(searcher, policy, n, starts, orientations):
    values = {}
    for cfg in starts:
        for hands in _orientation_assignments(n, orientations):
            robots = initial_robots(cfg, dict(enumerate(hands, start=1)))
            values[cfg.slots, hands] = searcher.value(cfg, robots)
    return values


# (unmerged, merged) memo sizes of all-hands searches: twins halve them.
MIRROR_HALVED = {("even4", 4): (140, 70), ("no-chir-1i", 4): (44, 22)}


@pytest.mark.parametrize("policy_id,n,mode", [
    *[("vp-chain", n, Mode.VP) for n in (2, 3, 4)],
    *[("vp-1i", n, Mode.COMBINED) for n in (2, 3, 4)],
    *[("no-chir-1i", n, Mode.COMBINED) for n in (2, 3, 4)],
    ("even4", 4, Mode.COMBINED),
    ("achiral-odd", 3, Mode.COMBINED),
])
def test_multiset_key_matches_the_rotation_key(policy_id, n, mode):
    """In a permuting mode the memo keys a state by its slot multiset and
    merges it with its mirror twin. The rotation-keyed search finds the
    same value at every root and meets the same decision points up to
    mirroring, where both agree with the plain transcription; the search
    without merged twins finds the same values with a memo at least as
    large."""
    policy = get_policy(policy_id)
    starts, orientations = default_verification_roots(policy, n)
    oracle = naive_intents(policy_id)
    multiset = WorstCaseSearcher(policy, mode)
    rotation = RotationKeyedSearcher(policy, mode)
    unmerged = MultisetKeyedSearcher(policy, mode)
    with recorded_decisions() as multiset_points:
        values = _root_values(multiset, policy, n, starts, orientations)
    with recorded_decisions() as rotation_points:
        assert values == _root_values(rotation, policy, n, starts, orientations)
    assert values == _root_values(unmerged, policy, n, starts, orientations)
    assert _mirror_closed(multiset_points) == _mirror_closed(rotation_points)
    assert mismatches(multiset_points, oracle) == mismatches(rotation_points, oracle) == []
    assert len(multiset.memo) <= len(unmerged.memo) <= len(rotation.memo)
    if (policy_id, n) in MIRROR_HALVED:
        assert (len(unmerged.memo), len(multiset.memo)) == MIRROR_HALVED[policy_id, n]


@pytest.mark.parametrize("policy_id,mode", [
    ("vp-1i", Mode.ONE_INTERVAL),
    ("vp-chain", Mode.NONE),
    ("achiral-odd", Mode.ONE_INTERVAL),
    ("achiral-odd", Mode.NONE),
    ("no-chir-1i", Mode.ONE_INTERVAL),
    ("even4", Mode.ONE_INTERVAL),
])
def test_non_permuting_modes_keep_the_rotation_key(policy_id, mode):
    """Without permutations the arrangement is real state, so the memo
    holds exactly the rotation classes the rotation-keyed search holds:
    hands are never flipped without reflecting the ring. The all-hands
    rules are the cases that would show such a flip."""
    n = 3 if policy_id == "achiral-odd" else 4  # the odd rule needs an odd ring
    policy = get_policy(policy_id)
    starts, orientations = default_verification_roots(policy, n)
    searcher = WorstCaseSearcher(policy, mode)
    rotation = RotationKeyedSearcher(policy, mode)
    assert _root_values(searcher, policy, n, starts, orientations) == \
        _root_values(rotation, policy, n, starts, orientations)
    assert len(searcher.memo) == len(rotation.memo)


@pytest.mark.parametrize("policy_id,n,mode,worst,states", [
    *[("vp-1i", n, Mode.ONE_INTERVAL, n - 1, states)
      for n, states in ((4, 14), (5, 40), (6, 172))],
    *[("no-chir-1i", n, Mode.ONE_INTERVAL, n, states)
      for n, states in ((4, 90), (5, 330), (6, 1_246))],
    ("even4", 4, Mode.ONE_INTERVAL, 6, 258),
    ("achiral-odd", 5, Mode.ONE_INTERVAL, 5, 1_424),
    ("achiral-odd", 5, Mode.NONE, 4, 768),
    ("vp-chain", 5, Mode.NONE, 4, 31),
])
def test_worst_cases_in_the_rotation_keyed_modes(policy_id, n, mode, worst, states):
    """Modes ``none`` and ``1i`` key the memo by rotation class and branch
    without permutations; these searches pin their worst values and state
    counts from the default roots."""
    report = verify_worst_case(get_policy(policy_id), n, mode)
    assert report.holds
    assert (report.worst_rounds, report.states_explored) == (worst, states)


def _arrangements(cfg):
    """Every arrangement of ``cfg``'s slots: one permutation per class from
    ``permutation_classes``, turned to every rotation."""
    for perm in permutation_classes(cfg):
        shuffled = Dynamism(perm).apply(cfg)
        for shift in range(cfg.n):
            yield rotate(shuffled, shift)


@pytest.mark.parametrize("policy_id,n,mode", [
    ("vp-chain", 5, Mode.VP),
    ("even4", 4, Mode.COMBINED),
])
def test_witness_is_optimal_from_every_rotation(policy_id, n, mode):
    """In a permuting mode one memo entry stands for every arrangement of
    a state's slots, so a witness may start from any of them. From every
    arrangement of every worst root, each witness round lowers the
    memoized value by exactly one."""
    policy = get_policy(policy_id)
    starts, orientations = default_verification_roots(policy, n)
    report = verify_worst_case(policy, n, mode, starts=starts, orientations=orientations)
    assert len(report.witness) == report.worst_rounds

    searcher = WorstCaseSearcher(policy, mode)
    worst_roots = []
    for cfg in starts:
        for hands in _orientation_assignments(n, orientations):
            robots = initial_robots(cfg, dict(enumerate(hands, start=1)))
            if searcher.value(cfg, robots) == report.worst_rounds:
                worst_roots.append((cfg, robots))
    assert worst_roots

    for root_cfg, root_robots in worst_roots:
        for cfg in _arrangements(root_cfg):
            robots = root_robots
            witness = searcher.witness(cfg, robots)
            assert len(witness) == report.worst_rounds
            value = searcher.value(cfg, robots)
            for trace in witness:
                cfg, robots, _ = step(policy, cfg, robots, trace.dynamism)
                assert cfg.slots == trace.config_after.slots
                assert searcher.value(cfg, robots) == value - 1
                value -= 1
            assert value == 0


def test_search_reports_honest_bound_failures():
    policy = get_policy("vp-chain")
    report = verify_worst_case(policy, 3, Mode.VP,
                               starts=enumerate_initial_configs(3),
                               orientations="aligned", bound=1)
    assert not report.holds
    assert report.worst_rounds == 2


def test_search_flags_oracle_disagreement():
    """An oracle that keeps every robot in place disagrees with the chain
    rule at some decision point of its search."""
    policy = get_policy("vp-chain")

    def lazy_oracle(cfg, robots):
        return {robot.label: Action.STAY for robot in robots}

    with recorded_decisions() as points:
        verify_worst_case(policy, 3, Mode.VP, starts=enumerate_initial_configs(3),
                          orientations="aligned")
    assert points and mismatches(points, naive_intents("vp-chain")) == []
    assert mismatches(points, lazy_oracle) != []


def test_search_agrees_with_independent_transcription():
    policy = get_policy("vp-1i")
    with recorded_decisions() as points:
        report = verify_worst_case(policy, 4, Mode.COMBINED,
                                   starts=enumerate_initial_configs(4),
                                   orientations="aligned")
    assert report.holds and report.worst_rounds == 3
    assert points and mismatches(points, naive_intents("vp-1i")) == []


def test_a_search_builds_one_chain_index_per_seen_occupancy_and_edge(monkeypatch):
    """The search keeps a look table for its own length: ``even4`` at n=4
    plays 1,541 rounds over 50 (node counts, removed edge) pairs of the
    rings its robots see, and builds one ``ChainAnalysis`` per pair. The
    table goes with the search, so a second search builds them afresh."""
    built, dynamisms = [], []
    real_analysis, real_step = dynring.scheduler.ChainAnalysis, dynring.verifier.step

    def analysis(cfg):
        built.append((cfg.multiplicities(), cfg.missing_edge))
        return real_analysis(cfg)

    def counted_step(*args, **options):
        dynamisms.append(args[3])
        return real_step(*args, **options)

    # Plain functions, as the benchmark's tracer installs them.
    monkeypatch.setattr(dynring.scheduler, "ChainAnalysis", analysis)
    monkeypatch.setattr(dynring.verifier, "step", counted_step)
    policy = get_policy("even4")
    first = verify_worst_case(policy, 4, Mode.COMBINED)
    assert first.holds and len(dynamisms) == 1541
    assert len(built) == len(set(built)) == 50
    second = verify_worst_case(policy, 4, Mode.COMBINED)
    assert second == first and len(dynamisms) == 2 * 1541
    assert len(built) == 100 and built[50:] == built[:50]


@pytest.mark.parametrize("policy_id", ["no-chir-1i", "even4"])
def test_a_search_walks_the_chains_once_per_stored_look(monkeypatch, policy_id):
    """A look builds its chain index the first time a rule reads it, and the
    search's look table hands a stored look back as it is, so the index is
    never built twice: at n=4 in mode ``combined`` each rule stores 50
    looks and runs ``_chains`` 50 times, once per stored look."""
    looks, walks = [], []
    real_analysis, real_chains = dynring.scheduler.ChainAnalysis, dynring.ring._chains

    def analysis(cfg):
        looks.append((cfg.multiplicities(), cfg.missing_edge))
        return real_analysis(cfg)

    def chains(mult, cut):
        walks.append((mult, cut))
        return real_chains(mult, cut)

    monkeypatch.setattr(dynring.scheduler, "ChainAnalysis", analysis)
    monkeypatch.setattr(dynring.ring, "_chains", chains)
    assert verify_worst_case(get_policy(policy_id), 4, Mode.COMBINED).holds
    assert len(looks) == len(set(looks)) == 50
    assert len(walks) == len(set(walks)) == 50 and set(walks) == set(looks)


def test_a_bound_search_never_checks_its_own_branches(monkeypatch):
    """``exhaustive_branches`` builds every dynamism the search plays, so
    none of them goes through ``Dynamism.check``."""
    def refuse(self, n, mode):
        raise AssertionError(f"a search branch was checked: {self}")

    monkeypatch.setattr(Dynamism, "check", refuse)
    assert verify_worst_case(get_policy("vp-chain"), 4, Mode.VP).holds


def test_a_bound_search_with_no_start_is_refused():
    """A search over no root reported ``holds`` with worst 0."""
    with pytest.raises(ScenarioError, match="^no start to check for policy vp-chain on n=4$"):
        verify_worst_case(get_policy("vp-chain"), 4, Mode.VP, starts=[],
                          orientations="aligned")


def test_a_bound_search_start_of_another_size_is_refused():
    """A 3-ring start in an n=4 search was searched as a 3-ring and judged
    against the n=4 bound."""
    with pytest.raises(ScenarioError, match="^every start of a bound search must have n=4 "):
        verify_worst_case(get_policy("vp-chain"), 4, Mode.NONE, starts=[all_on_one(3)],
                          orientations="aligned")
    # The starts are read twice, so a one-shot iterable is searched in full.
    starts = enumerate_initial_configs(3)
    assert (verify_worst_case(get_policy("vp-chain"), 3, Mode.VP, starts=iter(starts),
                              orientations="aligned")
            == verify_worst_case(get_policy("vp-chain"), 3, Mode.VP, starts=starts,
                                 orientations="aligned"))


def test_a_search_and_a_sweep_refuse_a_start_with_a_removed_edge():
    """No round starts from a ring with a removed edge, so each entry point
    refuses one before any round is played."""
    cut = ring_from_slots(((1, 2), (3,), ()), missing_edge=1)
    message = r"^a round starts from a ring with no removed edge, not <ring 1,2 3 \. !e1>$"
    with pytest.raises(ScenarioError, match=message):
        verify_worst_case(get_policy("vp-chain"), 3, Mode.VP, starts=[cut],
                          orientations="aligned")
    with pytest.raises(ScenarioError, match=message):
        verify_impossibility(get_adversary("vp-killer-n3"), 3, Mode.VP, starts=[cut])


def test_a_stalling_rule_reports_a_cycle():
    """Robots that always stay never disperse a start that is not dispersed:
    the search meets its own state again, and reports an infinite worst case
    with no witness."""
    report = verify_worst_case(get_policy("k0:ssssss"), 3, Mode.NONE)
    assert report.worst_rounds == math.inf and report.has_cycle
    assert not report.holds and report.witness == ()


@pytest.mark.parametrize("policy_id,states", [("k0:cascas", 3_992), ("k0:acacac", 3_818)])
def test_a_stall_deeper_than_the_recursion_limit_is_settled(policy_id, states):
    """From the gathered 6-ring with aligned hands, these tables wander
    through thousands of states before their cycles close, on paths
    longer than Python's recursion limit; the search still values every
    state and reports the stall."""
    report = verify_worst_case(get_policy(policy_id), 6, Mode.ONE_INTERVAL,
                               starts=(all_on_one(6),), orientations="aligned")
    assert report.worst_rounds == math.inf and report.has_cycle
    assert report.states_explored == states


def test_no_method_of_the_searcher_calls_itself():
    """The search settles values without recursion, so no path length can
    exhaust the stack."""
    tree = ast.parse(Path(dynring.verifier.__file__).read_text(encoding="utf-8"))
    searcher = next(node for node in tree.body
                    if isinstance(node, ast.ClassDef) and node.name == "WorstCaseSearcher")
    for method in searcher.body:
        if isinstance(method, ast.FunctionDef):
            called = {node.func.attr for node in ast.walk(method) if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name) and node.func.value.id == "self"}
            assert method.name not in called


@pytest.mark.parametrize("policy_id,n,mode,violations", [
    *[(policy_id, n, mode, 0)
      for policy_id, n in (("vp-chain", 4), ("vp-1i", 4), ("no-chir-1i", 4), ("even4", 4),
                           ("achiral-odd", 3), ("achiral-odd", 5))
      for mode in Mode if mode in get_policy(policy_id).allowed_modes],
    ("k0:cccccc", 4, Mode.ONE_INTERVAL, 28),
    ("k0:cascas", 4, Mode.COMBINED, 24),
    ("k0:acacac", 5, Mode.NONE, 7),
])
def test_the_settled_values_match_the_recursive_search(monkeypatch, policy_id, n, mode,
                                                       violations):
    """From the default roots the search reports what the depth-first
    search (``tests/recursive_search.py``) does: the same values, states,
    worst root, cycle flag and witness, and the same broken guarantees per
    state. Only the order of the violations and the frame of each one's
    dynamism may differ, as each state is expanded in the arrangement its
    search meets first."""
    policy = get_policy(policy_id)
    settled = verify_worst_case(policy, n, mode)
    monkeypatch.setattr(dynring.verifier, "WorstCaseSearcher", RecursiveSearcher)
    recursive = verify_worst_case(policy, n, mode)
    assert settled._replace(lemma_violations=()) == recursive._replace(lemma_violations=())

    def broken(report):
        return Counter((key, violation.guarantee, violation.detail)
                       for key, _, violation in report.lemma_violations)

    assert len(settled.lemma_violations) == len(recursive.lemma_violations) == violations
    assert broken(settled) == broken(recursive)


class _ClaimingTable(NoVisibilityPolicy):
    """A table of robots that always stay, claiming every round fills a
    hole."""

    guarantees = (holes_strictly_decrease,)


def test_a_broken_guarantee_is_reported():
    """A rule that claims a guarantee its rounds break is reported with every
    explored round that breaks it, and does not hold."""
    report = verify_worst_case(_ClaimingTable("ssssss"), 3, Mode.NONE)
    assert len(report.lemma_violations) == 16
    assert {violation.guarantee for _, _, violation in report.lemma_violations} == \
        {"holes-strictly-decrease"}
    assert not report.holds


def test_default_roots_respect_each_policy():
    gathered, orientations = default_verification_roots(get_policy("no-chir-1i"), 5)
    assert [c.slots for c in gathered] == [all_on_one(5).slots]
    assert orientations == "all"
    starts, orientations = default_verification_roots(get_policy("vp-chain"), 4)
    assert len(starts) == 8 and orientations == "aligned"
    starts, orientations = default_verification_roots(get_policy("achiral-odd"), 3)
    assert len(starts) == 3 and orientations == "all"


def test_search_defaults_to_the_policy_roots():
    report = verify_worst_case(get_policy("no-chir-1i"), 3, Mode.COMBINED)
    assert {slots for slots, _ in report.root_values} == {all_on_one(3).slots}
    assert len(report.root_values) == 2 ** 3
    report = verify_worst_case(get_policy("vp-chain"), 3, Mode.VP)
    assert {hands for _, hands in report.root_values} == {"AAA"}
    assert len(report.root_values) == len(enumerate_initial_configs(3))


# ------------------------------------------------------------ impossibility


@pytest.mark.parametrize("adversary_id,sizes", [
    ("vp-killer-n3", (3,)),
    ("vp-killer", (4, 5)),
    ("1i-killer", (2, 3, 4, 5)),
])
def test_start_filter_is_the_adversary_invariant(adversary_id, sizes):
    """At the sizes of the impossibility criterion, every absolute occupancy
    vector passes the start filter, and the adversary's invariant on its
    counts, exactly when the written-out invariant holds: pair, single and
    hole for the 3-ring permuter, otherwise not dispersed."""
    adversary = get_adversary(adversary_id)
    for n in sizes:
        for counts in itertools.product(range(n + 1), repeat=n):
            if sum(counts) != n:
                continue
            if adversary_id == "vp-killer-n3":
                expected = sorted(counts) == [0, 1, 2]
            else:
                expected = counts != (1,) * n
            assert adversary.invariant(counts) == expected, counts
            cfg = ring_from_multiplicities(counts)
            assert adversary_start_filter(adversary, cfg) == expected, counts


def test_impossibility_runs_prove_infinite_stalls():
    adversary = get_adversary("vp-killer-n3")
    policies = [get_policy("k0:" + t) for t in ("ssssss", "cccccc", "sccsss", "cascas")]
    report = verify_impossibility(adversary, 3, Mode.VP, policies=policies)
    assert report.all_blocked
    assert report.dispersals == ()
    assert report.policies_checked == 4 and report.starts_checked == 2
    # Determinism turns every stall into a provable cycle, no horizon cuts.
    assert report.proven_infinite == 4 * 2
    assert report.horizon_hits == 0


def test_impossibility_blocks_a_rule_that_wins_benignly():
    # This table disperses (pair, single, hole) unopposed in one round.
    policy = get_policy("k0:sascss")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    robots = initial_robots(cfg)
    intents = predict_intents(policy, cfg, robots)
    landed = resolve_moves(cfg, intents)
    assert classify(landed).dispersed

    report = verify_impossibility(get_adversary("vp-killer-n3"), 3, Mode.VP,
                                  policies=[policy])
    assert report.all_blocked and report.proven_infinite == report.starts_checked


def test_escapes_end_on_the_round_a_plain_run_ends_on():
    """Impossibility runs and simulation runs share one round loop: every
    table that escapes a benign ring does so on the round ``run_simulation``
    reports for the same table and start."""
    benign = get_adversary("benign")
    report = verify_impossibility(benign, 3, Mode.NONE)
    assert report.dispersals
    for item in report.dispersals:
        run = run_simulation(get_policy(item.policy_id), benign,
                             RingConfiguration(3, item.start), Mode.NONE, max_rounds=200)
        assert run.dispersed and run.rounds == item.round_index, item


@pytest.mark.parametrize("adversary_id,n,mode,horizon,stalls,hits,escapes", [
    ("1i-killer", 2, Mode.ONE_INTERVAL, 2, 405, 324, 0),
    ("1i-killer", 3, Mode.ONE_INTERVAL, 4, 1025, 1162, 0),
    ("vp-killer-n3", 3, Mode.VP, 5, 594, 864, 0),
    ("benign", 3, Mode.NONE, 2, 81, 1152, 954),
])
def test_horizon_splits_runs_into_stalls_hits_and_escapes(adversary_id, n, mode, horizon,
                                                          stalls, hits, escapes):
    """A cycle counts only when its state repeats before the horizon-th
    round; a state first repeated on that round is a horizon hit."""
    report = verify_impossibility(get_adversary(adversary_id), n, mode, horizon=horizon)
    assert (report.proven_infinite, report.horizon_hits, len(report.dispersals)) == \
        (stalls, hits, escapes)


def test_negative_horizon_is_refused():
    with pytest.raises(ScenarioError):
        verify_impossibility(get_adversary("1i-killer"), 2, Mode.ONE_INTERVAL, horizon=-1)


def test_a_horizon_of_no_round_is_refused():
    """At horizon 0 every start that is not dispersed is a hit, and nothing
    is proved."""
    with pytest.raises(ScenarioError, match="^horizon must be an int of at least 1 round, got 0$"):
        verify_impossibility(get_adversary("1i-killer"), 2, Mode.ONE_INTERVAL, horizon=0)


@pytest.mark.parametrize("horizon", [2.5, True, "5"])
def test_a_horizon_that_is_no_plain_int_is_refused(horizon):
    """A horizon counts rounds, so a float, a bool or a string is refused
    with one line, not taken for the number it compares to."""
    with pytest.raises(ScenarioError, match="^horizon must be an int of at least 1 round, got "):
        verify_impossibility(get_adversary("1i-killer"), 2, Mode.ONE_INTERVAL, horizon=horizon)


def test_an_empty_table_list_is_refused():
    """A sweep over no table proves nothing, as one over no start does."""
    with pytest.raises(ScenarioError, match="^no table to check against adversary 1i-killer$"):
        verify_impossibility(get_adversary("1i-killer"), 3, Mode.ONE_INTERVAL, policies=[])


def test_tables_and_starts_may_come_from_any_iterable():
    """Tables and starts are each read more than once, so a sweep takes them
    as tuples where they enter: one-shot iterators give the report the lists
    give."""
    adversary = get_adversary("1i-killer")
    tables, starts = ALL_TABLES[::7], filtered_starts(adversary, 3)
    report = verify_impossibility(adversary, 3, Mode.ONE_INTERVAL, list(tables), starts)
    assert report.policies_checked == len(tables) and report.starts_checked == len(starts)
    assert verify_impossibility(adversary, 3, Mode.ONE_INTERVAL, iter(tables),
                                iter(starts)) == report


def test_an_unknown_orientation_spec_is_refused_before_any_step(monkeypatch):
    steps = []
    monkeypatch.setattr(dynring.verifier, "step", lambda *args: steps.append(args))
    with pytest.raises(ScenarioError,
                       match="^orientations must be 'aligned' or 'all', got 'bogus'$"):
        verify_worst_case(get_policy("vp-chain"), 3, Mode.VP, orientations="bogus")
    assert steps == []


def _steps_before_refusal(monkeypatch, mode, starts) -> list:
    """The ``step`` calls a ``no-chir-1i`` n=4 search over ``starts`` makes
    before it refuses a root that is no pile."""
    steps = []
    real = dynring.verifier.step
    monkeypatch.setattr(dynring.verifier, "step",
                        lambda *args, **options: steps.append(args) or real(*args, **options))
    with pytest.raises(ScenarioError, match="^policy no-chir-1i must start with all robots "
                                            "on one node$"):
        verify_worst_case(get_policy("no-chir-1i"), 4, mode, starts=starts)
    return steps


def test_a_search_refuses_an_ungathered_start_before_any_step(monkeypatch):
    """A fresh ``no-chir-1i`` root that is no pile is refused where the root
    enters the search, before ``step`` plays any round from it."""
    assert _steps_before_refusal(
        monkeypatch, Mode.NONE, (ring_from_multiplicities((2, 2, 0, 0)),)) == []


def test_a_search_checks_every_root_before_searching_any(monkeypatch):
    """A bad root listed after a good one is refused before the good one is
    searched: no ``step`` is played (330 were, when each root was checked
    just before its own search)."""
    assert _steps_before_refusal(
        monkeypatch, Mode.COMBINED,
        (all_on_one(4), ring_from_multiplicities((2, 2, 0, 0)))) == []


class _NeverStores(dict):
    """A decision memo that keeps no answer, so every listed robot decides."""

    def __setitem__(self, key, value):
        pass


def _forget_decisions(monkeypatch) -> None:
    """Give every search from here on a decision memo that never stores."""
    real_init = WorstCaseSearcher.__init__

    def forgetful(self, *args):
        real_init(self, *args)
        self.decisions = _NeverStores()

    monkeypatch.setattr(WorstCaseSearcher, "__init__", forgetful)


@pytest.mark.parametrize("policy_id,n,mode", [
    ("vp-chain", 5, Mode.VP),
    ("even4", 4, Mode.COMBINED),
    ("no-chir-1i", 5, Mode.COMBINED),
    ("achiral-odd", 5, Mode.ONE_INTERVAL),
    ("vp-1i", 5, Mode.NONE),
])
def test_the_decision_memo_is_exact(monkeypatch, policy_id, n, mode):
    """A search hands a listed robot the stored answer of any robot with its
    key (stored look, node, labels on it, label, hand, memory): its report
    equals that of a search in which every listed robot decides afresh."""
    policy = get_policy(policy_id)
    memoized = verify_worst_case(policy, n, mode)
    _forget_decisions(monkeypatch)
    assert verify_worst_case(policy, n, mode) == memoized


def test_a_search_decides_once_per_memo_key(monkeypatch):
    """``even4`` at n=4 in mode ``combined`` lists robots 4,245 times over its
    rounds at 825 distinct keys, and ``decide`` runs once per key. A look
    is stored once per node counts and removed edge, so those stand for it
    here."""
    policy = get_policy("even4")
    calls = []
    real = policy.decide

    def decide(snap, robot):
        look = snap._analysis
        calls.append(((look.mult, look.missing_edge), snap._pos, snap.own_labels, robot))
        return real(snap, robot)

    monkeypatch.setattr(policy, "decide", decide)
    memoized = verify_worst_case(policy, 4, Mode.COMBINED)
    keys = set(calls)
    assert memoized.holds and len(calls) == len(keys) == 825
    calls.clear()
    _forget_decisions(monkeypatch)
    verify_worst_case(policy, 4, Mode.COMBINED)
    assert len(calls) == 4245 and set(calls) == keys


def test_a_check_with_no_start_is_refused():
    """At n=1 every rule is dispersed at round 0, so no start is left to
    block; a check over no start proves nothing."""
    with pytest.raises(ScenarioError, match="no start"):
        verify_impossibility(get_adversary("benign"), 1, Mode.NONE)
    with pytest.raises(ScenarioError, match="no start"):
        verify_impossibility(get_adversary("1i-killer"), 3, Mode.ONE_INTERVAL, starts=[])


def test_a_start_of_another_size_is_refused():
    """Every start shares the robots 1..n of the call, so a start on another
    ring size is refused."""
    with pytest.raises(ScenarioError, match="must have n=3 nodes"):
        verify_impossibility(get_adversary("1i-killer"), 3, Mode.ONE_INTERVAL,
                             starts=[ring_from_multiplicities((2, 1, 0)),
                                     ring_from_multiplicities((2, 1, 1, 0))])


def test_edge_blocker_impossibility_on_two_nodes():
    report = verify_impossibility(get_adversary("1i-killer"), 2, Mode.ONE_INTERVAL,
                                  policies=[get_policy("k0:" + t)
                                            for t in ("cascas", "caccca", "aaaaaa")])
    assert report.all_blocked
    assert report.horizon_hits == 0


def filtered_starts(adversary, n):
    return [cfg for cfg in enumerate_initial_configs(n, up_to_reflection=False)
            if adversary_start_filter(adversary, cfg)]


def plain_runs(adversary, mode, policies, starts, horizon):
    """Every start of every table run on its own for at most ``horizon``
    rounds, sharing no round with any other run. Per run: the table, the
    start and ``(disperses, round)`` for the round on which it disperses or
    first repeats a state of its own run, or None if neither happens."""
    runs = []
    for policy in policies:
        for start in starts:
            cfg, robots = start, initial_robots(start)
            seen = {(start.slots, _aux(robots))}
            fate = (True, 0) if classify(start).dispersed else None
            index = 0
            while fate is None and index < horizon:
                index += 1
                cfg, robots, _ = play_round(policy, adversary, cfg, mode, robots)
                state, dispersed = (cfg.slots, _aux(robots)), classify(cfg).dispersed
                if dispersed or state in seen:
                    fate = (dispersed, index)
                seen.add(state)
            runs.append((policy.policy_id, start.slots, fate))
    return runs


def plain_report(adversary, n, mode, policies, starts, runs, horizon):
    """The report of ``runs`` cut at a ``horizon`` no later than theirs. A run
    disperses if it does by round ``horizon``, and is a proven stall if it
    first repeats a state before that round; a state first repeated on it
    is a horizon hit."""
    dispersals = []
    proven_infinite = 0
    horizon_hits = 0
    for policy_id, start, fate in runs:
        if fate is not None and fate[0] and fate[1] <= horizon:
            dispersals.append(Dispersal(policy_id, start, fate[1]))
        elif fate is not None and not fate[0] and fate[1] < horizon:
            proven_infinite += 1
        else:
            horizon_hits += 1
    return ImpossibilityReport(adversary.adversary_id, n, mode, len(policies), len(starts),
                               tuple(dispersals), proven_infinite, horizon_hits)


def plain_impossibility(adversary, n, mode, policies=None, starts=None, horizon=200):
    """``verify_impossibility`` with no memo: every start of every table is
    run on its own until it disperses, repeats a state of its own run or
    reaches the horizon."""
    if policies is None:
        policies = list(all_no_visibility_policies())
    if starts is None:
        starts = filtered_starts(adversary, n)
    runs = plain_runs(adversary, mode, policies, starts, horizon)
    return plain_report(adversary, n, mode, policies, starts, runs, horizon)


ORACLE_HORIZONS = (*range(1, 9), 200)  # a sweep refuses a horizon below 1
ALL_TABLES = tuple(all_no_visibility_policies())


@pytest.mark.parametrize("adversary_id,n,mode,stride", [
    ("vp-killer-n3", 3, Mode.VP, 1),
    ("1i-killer", 2, Mode.ONE_INTERVAL, 1),
    ("1i-killer", 3, Mode.ONE_INTERVAL, 1),
    ("1i-killer", 4, Mode.ONE_INTERVAL, 7),
    ("vp-killer", 4, Mode.VP, 7),
    ("benign", 2, Mode.NONE, 1),
    ("benign", 3, Mode.NONE, 1),
    ("benign", 2, Mode.ONE_INTERVAL, 1),
    ("benign", 3, Mode.ONE_INTERVAL, 1),
])
def test_orbit_memo_matches_the_plain_runs(adversary_id, n, mode, stride):
    """Walking each start once for every table, split by letters, and reading
    a round off the round memo gives the report, dispersal rounds included,
    that running every start of every table alone gives. Each plain run is
    made once, to the largest horizon, and cut at each smaller one. At n=4
    every ``stride``-th table is run, to keep the plain runs short."""
    adversary, tables = get_adversary(adversary_id), list(ALL_TABLES[::stride])
    _matches_the_plain_runs(adversary, n, mode, tables)


def _matches_the_plain_runs(adversary, n, mode, tables) -> ImpossibilityReport:
    """The sweep's report at each of ``ORACLE_HORIZONS`` equals the plain
    runs'; the last one is returned."""
    starts = filtered_starts(adversary, n)
    runs = plain_runs(adversary, mode, tables, starts, max(ORACLE_HORIZONS))
    for horizon in ORACLE_HORIZONS:
        report = verify_impossibility(adversary, n, mode, tables, horizon=horizon)
        assert report == plain_report(adversary, n, mode, tables, starts, runs, horizon), horizon
    return report


# Table lists whose bits in a sweep's masks are not the tables' own order:
# a shuffle, overlapping strides that list many tables twice, and one table.
TABLE_LISTS = {
    "shuffled": random.Random(33).sample(ALL_TABLES, len(ALL_TABLES)),
    "repeated": [*ALL_TABLES[::5], *ALL_TABLES[::3], ALL_TABLES[0]],
    "single-stall": [get_policy("k0:cacacs")],
    "single-escape": [get_policy("k0:scssss")],
}


@pytest.mark.parametrize("adversary_id,n,mode,listed", [
    ("1i-killer", 3, Mode.ONE_INTERVAL, "shuffled"),
    ("vp-killer-n3", 3, Mode.VP, "repeated"),
    ("1i-killer", 3, Mode.ONE_INTERVAL, "single-stall"),
    ("benign", 3, Mode.NONE, "shuffled"),
    ("benign", 3, Mode.ONE_INTERVAL, "repeated"),
    ("benign", 3, Mode.NONE, "single-escape"),
])
def test_the_letter_tree_matches_the_plain_runs_where_branches_split_and_meet(
        adversary_id, n, mode, listed):
    """Tables in any order, a table listed twice and a lone table give the
    plain runs' report at every horizon. In the benign cases tables escape
    from more than one start, so the dispersals' order (by table as listed,
    then by start) and their rounds are pinned too."""
    report = _matches_the_plain_runs(get_adversary(adversary_id), n, mode, TABLE_LISTS[listed])
    if adversary_id == "benign":
        escaped = [item.policy_id for item in report.dispersals]
        assert any(escaped.count(policy_id) > 1 for policy_id in escaped)


def test_a_start_on_a_walked_state_joins_its_orbit(monkeypatch):
    """With the third robot of a pile stepping clockwise, the gathered start's
    first round lands on the second start exactly. The second start's walk
    then plays no round of its own: every round it needs is in the round
    memo, played by the gathered start's walk. The reports agree with the
    plain runs anyway."""
    gathered, pair = ring_from_multiplicities((3, 0, 0)), ring_from_multiplicities((2, 1, 0))
    policies = [get_policy("k0:" + head + "ssc")
                for head in map("".join, itertools.product("sca", repeat=3))]
    benign = get_adversary("benign")
    for policy in policies:
        cfg, robots, _ = play_round(policy, benign, gathered, Mode.NONE,
                                    initial_robots(gathered))
        assert (cfg.slots, _aux(robots)) == (pair.slots, _aux(initial_robots(pair)))

    steps = []
    real_step = dynring.scheduler.step
    monkeypatch.setattr(dynring.scheduler, "step",
                        lambda *args, **kw: steps.append(1) or real_step(*args, **kw))
    for horizon in ORACLE_HORIZONS:
        assert verify_impossibility(benign, 3, Mode.NONE, policies, [gathered, pair], horizon) \
            == plain_impossibility(benign, 3, Mode.NONE, policies, [gathered, pair], horizon), \
            horizon
    # Every gathered run resolves within 200 rounds, so the second start runs
    # no round of its own.
    steps.clear()
    verify_impossibility(benign, 3, Mode.NONE, policies, [gathered, pair])
    memo_rounds = len(steps)
    steps.clear()
    verify_impossibility(benign, 3, Mode.NONE, policies, [gathered])
    assert memo_rounds == len(steps) > 0


def _recorded(monkeypatch, module, name, record):
    """Replace ``module.<name>`` by a wrapper that hands ``record`` each
    call's arguments and result."""
    real = getattr(module, name)

    def wrapper(*args):
        result = real(*args)
        record(args, result)
        return result
    monkeypatch.setattr(module, name, wrapper)


def test_the_tables_of_a_sweep_share_each_round(monkeypatch):
    """A round is played once per (state, letters), whichever table reaches
    it: the 729-table 1i-killer sweep at n=3 plays 567 rounds where running
    each table's orbits on their own plays 6,319, and its report stays the
    one every other check pins. Only a played round decides: ``play_round``
    predicts once and ``step`` decides once, and a round read off the memo
    decides nothing. A played round takes one census, of the ring it lands
    on: the walk knows every state it plays is not dispersed, so it plays the
    round with ``play_round`` and takes no census before it. The sweep keeps
    one look table, which its predictions and rounds share: it builds 24
    looks for its 567 rounds, where a look per prediction and per round
    built 1,134."""
    _assert_rounds_played(monkeypatch, "1i-killer", Mode.ONE_INTERVAL, (3, 2187), 567, 24)


def test_the_tables_of_a_permuted_sweep_share_each_round(monkeypatch):
    """The 729-table vp-killer-n3 sweep at n=3, the benchmark's other sweep,
    plays 200 distinct rounds. Its states all hold a pair, a single and a
    hole, so every round it plays reads the same three census classes, and
    its rounds see 6 distinct rings' node counts."""
    _assert_rounds_played(monkeypatch, "vp-killer-n3", Mode.VP, (2, 1458), 200, 6)


def _assert_rounds_played(monkeypatch, adversary_id, mode, starts_and_stalls, rounds, looks):
    """The 729-table sweep at n=3 blocks every run, with ``starts_and_stalls``
    as its start and stall counts, and plays ``rounds`` distinct rounds, each
    predicted, decided twice and censused once. It builds ``looks`` looks,
    one per node counts and removed edge it meets, at most
    C(2n-1, n)*(n+1) = 40 at n=3."""
    predicted, played, decisions, censuses, built = [], [], [], [], []
    for module in (dynring.scheduler, dynring.verifier):
        _recorded(monkeypatch, module, "predict_intents", lambda args, intents: predicted.append(
            (args[1].slots, _aux(args[2]), tuple(intents.items()))))
    _recorded(monkeypatch, dynring.scheduler, "step", lambda args, result: played.append(
        (args[1].slots, _aux(args[2]), tuple(result[2].intents.items()))))
    _recorded(monkeypatch, dynring.scheduler, "_decide", lambda args, _: decisions.append(args))
    _recorded(monkeypatch, dynring.scheduler, "classify", lambda args, _: censuses.append(args))
    _recorded(monkeypatch, dynring.scheduler, "ChainAnalysis", lambda args, _: built.append(
        (args[0].multiplicities(), args[0].missing_edge)))
    report = verify_impossibility(get_adversary(adversary_id), 3, mode)
    assert (report.policies_checked, report.starts_checked, report.proven_infinite,
            report.horizon_hits, report.dispersals) == (729, *starts_and_stalls, 0, ())
    assert len(played) == len(set(played)) == rounds
    assert predicted == played
    assert len(decisions) == 2 * rounds
    assert len(censuses) == rounds
    assert len(built) == len(set(built)) == looks <= math.comb(2 * 3 - 1, 3) * (3 + 1)


def test_a_sweep_interns_each_state_once(monkeypatch):
    """The 1i-killer sweep at n=3 interns each start and each played round's
    successor, and nothing else: a round read off the memo interns nothing.
    A state is its slots, as every played round keeps every robot as it
    started. Equal states share one id, and the ids number the distinct
    states in the order they are first met."""
    interned, successors = [], []
    _recorded(monkeypatch, dynring.verifier._States, "intern", lambda args, sid: interned.append(
        (args[1].slots, sid)))
    _recorded(monkeypatch, dynring.scheduler, "step", lambda args, result: successors.append(
        (result[0].slots, result[1] == args[2] == initial_robots(args[1]))))
    adversary = get_adversary("1i-killer")
    verify_impossibility(adversary, 3, Mode.ONE_INTERVAL)
    assert all(kept for _, kept in successors)
    successors = [slots for slots, _ in successors]
    starts = [cfg.slots for cfg in filtered_starts(adversary, 3)]
    assert (len(starts), len(successors)) == (3, 567)
    assert [state for state, _ in interned] == starts + successors
    ids: dict = {}
    assert [sid for _, sid in interned] == [ids.setdefault(state, len(ids))
                                            for state, _ in interned]
    assert len(ids) == len(set(starts + successors)) == 21


_LETTER_ACTIONS = {"s": Action.STAY, "c": Action.CLOCKWISE, "a": Action.ANTICLOCKWISE}


def _census_class(cfg, label):
    """The index in ``NO_VISIBILITY_DOMAIN`` of a robot's class on ``cfg``."""
    slot = next(slot for slot in cfg.slots if label in slot)
    rank = ("least", "second", "other")[min(slot.index(label), 2)]
    return NO_VISIBILITY_DOMAIN.index((min(len(slot), 3), rank))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_tables_letters_on_a_state_fix_its_intents(n):
    """The round memo's key. On every placement of the robots (one per
    rotation class, as a table reads no position) with every hand
    assignment, under every table, each robot's intent is its class's letter
    turned by its hand, and the table's letters for ``census_classes`` are
    those of the classes present, in domain order. So tables whose letters
    agree on a state predict the same intents."""
    for cfg in labeled_initial_configs(n):
        labels = cfg.labels()
        classes = [_census_class(cfg, label) for label in labels]
        present = sorted(set(classes))
        for hands in itertools.product(Orientation, repeat=n):
            robots = initial_robots(cfg, dict(zip(labels, hands)))
            turned = [{letter: convert_frame(action, hand)
                       for letter, action in _LETTER_ACTIONS.items()} for hand in hands]
            by_letters = {}
            for policy in ALL_TABLES:
                letters = "".join([policy.table[i] for i in census_classes(cfg)])
                intents = predict_intents(policy, cfg, robots)
                if letters not in by_letters:
                    # Checked once per letters: the rest must equal this.
                    assert letters == "".join(policy.table[i] for i in present)
                    assert intents == {label: turn[policy.table[c]] for label, c, turn
                                       in zip(labels, classes, turned)}, (policy, cfg, hands)
                    by_letters[letters] = intents
                assert by_letters[letters] == intents, (policy.policy_id, cfg, hands)


class _StayingRule(Policy):
    """A zero-visibility rule that is no table."""

    policy_id = "stay"
    full_visibility = False

    def decide(self, snap, robot):
        return Action.STAY, robot.memory


class _HandFlippingTable(NoVisibilityPolicy):
    """A table whose robots flip their hand after every move."""

    def after_move(self, robot, memory, mates):
        return robot.orientation.flipped(), memory


@pytest.mark.parametrize("rule", [get_policy("vp-1i"), _StayingRule(),
                                  _HandFlippingTable("cacacs")],
                         ids=["vp-1i", "stay", "table-subclass"])
def test_impossibility_runs_refuse_a_rule_that_is_no_table(monkeypatch, rule):
    """A rule that is not a plain table is refused before any round is
    played, even behind a table. The line names the rule's class as well as
    its id, since a subclass of a table has a table's id."""
    played = []
    _recorded(monkeypatch, dynring.scheduler, "step", lambda args, _: played.append(args))
    with pytest.raises(ScenarioError, match="impossibility runs are for zero-visibility tables") \
            as refused:
        verify_impossibility(get_adversary("1i-killer"), 3, Mode.ONE_INTERVAL,
                             [get_policy("k0:cacacs"), rule])
    assert f"{type(rule).__name__} {rule.policy_id!r}" in str(refused.value)
    assert played == []


def test_a_table_reads_nothing_of_its_table_but_its_actions():
    """The round memo's premise: a table's ``decide`` keeps the robot's
    memory, and the rest of its round is ``Policy``'s, so two tables with
    the same intents play the same round."""
    for name in ("actors", "after_move", "round_guarantees", "guarantees"):
        assert getattr(NoVisibilityPolicy, name) is getattr(Policy, name), name
    memory = object()
    for cfg in enumerate_initial_configs(3, up_to_reflection=False):
        robots = tuple(RobotState(label, hand, memory)
                       for label, hand in zip(cfg.labels(), itertools.cycle(Orientation)))
        analysis = ChainAnalysis(cfg)
        for policy in ALL_TABLES:
            assert set(vars(policy)) == {"table", "policy_id"}
            _, decided, _ = dynring.scheduler._decide(policy, analysis, cfg.slots, robots)
            assert sorted(decided) == list(cfg.labels())
            assert all(m is memory for _, m in decided.values()), (policy.policy_id, cfg)


def test_a_sweep_refuses_a_round_that_changes_a_robot(monkeypatch):
    """A sweep state is its slots because a plain table never changes a
    robot; a played round that returns a robot with another hand raises."""
    real = dynring.scheduler.step

    def flipping(*args):
        cfg, robots, trace = real(*args)
        first = RobotState(1, robots[0].orientation.flipped(), robots[0].memory)
        return cfg, (first,) + robots[1:], trace
    monkeypatch.setattr(dynring.scheduler, "step", flipping)
    with pytest.raises(RuntimeError, match="k0:cacacs changed a robot"):
        verify_impossibility(get_adversary("benign"), 3, Mode.NONE, [get_policy("k0:cacacs")])
