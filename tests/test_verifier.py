"""Unit and property tests for enumeration and the exhaustive checkers."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from naive_policies import naive_intents
from dynring import (
    Action,
    Mode,
    MoveIntent,
    RobotState,
    ScenarioError,
    all_on_one,
    canonical_rotation,
    classify,
    default_verification_roots,
    enumerate_initial_configs,
    enumerate_multiplicity_profiles,
    get_adversary,
    get_policy,
    initial_robots,
    predict_intents,
    profile_necklace_count,
    resolve_moves,
    ring_from_slots,
    rotate,
    step,
    verify_impossibility,
    verify_worst_case,
)
from dynring.verifier import WorstCaseSearcher, _orientation_assignments


# -------------------------------------------------------------- enumeration


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
    labeled = enumerate_initial_configs(3, labeled=True)
    assert len(labeled) == 9
    assert len({canonical_rotation(c).slots for c in labeled}) == 9
    with pytest.raises(ScenarioError):
        enumerate_initial_configs(9)
    with pytest.raises(ScenarioError):
        enumerate_initial_configs(7, labeled=True)


# ------------------------------------------------------------- bound checks


def test_worst_case_search_on_smallest_ring():
    policy = get_policy("vp-chain")
    report = verify_worst_case(policy, 3, Mode.VP,
                               starts=enumerate_initial_configs(3),
                               orientations="aligned")
    assert report.holds and not report.has_cycle
    assert report.worst_rounds == 2 and report.bound == 2
    assert report.lemma_violations == () and report.decision_mismatches == ()
    # The witness replays the worst line: it must truly take that long.
    assert len(report.witness) == 2
    assert classify(report.witness[-1].config_after).dispersed
    assert not classify(report.witness[0].config_after).dispersed


@pytest.mark.parametrize("policy_id,n,mode", [
    ("vp-chain", 5, Mode.VP),
    ("even4", 4, Mode.COMBINED),
])
def test_witness_is_optimal_from_every_rotation(policy_id, n, mode):
    """The memo is keyed up to rotation, so a witness may start in any frame
    of a memoized state. From every rotation of every worst root, each
    witness round lowers the memoized value by exactly one."""
    policy = get_policy(policy_id)
    starts, orientations = default_verification_roots(policy, n)
    report = verify_worst_case(policy, n, mode, starts=starts, orientations=orientations)
    assert len(report.witness) == report.worst_rounds

    searcher = WorstCaseSearcher(policy, mode, k=policy.min_visibility(n))
    worst_roots = []
    for cfg in starts:
        for hands in _orientation_assignments(n, orientations):
            robots = initial_robots(cfg, policy, dict(enumerate(hands, start=1)))
            if searcher.value(cfg, robots) == report.worst_rounds:
                worst_roots.append((cfg, robots))
    assert worst_roots

    for root_cfg, root_robots in worst_roots:
        for shift in range(n):
            cfg = rotate(root_cfg, shift)
            robots = tuple(RobotState(r.label, (r.node + shift) % n, r.orientation, r.memory)
                           for r in root_robots)
            witness = searcher.witness(cfg, robots)
            assert len(witness) == report.worst_rounds
            value = searcher._settled_value(cfg, robots)
            for trace in witness:
                cfg, robots, _ = step(policy, cfg, robots, trace.dynamism, k=searcher.k)
                assert cfg.slots == trace.config_after.slots
                assert searcher._settled_value(cfg, robots) == value - 1
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
    policy = get_policy("vp-chain")

    def lazy_oracle(cfg, robots):
        return {robot.label: Action.STAY for robot in robots}

    report = verify_worst_case(policy, 3, Mode.VP,
                               starts=enumerate_initial_configs(3),
                               orientations="aligned", oracle=lazy_oracle)
    assert report.decision_mismatches != ()
    assert not report.holds


def test_search_agrees_with_independent_transcription():
    policy = get_policy("vp-1i")
    report = verify_worst_case(policy, 4, Mode.COMBINED,
                               starts=enumerate_initial_configs(4),
                               orientations="aligned",
                               oracle=naive_intents("vp-1i"))
    assert report.holds and report.worst_rounds == 3
    assert report.decision_mismatches == ()


def test_default_roots_respect_each_policy():
    gathered, orientations = default_verification_roots(get_policy("no-chir-1i"), 5)
    assert [c.slots for c in gathered] == [all_on_one(5).slots]
    assert orientations == "all"
    starts, orientations = default_verification_roots(get_policy("vp-chain"), 4)
    assert len(starts) == 8 and orientations == "aligned"
    starts, orientations = default_verification_roots(get_policy("achiral-odd"), 3)
    assert len(starts) == 3 and orientations == "all"


# ------------------------------------------------------------ impossibility


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
    robots = initial_robots(cfg, policy)
    intents = predict_intents(policy, cfg, robots)
    landed = resolve_moves(cfg, [MoveIntent(l, a) for l, a in intents.items()])
    assert classify(landed).dispersed

    report = verify_impossibility(get_adversary("vp-killer-n3"), 3, Mode.VP,
                                  policies=[policy])
    assert report.all_blocked and report.proven_infinite == report.starts_checked


def test_edge_blocker_impossibility_on_two_nodes():
    report = verify_impossibility(get_adversary("1i-killer"), 2, Mode.ONE_INTERVAL,
                                  policies=[get_policy("k0:" + t)
                                            for t in ("cascas", "caccca", "aaaaaa")])
    assert report.all_blocked
    assert report.horizon_hits == 0
