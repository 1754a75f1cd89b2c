"""Unit and property tests for the decision rules and their guarantees."""
from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conftest import configured_scenarios, snapshot_facts
from naive_policies import naive_intents
from dynring import (
    Action,
    ChainAnalysis,
    Dynamism,
    EVEN4_WORST_ROUNDS,
    Mode,
    Orientation,
    PREPROCESS_DONE,
    RobotState,
    ScenarioError,
    Snapshot,
    all_no_visibility_policies,
    all_on_one,
    check_round_lemmas,
    classify,
    get_policy,
    holes_filled_count,
    initial_robots,
    predict_intents,
    reflect,
    ring_from_multiplicities,
    ring_from_slots,
    rotate,
    step,
    validate_scenario,
)
from dynring.policies import (
    four_node_state,
    four_node_transitions,
    holes_decrease_or_multinodes_increase,
    holes_strictly_decrease,
)

CW, ACW, STAY = Action.CLOCKWISE, Action.ANTICLOCKWISE, Action.STAY


def intents_of(policy_id, cfg, orientations=None, memory=None):
    policy = get_policy(policy_id)
    robots = initial_robots(cfg, orientations)
    if memory is not None:
        robots = tuple(RobotState(r.label, r.orientation, memory) for r in robots)
    return predict_intents(policy, cfg, robots)


# ----------------------------------------------------------------- registry


def test_registry_and_zero_visibility_ids():
    for policy_id in ("vp-chain", "vp-1i", "no-chir-1i", "achiral-odd", "even4"):
        assert get_policy(policy_id).policy_id == policy_id
    assert get_policy("k0:ssssss").policy_id == "k0:ssssss"
    with pytest.raises(ScenarioError):
        get_policy("nope")
    with pytest.raises(ScenarioError):
        get_policy("k0:ssss")
    with pytest.raises(ScenarioError):
        get_policy("k0:xxssss")
    tables = {p.policy_id for p in all_no_visibility_policies()}
    assert len(tables) == 3 ** 6


def test_scenario_requirements():
    cfg = all_on_one(4)
    vp = get_policy("vp-chain")
    robots = initial_robots(cfg)
    with pytest.raises(ScenarioError):
        vp.check_scenario(4, Mode.ONE_INTERVAL, cfg, robots)
    mixed = (robots[0],) + tuple(
        RobotState(r.label, Orientation.REVERSED, r.memory) for r in robots[1:])
    with pytest.raises(ScenarioError):
        vp.check_scenario(4, Mode.VP, cfg, mixed)
    with pytest.raises(ScenarioError):
        get_policy("achiral-odd").check_scenario(4, Mode.COMBINED, all_on_one(4),
                                                initial_robots(all_on_one(4)))
    with pytest.raises(ScenarioError):
        get_policy("even4").check_scenario(5, Mode.COMBINED, all_on_one(5),
                                          initial_robots(all_on_one(5)))


def test_proven_bound_formulas():
    assert get_policy("vp-chain").proven_bound(10) == 9
    assert get_policy("vp-1i").proven_bound(10) == 9
    assert get_policy("no-chir-1i").proven_bound(10) == 10
    assert get_policy("achiral-odd").proven_bound(7) == 4 + 2 * 7 - 2
    assert get_policy("even4").proven_bound(4) == EVEN4_WORST_ROUNDS


# -------------------------------------------------------------- rule tables


def test_clockwise_chain_rule_moves_the_clockwise_chains():
    cfg = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)))
    got = intents_of("vp-chain", cfg)
    # Robot 1 leads the pile toward its clockwise chain; robot 4 rides that
    # chain; robot 5 sits on the anticlockwise chain and waits.
    assert got == {1: CW, 2: STAY, 3: STAY, 4: CW, 5: STAY}


def test_good_chain_rule_prefers_clockwise_and_respects_edges():
    cfg = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)))
    assert intents_of("vp-1i", cfg) == {1: CW, 2: STAY, 3: STAY, 4: CW, 5: STAY}
    # Removing edge 0 breaks the clockwise chain, so the anticlockwise one
    # is followed instead.
    broken = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)), missing_edge=0)
    assert intents_of("vp-1i", broken) == {1: ACW, 2: STAY, 3: STAY, 4: STAY, 5: ACW}


def test_shorter_chain_rule_breaks_ties_clockwise():
    equal = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)))
    # Both chains have one singleton; the leader falls back on its own
    # clockwise, the singletons wait for each other.
    assert intents_of("achiral-odd", equal) == {1: CW, 2: STAY, 3: STAY, 4: STAY, 5: STAY}
    shorter = ring_from_slots(((1, 2, 3, 4), (5,), (), (), ()))
    # The anticlockwise chain is empty and therefore shorter; the lone
    # singleton defers to it as well.
    assert intents_of("achiral-odd", shorter) == {1: ACW, 2: STAY, 3: STAY, 4: STAY, 5: STAY}


def test_four_ring_rule_walks_the_proven_state_graph():
    three_one = ring_from_slots(((1, 2, 3), (4,), (), ()))
    # The empty anticlockwise chain is shorter, so the leader takes it and
    # the one-singleton chain waits.
    assert intents_of("even4", three_one) == {1: ACW, 2: STAY, 3: STAY, 4: STAY}
    assert four_node_state(classify(ring_from_slots(((2, 3), (4,), (), (1,))))) == 3

    two_two = ring_from_slots(((1, 2), (), (3, 4), ()))
    # Opposite pairs: both leaders sit between two holes and step clockwise.
    assert intents_of("even4", two_two) == {1: CW, 2: STAY, 3: CW, 4: STAY}

    two_one_one = ring_from_slots(((1, 2), (3,), (4,), ()))
    # Leader takes the empty chain; the two-singleton chain holds still.
    assert intents_of("even4", two_one_one) == {1: ACW, 2: STAY, 3: STAY, 4: STAY}


def test_adjacent_pairs_split_outward():
    cfg = ring_from_slots(((1, 2), (3, 4), (), ()))
    # Each pair anchors a single chain, pointing away from the other pair,
    # so the two leaders separate and the ring disperses in one round.
    assert intents_of("even4", cfg) == {1: ACW, 2: STAY, 3: CW, 4: STAY}


def test_zero_visibility_table_is_followed():
    # Table order: (1,least) (2,least) (2,second) (3,least) (3,second) (3,other).
    cfg = ring_from_slots(((1, 4), (2,), (3, 5, 6), (), (), ()))
    got = intents_of("k0:cascas", cfg)
    assert got == {2: CW, 1: ACW, 4: STAY, 3: CW, 5: ACW, 6: STAY}


def test_reversed_robot_flips_global_direction():
    cfg = ring_from_slots(((1,), (2, 3), ()))
    aligned = intents_of("k0:ccssss", cfg)
    assert aligned == {1: CW, 2: CW, 3: STAY}
    reversed_all = intents_of("k0:ccssss", cfg,
                              orientations={1: Orientation.REVERSED,
                                            2: Orientation.REVERSED,
                                            3: Orientation.REVERSED})
    assert reversed_all == {1: ACW, 2: ACW, 3: STAY}


# ------------------------------------------------------------- composition


def test_gathered_start_preprocess_and_flip():
    policy = get_policy("no-chir-1i")
    cfg = all_on_one(3)
    robots = initial_robots(cfg, {1: Orientation.ALIGNED,
                                  2: Orientation.REVERSED,
                                  3: Orientation.ALIGNED})
    got = predict_intents(policy, cfg, robots)
    # Everyone steps its own clockwise, which splits the pile in two.
    assert got == {1: CW, 2: ACW, 3: CW}

    landed = ring_from_slots(((), (1, 3), (2,)))
    moved = robots[1]
    orientation, memory = policy.after_move(moved, ("moved", 1), landed.slots[2])
    # Robot 2 lost sight of robot 1, so it flips to match robot 1's frame.
    assert orientation is Orientation.ALIGNED and memory == PREPROCESS_DONE
    stayed = robots[2]
    orientation, memory = policy.after_move(stayed, ("moved", 1), landed.slots[1])
    assert orientation is Orientation.ALIGNED and memory == PREPROCESS_DONE


def test_gathered_start_required_when_memory_fresh():
    """Before its robots agree, ``no-chir-1i`` is refused a start that is no
    pile where the start enters; once they agree, any start will do."""
    policy = get_policy("no-chir-1i")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    with pytest.raises(ScenarioError, match="^policy no-chir-1i must start with all robots "
                                            "on one node$"):
        validate_scenario(policy, None, cfg, initial_robots(cfg), Mode.NONE)
    validate_scenario(policy, None, all_on_one(3), initial_robots(all_on_one(3)), Mode.NONE)
    agreed = tuple(RobotState(r.label, r.orientation, PREPROCESS_DONE)
                   for r in initial_robots(cfg))
    validate_scenario(policy, None, cfg, agreed, Mode.NONE)


def test_four_ring_rule_uses_chain_phase_after_gathering():
    """Once agreed, the rule claims the good-chain guarantee; before, its
    four-node graph, except in the preprocessing round, which claims none."""
    policy = get_policy("even4")
    cfg = ring_from_slots(((1, 2), (3,), (), (4,)))
    robots = tuple(RobotState(r.label, r.orientation, PREPROCESS_DONE)
                   for r in initial_robots(cfg))
    assert policy.round_guarantees(ChainAnalysis(cfg), robots) == (holes_strictly_decrease,)
    fresh = initial_robots(cfg)
    assert policy.round_guarantees(ChainAnalysis(cfg), fresh) == (four_node_transitions,)
    assert policy.round_guarantees(ChainAnalysis(all_on_one(4)),
                                   initial_robots(all_on_one(4))) == ()


@pytest.mark.parametrize("policy_id", ["no-chir-1i", "even4"])
@pytest.mark.parametrize("cfg", [ring_from_slots(((1, 2), (3,), (), (4,))), all_on_one(4)],
                         ids=["chains", "gathered"])
def test_preprocess_rules_refuse_robots_that_disagree(policy_id, cfg):
    """A start on which some robots have agreed on a hand and others have
    not is refused where it enters, on a gathered pile too."""
    robots = tuple(RobotState(r.label, r.orientation, PREPROCESS_DONE if r.label == 2 else None)
                   for r in initial_robots(cfg))
    with pytest.raises(ScenarioError, match="^robots disagree on"):
        validate_scenario(get_policy(policy_id), None, cfg, robots, Mode.NONE)


# --------------------------------------------------------------- symmetries


PLAIN_RULES = ("vp-chain", "vp-1i", "achiral-odd", "even4", "k0:cascsa")


@settings(max_examples=1500, deadline=None)
@given(configured_scenarios(min_n=2, max_n=9), st.sampled_from(PLAIN_RULES))
def test_rules_match_the_plain_transcription(scenario, policy_id):
    """Every rule decides as its plain transcription does on any ring, not
    only on the states the exhaustive searches reach: mixed hands and a
    removed edge included."""
    cfg, robots = scenario
    assert predict_intents(get_policy(policy_id), cfg, robots) == \
        naive_intents(policy_id)(cfg, robots)


@settings(max_examples=120, deadline=None)
@given(configured_scenarios(min_n=2, max_n=7), st.sampled_from(PLAIN_RULES), st.data())
def test_decisions_ignore_node_names(scenario, policy_id, data):
    """Rotating the ring never changes any robot's global action."""
    cfg, robots = scenario
    policy = get_policy(policy_id)
    turned = rotate(cfg, data.draw(st.integers(0, cfg.n - 1)))
    assert predict_intents(policy, cfg, robots) == predict_intents(policy, turned, robots)


def _flipped(robots):
    return tuple(RobotState(r.label, r.orientation.flipped(), r.memory) for r in robots)


@settings(max_examples=120, deadline=None)
@given(configured_scenarios(min_n=2, max_n=7), st.sampled_from(PLAIN_RULES))
def test_mirrored_world_mirrors_decisions(scenario, policy_id):
    """Reflecting the ring and flipping every robot leaves each robot's own
    view unchanged, so global actions must invert."""
    cfg, robots = scenario
    policy = get_policy(policy_id)
    mirrored = reflect(cfg, 0)
    flipped = _flipped(robots)
    direct = predict_intents(policy, cfg, robots)
    through_mirror = predict_intents(policy, mirrored, flipped)
    assert through_mirror == {label: act.inverse() for label, act in direct.items()}


@pytest.mark.parametrize("policy_id", PLAIN_RULES + ("no-chir-1i",))
@settings(max_examples=150, deadline=None)
@given(configured_scenarios(min_n=2, max_n=7, allow_edge=False), st.data())
def test_mirrored_world_mirrors_whole_rounds(policy_id, scenario, data):
    """A round in the mirror world, the ring reflected with every hand
    flipped and the removed edge reflected too, ends in the mirror of the
    round's successor, memory and ``after_move`` included. The worst-case
    search merges each state with this twin. The robots all have agreed on
    a hand or none has, and a rule that needs a gathered start gets one
    before they agree: the starts ``check_scenario`` accepts."""
    cfg, robots = scenario
    n = cfg.n
    policy = get_policy(policy_id)
    memory = data.draw(st.sampled_from((None, PREPROCESS_DONE)))
    # A gathered pile starts the preprocessing round.
    if (policy.gathered_start and memory is None) or data.draw(st.booleans()):
        node = data.draw(st.integers(0, n - 1))
        cfg = ring_from_slots([cfg.labels() if i == node else () for i in range(n)])
    robots = tuple(RobotState(r.label, r.orientation, memory) for r in robots)
    edge = data.draw(st.none() | st.integers(0, n - 1))

    next_cfg, settled, trace = step(policy, cfg, robots, Dynamism(None, edge))
    twin_cfg, twin_settled, twin_trace = step(
        policy, reflect(cfg, 0), _flipped(robots),
        Dynamism(None, None if edge is None else (-edge - 1) % n))
    assert twin_cfg == reflect(next_cfg, 0)
    assert twin_settled == _flipped(settled)
    assert twin_trace.intents == {label: act.inverse() for label, act in trace.intents.items()}
    assert policy.round_guarantees(ChainAnalysis(twin_trace.config_seen), _flipped(robots)) == \
        policy.round_guarantees(ChainAnalysis(trace.config_seen), robots)
    assert (twin_trace.metrics_after, twin_trace.violations) == \
        (trace.metrics_after, trace.violations)


@settings(max_examples=120, deadline=None)
@given(configured_scenarios(min_n=2, max_n=7))
def test_mirrored_world_gives_identical_snapshots(scenario):
    """A robot cannot tell the world from its mirror image once its hand is
    flipped too: every snapshot fact, chain order included, is the same."""
    cfg, robots = scenario
    mirrored = reflect(cfg, 0)
    direct, mirror = ChainAnalysis(cfg), ChainAnalysis(mirrored)
    at = cfg.positions()
    for r in robots:
        flipped = RobotState(r.label, r.orientation.flipped(), r.memory)
        assert (snapshot_facts(Snapshot(mirror, mirrored.slots, -at[r.label] % cfg.n, flipped))
                == snapshot_facts(Snapshot(direct, cfg.slots, at[r.label], r)))


@settings(max_examples=120, deadline=None)
@given(configured_scenarios(min_n=2, max_n=7), st.sampled_from(PLAIN_RULES), st.data())
def test_plain_rules_keep_memory(scenario, policy_id, data):
    cfg, robots = scenario
    policy = get_policy(policy_id)
    analysis = ChainAnalysis(cfg)
    robot = data.draw(st.sampled_from(robots))
    node = cfg.positions()[robot.label]
    if policy_id == "even4" and len(cfg.slots[node]) == cfg.n:
        # The gathered pile triggers the one remembering round instead.
        return
    _, memory = policy.decide(Snapshot(analysis, cfg.slots, node, robot), robot)
    assert memory is robot.memory
    orientation, kept = policy.after_move(robot, memory, cfg.slots[node])
    assert orientation is robot.orientation and kept is memory


# ------------------------------------------------------------ lemma checks


def round_lemmas(guarantees, cfg1, cfg2):
    """``check_round_lemmas`` on the census of the seen and the landed ring."""
    return check_round_lemmas(guarantees, classify(cfg1), classify(cfg2),
                              holes_filled_count(cfg1, cfg2))


def test_lemma_checker_bounds_multinode_drops():
    # This bound is checked for every rule, even ones claiming nothing else.
    claimed = get_policy("k0:ssssss").guarantees
    merged = round_lemmas(
        claimed,
        ring_from_slots(((1, 2), (3, 4), (), ())),
        ring_from_slots(((1, 2, 3, 4), (), (), ())))
    assert [v.guarantee for v in merged] == ["multinode-drop-bounded"]
    fine = round_lemmas(
        claimed,
        ring_from_slots(((1, 2), (3, 4), (), ())),
        ring_from_slots(((1,), (3,), (2,), (4,))))
    assert fine == []


def test_lemma_checker_flags_stalled_holes():
    claimed = get_policy("vp-chain").guarantees
    assert claimed == (holes_strictly_decrease,)
    stalled = round_lemmas(
        claimed,
        ring_from_slots(((1, 2), (3,), (), (4,))),
        ring_from_slots(((1, 2), (3,), (), (4,))))
    assert [(v.guarantee, v.detail) for v in stalled] == [("holes-strictly-decrease",
                                                           "holes 1->1")]


def test_lemma_checker_accepts_new_multinode_for_stalled_holes():
    claimed = get_policy("achiral-odd").guarantees
    assert claimed == (holes_decrease_or_multinodes_increase,)
    cfg1 = ring_from_slots(((1, 2, 3, 4), (5,), (), (), ()))
    grew = round_lemmas(claimed, cfg1,
                        ring_from_slots(((1, 2), (3, 4, 5), (), (), ())))
    assert grew == []
    stalled = round_lemmas(claimed, cfg1, cfg1)
    assert [v.guarantee for v in stalled] == ["holes-decrease-or-multinodes-increase"]


def test_four_node_state_labels():
    assert four_node_state(classify(all_on_one(4))) == 1
    assert four_node_state(classify(ring_from_multiplicities([3, 1, 0, 0]))) == 2
    assert four_node_state(classify(ring_from_multiplicities([2, 1, 0, 1]))) == 3
    assert four_node_state(classify(ring_from_multiplicities([2, 0, 2, 0]))) == 4
    assert four_node_state(classify(ring_from_multiplicities([1, 1, 1, 1]))) is None
    assert four_node_state(classify(all_on_one(3))) is None


def test_four_node_state_is_read_off_the_census():
    """Every 4-node occupancy vector gets the state of its shape."""
    shapes = {(4, 0, 0, 0): 1, (3, 1, 0, 0): 2, (2, 1, 1, 0): 3, (2, 2, 0, 0): 4}
    for counts in itertools.product(range(5), repeat=4):
        if sum(counts) == 4:
            state = four_node_state(classify(ring_from_multiplicities(counts)))
            assert state == shapes.get(tuple(sorted(counts, reverse=True))), counts


def test_lemma_checker_tracks_four_ring_transitions():
    claimed = get_policy("even4").guarantees
    assert claimed == (four_node_transitions,)
    bad = round_lemmas(
        claimed,
        ring_from_slots(((1, 2, 3), (4,), (), ())),
        ring_from_slots(((1, 2), (), (3, 4), ())))
    assert [(v.guarantee, v.detail) for v in bad] == [("four-node-transitions",
                                                       "four-node state 2 moved to 4")]
    good = round_lemmas(
        claimed,
        ring_from_slots(((1, 2, 3), (4,), (), ())),
        ring_from_slots(((1, 2), (3,), (4,), ())))
    assert good == []
