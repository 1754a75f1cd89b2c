"""Unit and property tests for the round engine."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ring_configs
from dynring import (
    Action,
    Dynamism,
    Mode,
    Orientation,
    PREPROCESS_DONE,
    RobotState,
    ScenarioError,
    all_on_one,
    classify,
    get_adversary,
    get_policy,
    initial_robots,
    predict_intents,
    ring_from_slots,
    run_simulation,
    step,
    validate_scenario,
)

CW, ACW, STAY = Action.CLOCKWISE, Action.ANTICLOCKWISE, Action.STAY


# -------------------------------------------------------------------- rounds


def test_step_runs_look_decide_move_in_order():
    policy = get_policy("vp-chain")
    cfg = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)))
    robots = initial_robots(cfg, policy)
    nxt, moved, trace = step(policy, cfg, robots, Dynamism())
    assert trace.phase == "main"
    assert [(i.label, i.action) for i in trace.intents] == [
        (1, CW), (2, STAY), (3, STAY), (4, CW), (5, STAY)]
    assert trace.config_seen == cfg
    assert nxt.slots == ((2, 3), (1,), (4,), (), (5,))
    assert trace.holes_filled == 1
    assert trace.violations == ()
    assert {r.label: r.node for r in moved} == nxt.positions()


def test_step_applies_dynamism_before_the_look():
    policy = get_policy("vp-chain")
    cfg = ring_from_slots(((1, 2), (3,), (), (4,)))
    robots = initial_robots(cfg, policy)
    shuffle = Dynamism((2, 3, 0, 1), None)
    nxt, moved, trace = step(policy, cfg, robots, shuffle)
    # The pair travels to node 2 before anyone looks; decisions are made
    # on the shuffled ring.
    assert trace.config_seen.slots == ((), (4,), (1, 2), (3,))
    assert {r.label: r.node for r in moved} == nxt.positions()


def test_step_demands_an_intact_start_and_clears_the_edge():
    policy = get_policy("vp-1i")
    cfg = ring_from_slots(((1, 2), (3,), (), (4,)))
    robots = initial_robots(cfg, policy)
    with pytest.raises(ValueError):
        step(policy, cfg.__class__(cfg.n, cfg.slots, 0), robots, Dynamism())
    nxt, _, trace = step(policy, cfg, robots, Dynamism(None, 2))
    assert trace.config_seen.missing_edge == 2
    assert trace.config_after.missing_edge == 2
    assert nxt.missing_edge is None


def test_blocked_intent_is_visible_in_the_trace():
    # A zero-visibility rule cannot see the removed edge, so its intent
    # stands but the crossing fails.
    policy = get_policy("k0:ccssss")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    robots = initial_robots(cfg, policy)
    nxt, _, trace = step(policy, cfg, robots, Dynamism(None, 1))
    acts = {i.label: i.action for i in trace.intents}
    assert acts[1] is CW and acts[3] is CW
    # Robot 3 wanted to cross the missing edge and stayed; robot 1 joins it.
    assert nxt.slots == ((2,), (1, 3), ())


def test_prediction_mismatch_is_an_error():
    policy = get_policy("vp-chain")
    cfg = ring_from_slots(((1, 2), (3,), (), (4,)))
    robots = initial_robots(cfg, policy)
    right = predict_intents(policy, cfg, robots)
    step(policy, cfg, robots, Dynamism(), predicted=right)
    wrong = dict(right)
    wrong[1] = ACW
    with pytest.raises(RuntimeError):
        step(policy, cfg, robots, Dynamism(), predicted=wrong)


def test_preprocess_round_aligns_every_orientation():
    policy = get_policy("no-chir-1i")
    cfg = all_on_one(3)
    robots = initial_robots(cfg, policy, {1: Orientation.REVERSED,
                                          2: Orientation.ALIGNED,
                                          3: Orientation.REVERSED})
    nxt, settled, trace = step(policy, cfg, robots, Dynamism())
    assert trace.phase == "preprocess"
    assert {r.memory for r in settled} == {PREPROCESS_DONE}
    # Everyone ends up sharing robot 1's sense of clockwise.
    assert {r.orientation for r in settled} == {Orientation.REVERSED}
    assert classify(nxt).multinodes == 1


# ---------------------------------------------------------------- full runs


def test_clockwise_chain_run_disperses_benignly():
    policy = get_policy("vp-chain")
    cfg = all_on_one(5)
    result = run_simulation(policy, get_adversary("benign"), cfg, Mode.NONE)
    assert result.outcome == "dispersed" and result.dispersed
    assert result.rounds == len(result.traces) == 4
    assert classify(result.final_config).dispersed
    assert result.violations == ()


def test_runs_are_reproducible_by_seed():
    policy = get_policy("vp-1i")
    cfg = all_on_one(6)
    first = run_simulation(policy, get_adversary("random"), cfg, Mode.COMBINED, seed=77)
    second = run_simulation(policy, get_adversary("random"), cfg, Mode.COMBINED, seed=77)
    assert [t.dynamism for t in first.traces] == [t.dynamism for t in second.traces]
    assert first.final_config == second.final_config
    assert first.outcome == second.outcome


def test_round_budget_is_honoured():
    # A table that never moves anyone cannot disperse the pile.
    policy = get_policy("k0:ssssss")
    cfg = all_on_one(3)
    result = run_simulation(policy, get_adversary("benign"), cfg, Mode.NONE,
                            max_rounds=7)
    assert result.outcome == "round-limit"
    assert result.rounds == 7
    assert not result.dispersed


def test_adaptive_run_uses_exact_predictions():
    policy = get_policy("k0:sccsss")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    result = run_simulation(policy, get_adversary("vp-killer-n3"), cfg, Mode.VP,
                            max_rounds=25)
    assert result.outcome == "round-limit"
    assert all(sorted(t.config_after.multiplicities()) == [0, 1, 2]
               for t in result.traces)


# --------------------------------------------------------------- validation


def test_scenario_validation_rejects_mismatches():
    vp = get_policy("vp-chain")
    cfg = all_on_one(4)
    robots = initial_robots(cfg, vp)
    validate_scenario(vp, get_adversary("benign"), cfg, robots, Mode.VP, 2)
    with pytest.raises(ScenarioError):
        validate_scenario(vp, get_adversary("benign"), cfg, robots, Mode.COMBINED, 2)
    with pytest.raises(ScenarioError):
        validate_scenario(vp, get_adversary("benign"), cfg, robots, Mode.VP, 1)
    with pytest.raises(ScenarioError):
        validate_scenario(vp, get_adversary("benign"), cfg, robots, Mode.VP, 9)
    with pytest.raises(ScenarioError):
        validate_scenario(vp, get_adversary("vp-killer"), cfg, robots, Mode.VP, 2)
    stray = (RobotState(1, 2, Orientation.ALIGNED, None),) + robots[1:]
    with pytest.raises(ScenarioError):
        validate_scenario(vp, get_adversary("benign"), cfg, stray, Mode.VP, 2)


def test_zero_visibility_rules_accept_k_zero():
    policy = get_policy("k0:scascs")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    robots = initial_robots(cfg, policy)
    validate_scenario(policy, get_adversary("vp-killer-n3"), cfg, robots, Mode.VP, 0)


# ------------------------------------------------------------ conservation


@settings(max_examples=100, deadline=None)
@given(ring_configs(min_n=2, max_n=7, allow_edge=False), st.data())
def test_rounds_conserve_robots(cfg, data):
    """No robot is ever lost or duplicated, whatever the round does."""
    policy = get_policy(data.draw(st.sampled_from(
        ("vp-chain", "vp-1i", "achiral-odd", "k0:cascas"))))
    robots = initial_robots(cfg, policy)
    perm = tuple(data.draw(st.permutations(range(cfg.n))))
    edge = data.draw(st.one_of(st.none(), st.integers(0, cfg.n - 1)))
    nxt, moved, trace = step(policy, cfg, robots, Dynamism(perm, edge))
    assert nxt.labels() == tuple(range(1, cfg.n + 1))
    assert sorted(r.label for r in moved) == list(range(1, cfg.n + 1))
    assert {r.label: r.node for r in moved} == nxt.positions()
    assert trace.metrics_after.holes == nxt.multiplicities().count(0)
