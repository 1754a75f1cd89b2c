"""Unit and property tests for the round engine."""
from __future__ import annotations

import gc
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import dynring.scheduler
from conftest import placed_robots, ring_configs, snapshot_facts
from moves import dense_resolve_moves
from dynring import (
    Action,
    ChainAnalysis,
    Dynamism,
    Mode,
    Orientation,
    POLICIES,
    PREPROCESS_DONE,
    Policy,
    RobotState,
    ScenarioError,
    Snapshot,
    all_on_one,
    classify,
    convert_frame,
    get_adversary,
    get_policy,
    holes_filled_count,
    initial_robots,
    moved_counts,
    play_round,
    predict_intents,
    random_configuration,
    ring_from_multiplicities,
    ring_from_slots,
    run_simulation,
    step,
    validate_scenario,
)
from dynring.verifier import _compositions

CW, ACW, STAY = Action.CLOCKWISE, Action.ANTICLOCKWISE, Action.STAY


# -------------------------------------------------------------------- rounds


def test_step_runs_look_decide_move_in_order():
    policy = get_policy("vp-chain")
    cfg = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)))
    robots = initial_robots(cfg)
    nxt, _, trace = step(policy, cfg, robots, Dynamism())
    assert trace.intents == {1: CW, 2: STAY, 3: STAY, 4: CW, 5: STAY}
    assert trace.config_seen == cfg
    assert nxt.slots == ((2, 3), (1,), (4,), (), (5,))
    assert holes_filled_count(trace.config_seen, trace.config_after) == 1
    assert trace.violations == ()


def test_step_applies_dynamism_before_the_look():
    policy = get_policy("vp-chain")
    cfg = ring_from_slots(((1, 2), (3,), (), (4,)))
    robots = initial_robots(cfg)
    shuffle = Dynamism((2, 3, 0, 1), None)
    _, _, trace = step(policy, cfg, robots, shuffle)
    # The pair travels to node 2 before anyone looks; decisions are made
    # on the shuffled ring.
    assert trace.config_seen.slots == ((), (4,), (1, 2), (3,))


def test_a_round_needs_an_intact_start_and_step_clears_the_edge():
    """A start with a removed edge is refused where it enters, so ``step``
    trusts its ring; the edge a round removes is gone from the next ring."""
    policy = get_policy("vp-1i")
    cfg = ring_from_slots(((1, 2), (3,), (), (4,)))
    robots = initial_robots(cfg)
    cut = cfg.__class__(cfg.n, cfg.slots, 0)
    with pytest.raises(ScenarioError, match=r"^a round starts from a ring with no removed "
                                            r"edge, not <ring 1,2 3 \. 4 !e0>$"):
        validate_scenario(policy, None, cut, robots, Mode.COMBINED)
    nxt, _, trace = step(policy, cfg, robots, Dynamism(None, 2))
    assert trace.config_seen.missing_edge == 2
    assert trace.config_after.missing_edge == 2
    assert nxt.missing_edge is None


def test_blocked_intent_is_visible_in_the_trace():
    # A zero-visibility rule cannot see the removed edge, so its intent
    # stands but the crossing fails.
    policy = get_policy("k0:ccssss")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    robots = initial_robots(cfg)
    nxt, _, trace = step(policy, cfg, robots, Dynamism(None, 1))
    assert trace.intents[1] is CW and trace.intents[3] is CW
    # Robot 3 wanted to cross the missing edge and stayed; robot 1 joins it.
    assert nxt.slots == ((2,), (1, 3), ())


def test_only_rules_that_read_chains_build_the_chain_index(monkeypatch):
    """A zero-visibility table decides from its own node alone, so the chain
    index of the ring it looks at is never built; a chain rule reads it, so
    its look builds it."""
    analyses = []

    class Recorded(ChainAnalysis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            analyses.append(self)

    monkeypatch.setattr(dynring.scheduler, "ChainAnalysis", Recorded)
    cfg = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)))
    table = get_policy("k0:sascss")
    predict_intents(table, cfg, initial_robots(cfg))
    step(table, cfg, initial_robots(cfg), Dynamism())
    predict_intents(get_policy("vp-chain"), cfg, initial_robots(cfg))
    *zero_visibility, chain_rule = analyses
    for analysis in zero_visibility:
        assert "by_anchor" not in vars(analysis) and "by_singleton" not in vars(analysis)
    assert "by_anchor" in vars(chain_rule) and "by_singleton" in vars(chain_rule)


def test_prediction_mismatch_is_an_error(monkeypatch):
    """``play_round`` shows an adaptive adversary the predicted intents and
    the node counts they lead to, and refuses a round whose decisions differ
    from them, naming the robots."""
    policy, adversary = get_policy("k0:cacacs"), type(get_adversary("1i-killer"))()
    cfg = ring_from_multiplicities((2, 1, 0))
    robots = initial_robots(cfg)
    right = predict_intents(policy, cfg, robots)
    assert right == {1: ACW, 2: CW, 3: CW}
    shown = []
    choose = adversary.choose
    adversary.choose = lambda ctx: shown.append(ctx) or choose(ctx)
    _, _, trace = play_round(policy, adversary, cfg, Mode.ONE_INTERVAL, robots)
    assert trace.intents == right
    assert [(ctx.predicted_intents, ctx.predicted_counts) for ctx in shown] == [
        (right, moved_counts(cfg, right))]
    wrong = {**right, 1: STAY}
    monkeypatch.setattr(dynring.scheduler, "predict_intents", lambda *args: wrong)
    with pytest.raises(RuntimeError,
                       match=r"^predicted intents differ from the decisions of robots \[1\]$"):
        play_round(policy, adversary, cfg, Mode.ONE_INTERVAL, robots)


def test_preprocess_round_aligns_every_orientation():
    policy = get_policy("no-chir-1i")
    cfg = all_on_one(3)
    robots = initial_robots(cfg, {1: Orientation.REVERSED,
                                  2: Orientation.ALIGNED,
                                  3: Orientation.REVERSED})
    nxt, settled, trace = step(policy, cfg, robots, Dynamism())
    # The preprocessing round claims no guarantee.
    assert policy.round_guarantees(ChainAnalysis(trace.config_seen), robots) == ()
    assert {r.memory for r in settled} == {PREPROCESS_DONE}
    # Everyone ends up sharing robot 1's sense of clockwise.
    assert {r.orientation for r in settled} == {Orientation.REVERSED}
    assert classify(nxt).multinodes == 1


class _LandingProbe(Policy):
    """Every robot steps own clockwise; ``after_move`` records what it is
    handed, then flips the robot and appends the labels to its memory."""

    policy_id = "landing-probe"

    def __init__(self):
        self.handed = {}

    def decide(self, snap, robot):
        return CW, (robot.label,)

    def after_move(self, robot, memory, mates):
        self.handed[robot.label] = (robot, memory, mates)
        return robot.orientation.flipped(), memory + (mates,)


def test_after_move_gets_the_labels_each_robot_landed_with():
    # Robot 2 is reversed and steps to node 2; robot 1 steps to node 1;
    # robot 3 tries to cross the removed edge 1 and stays on node 1.
    policy = _LandingProbe()
    cfg = ring_from_slots(((1, 2), (3,), ()))
    robots = initial_robots(cfg, {1: Orientation.ALIGNED, 2: Orientation.REVERSED,
                                  3: Orientation.ALIGNED})
    _, settled, trace = step(policy, cfg, robots, Dynamism(None, 1))
    landed = trace.config_after.positions()
    assert trace.intents[3] is CW and landed[3] == 1
    assert trace.config_after.slots == ((), (1, 3), (2,))
    for robot, after in zip(robots, settled):
        mates = trace.config_after.slots[landed[robot.label]]
        assert policy.handed[robot.label] == (robot, (robot.label,), mates)
        assert after == RobotState(robot.label, robot.orientation.flipped(),
                                   (robot.label, mates))


# Every shipped rule and one zero-visibility table.
EVERY_RULE = ("vp-chain", "vp-1i", "no-chir-1i", "achiral-odd", "even4", "k0:cascas")


@st.composite
def rule_rounds(draw):
    """A rule, a start it accepts and a round's dynamism. A preprocessing
    rule gets either a gathered start with no robot agreed, whose round is
    its preprocessing round, or any start with every robot agreed."""
    policy = get_policy(draw(st.sampled_from(EVERY_RULE)))
    if policy.policy_id == "even4":
        n = 4
    elif policy.policy_id == "achiral-odd":
        n = draw(st.sampled_from((3, 5, 7)))
    else:
        n = draw(st.integers(2, 8))
    cfg = draw(ring_configs(min_n=n, max_n=n, allow_edge=False))
    memory = None
    if policy.policy_id in ("no-chir-1i", "even4"):
        if draw(st.booleans()):
            cfg = all_on_one(n)
        elif policy.gathered_start or draw(st.booleans()):
            memory = PREPROCESS_DONE
    hands = (Orientation.ALIGNED,) if policy.requires_chirality else tuple(Orientation)
    robots = tuple(RobotState(label, draw(st.sampled_from(hands)), memory)
                   for label in cfg.labels())
    perm = draw(st.one_of(st.none(), st.permutations(range(n)).map(tuple)))
    edge = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    return policy, cfg, robots, Dynamism(perm, edge)


@settings(max_examples=300, deadline=None)
@given(rule_rounds())
def test_settled_robots_and_shared_views_match_fresh_ones(scenario):
    """``step`` carries a robot whose hand and memory did not change over as
    the same object, and a ``ChainAnalysis`` hands every robot that reads
    the same chain the same view. Neither shows: each robot looks as it
    would on an analysis of its own, and settles as a freshly built state."""
    policy, cfg, robots, dynamism = scenario
    _, settled, trace = step(policy, cfg, robots, dynamism)
    seen, landed = trace.config_seen, trace.config_after
    at = seen.positions()
    mates = {label: slot for slot in landed.slots for label in slot}
    shared = ChainAnalysis(seen)
    fresh = []
    for robot in robots:
        own = Snapshot(ChainAnalysis(seen), seen.slots, at[robot.label], robot)
        if policy.full_visibility:
            assert (snapshot_facts(Snapshot(shared, seen.slots, at[robot.label], robot))
                    == snapshot_facts(own))
        action, memory = policy.decide(own, robot)
        assert trace.intents[robot.label] is convert_frame(action, robot.orientation)
        fresh.append(RobotState(robot.label, *policy.after_move(robot, memory,
                                                                 mates[robot.label])))
    assert settled == tuple(fresh)
    for before, after in zip(robots, settled):
        assert (after is before) == (after == before)


@settings(max_examples=300, deadline=None)
@given(rule_rounds())
def test_a_round_moves_its_robots_as_the_dense_resolution(scenario):
    """``step`` moves only the robots its rule decided would move, and lands
    every robot where the dense resolution of the round's full intent map
    lands it, blocked moves across the removed edge included."""
    policy, cfg, robots, dynamism = scenario
    nxt, _, trace = step(policy, cfg, robots, dynamism)
    assert trace.config_after == dense_resolve_moves(trace.config_seen, trace.intents)
    assert nxt.slots == trace.config_after.slots and nxt.missing_edge is None


class _DrawnMoves(Policy):
    """Robot ``label`` takes the own-frame action ``actions[label - 1]``."""

    policy_id = "drawn-moves"

    def __init__(self, actions):
        self.actions = actions

    def decide(self, snap, robot):
        return self.actions[robot.label - 1], robot.memory


@st.composite
def drawn_rounds(draw):
    """A ring of 2..64 nodes, its robots with any hands, a dynamism one mode
    allows and an own-frame action for every robot."""
    cfg = draw(ring_configs(min_n=2, max_n=64, allow_edge=False))
    n = cfg.n
    mode = draw(st.sampled_from(Mode))
    perm = edge = None
    if mode.allows_permutation:
        perm = draw(st.one_of(st.none(), st.permutations(range(n)).map(tuple)))
    if mode.allows_edge_removal:
        edge = draw(st.one_of(st.none(), st.integers(0, n - 1)))
    robots = draw(placed_robots(cfg))
    actions = draw(st.lists(st.sampled_from((STAY, CW, ACW)), min_size=n, max_size=n))
    return cfg, robots, Dynamism(perm, edge), actions


# Robots 1 and 2 both step into hole 1, which counts once; robot 3's step
# across the removed edge 3 is blocked, so hole 4 stays empty.
_TWO_INTO_ONE_HOLE = (ring_from_slots(((1,), (), (2,), (3, 4, 5), ())),
                      tuple(RobotState(label) for label in range(1, 6)),
                      Dynamism(None, 3), (CW, ACW, CW, STAY, STAY))


@settings(max_examples=300, deadline=None)
@given(drawn_rounds())
@example(_TWO_INTO_ONE_HOLE)
def test_a_round_counts_the_holes_it_fills(scenario):
    """The filled-hole count ``step`` hands the lemma checks, taken over the
    movers alone, is ``holes_filled_count`` of the seen and landed rings."""
    cfg, robots, dynamism, actions = scenario
    counts = []
    real = dynring.scheduler.check_round_lemmas

    def recording(guarantees, m1, m2, filled):
        counts.append(filled)
        return real(guarantees, m1, m2, filled)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynring.scheduler, "check_round_lemmas", recording)
        _, _, trace = step(_DrawnMoves(actions), cfg, robots, dynamism)
    assert counts == [holes_filled_count(trace.config_seen, trace.config_after)]


def _decide_everyone(policy, seen, robots):
    """The reference: every robot's global action and memory through
    ``policy.decide`` on the ring ``seen``, by label."""
    at = seen.positions()
    analysis = ChainAnalysis(seen)
    decisions = {}
    for robot in robots:
        action, memory = policy.decide(Snapshot(analysis, seen.slots, at[robot.label], robot),
                                       robot)
        decisions[robot.label] = (convert_frame(action, robot.orientation), memory)
    return decisions


@settings(max_examples=300, deadline=None)
@given(rule_rounds())
def test_deciding_only_the_listed_actors_changes_nothing(scenario):
    """A round decides only for the robots ``Policy.actors`` lists. For every
    rule, agreement state, hand mix, memory and removed edge of a start the
    rule accepts, that gives the intents and settled robots of deciding
    every robot through ``policy.decide``: a robot left out would have
    stayed with the memory it holds, and is carried over as it is."""
    policy, cfg, robots, dynamism = scenario
    seen = dynamism.apply(cfg)
    analysis = ChainAnalysis(seen)
    everyone = _decide_everyone(policy, seen, robots)
    intents, decided, movers = dynring.scheduler._decide(policy, analysis, seen.slots, robots)
    assert list(intents) == list(cfg.labels())
    assert intents == {label: action for label, (action, _) in everyone.items()}
    listed = {label for _, label in policy.actors(analysis, seen.slots, robots)}
    assert decided.keys() == listed
    at = seen.positions()
    assert sorted(movers) == [(label, at[label], action) for label, action in intents.items()
                              if action is not STAY]
    for robot in robots:
        action, memory = everyone[robot.label]
        if robot.label in listed:
            assert decided[robot.label] == (at[robot.label], memory)
        else:
            assert action is STAY and memory is robot.memory

    _, settled, trace = step(policy, cfg, robots, dynamism)
    assert trace.intents == intents
    mates = {label: slot for slot in trace.config_after.slots for label in slot}
    for robot, after in zip(robots, settled):
        memory = everyone[robot.label][1]
        assert after == RobotState(robot.label,
                                   *policy.after_move(robot, memory, mates[robot.label]))
        if robot.label not in listed:
            assert after is robot


def test_a_look_the_table_lends_decides_as_a_fresh_one():
    """A look table keys a look by the seen ring's node counts and removed
    edge, and hands it to every later ring that has the same. On
    every occupancy at n <= 4 with every hand assignment, and at n = 5 with
    aligned hands, under two labellings and every removed edge, every
    full-visibility rule the ring and its robots admit, agreed or not,
    decides on the lent look exactly as on a fresh ``ChainAnalysis`` of its
    own ring."""
    decide = dynring.scheduler._decide
    compared = 0
    for n in range(1, 6):
        hand_sets = (itertools.product(tuple(Orientation), repeat=n) if n <= 4
                     else [(Orientation.ALIGNED,) * n])
        teams = [tuple(RobotState(label, hand, memory)
                       for label, hand in enumerate(hands, start=1))
                 for hands in hand_sets for memory in (None, PREPROCESS_DONE)]
        looks = {}
        for counts in _compositions(n, n):
            dealt = ring_from_multiplicities(counts).slots
            for edge in (None, *range(n)):
                first = ring_from_slots(dealt, edge)
                second = ring_from_slots([[n + 1 - label for label in slot] for slot in dealt],
                                         edge)
                dynring.scheduler._look(looks, first)
                lent = dynring.scheduler._look(looks, second)
                fresh = ChainAnalysis(second)
                for policy in POLICIES.values():
                    for robots in teams:
                        try:
                            policy.check_scenario(n, Mode.NONE, second, robots)
                        except ScenarioError:
                            continue
                        assert (decide(policy, lent, second.slots, robots)
                                == decide(policy, fresh, second.slots, robots)), \
                            (policy, second, robots)
                        compared += 1
        assert len(looks) == math.comb(2 * n - 1, n) * (n + 1)
    assert compared == 17_112


def test_a_gathered_vp_1i_run_decides_only_for_its_actors(monkeypatch):
    """In a ``vp-1i`` run from the gathered pile at n=64, every round calls
    ``decide`` once per robot the rule lists, and no more: 385 calls over
    its 63 rounds, where deciding for everyone took 64 a round, 4,032."""
    policy = type(get_policy("vp-1i"))()
    rounds = []
    listing, deciding = policy.actors, policy.decide

    def actors(analysis, slots, robots):
        listed = listing(analysis, slots, robots)
        rounds.append([len(listed), 0])
        return listed

    def decide(snap, robot):
        rounds[-1][1] += 1
        return deciding(snap, robot)

    monkeypatch.setattr(policy, "actors", actors)
    monkeypatch.setattr(policy, "decide", decide)
    result = run_simulation(policy, get_adversary("random"), all_on_one(64), Mode.COMBINED,
                            seed=11)
    assert result.dispersed and len(rounds) == result.rounds
    assert all(listed == decides for listed, decides in rounds)
    assert (result.rounds, sum(decides for _, decides in rounds)) == (63, 385)


# ---------------------------------------------------------------- full runs


def test_clockwise_chain_run_disperses_benignly():
    policy = get_policy("vp-chain")
    cfg = all_on_one(5)
    traces = []
    result = run_simulation(policy, get_adversary("benign"), cfg, Mode.NONE,
                            on_round=traces.append)
    start, *traces = traces
    assert start is cfg
    assert result.outcome == "dispersed" and result.dispersed
    assert result.rounds == len(traces) == 4
    assert classify(result.final_config).dispersed
    assert result.violations == ()


def test_runs_are_reproducible_by_seed():
    policy = get_policy("vp-1i")
    cfg = all_on_one(6)
    first_traces, second_traces = [], []
    first = run_simulation(policy, get_adversary("random"), cfg, Mode.COMBINED, seed=77,
                           on_round=first_traces.append)
    second = run_simulation(policy, get_adversary("random"), cfg, Mode.COMBINED, seed=77,
                            on_round=second_traces.append)
    assert first_traces[0] is second_traces[0] is cfg
    assert [t.dynamism for t in first_traces[1:]] == [t.dynamism for t in second_traces[1:]]
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


def test_run_memory_does_not_grow_with_the_round_count():
    """A run hands each round to its consumer and keeps none of them."""
    cfg = random_configuration(64, random.Random(1))

    def peak(rounds: int) -> int:
        # With the cycle collector off, garbage a round left in cycles
        # counts as kept, and the peak does not move with its timing.
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            result = run_simulation(get_policy("k0:ssssss"), get_adversary("benign"), cfg,
                                    Mode.NONE, seed=1, max_rounds=rounds)
            assert (result.outcome, result.rounds) == ("round-limit", rounds)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            gc.enable()

    peak(40)  # first calls fill caches that later runs share
    short, long = peak(40), peak(400)
    assert long < 1.5 * short, (short, long)


def test_a_negative_round_budget_is_refused_and_zero_plays_no_round():
    policy = get_policy("k0:ssssss")
    cfg = all_on_one(3)
    with pytest.raises(ValueError):
        run_simulation(policy, get_adversary("benign"), cfg, Mode.NONE, max_rounds=-1)
    traces = []
    result = run_simulation(policy, get_adversary("benign"), cfg, Mode.NONE, max_rounds=0,
                            on_round=traces.append)
    assert (result.outcome, result.rounds, traces) == ("round-limit", 0, [cfg])
    assert result.final_config == cfg


class _Answer:
    """An adversary that plays one fixed dynamism every round."""

    adaptive = False

    def __init__(self, dynamism):
        self.dynamism = dynamism

    def choose(self, ctx):
        return self.dynamism


@pytest.mark.parametrize("dynamism,mode,error,message", [
    (Dynamism(None, 0), Mode.VP, ScenarioError, r"^mode vp does not allow edge removal$"),
    (Dynamism((0, 1, 2), None), Mode.ONE_INTERVAL, ScenarioError,
     r"^mode 1i does not allow vertex permutations$"),
    (Dynamism((True, 0, 2), None), Mode.VP, ValueError,
     r"^not a permutation of 0\.\.2: \(True, 0, 2\)$"),
    (Dynamism((0, 0, 1), None), Mode.VP, ValueError,
     r"^not a permutation of 0\.\.2: \(0, 0, 1\)$"),
    (Dynamism(None, 3), Mode.ONE_INTERVAL, ValueError,
     r"^edge 3 is not an edge index in 0\.\.2$"),
])
def test_a_round_checks_the_adversarys_answer(dynamism, mode, error, message):
    """An adversary's answer enters from outside, so ``play_round`` checks it
    (``Dynamism.check``) before ``step`` applies it."""
    cfg = ring_from_slots(((1, 2), (3,), ()))
    with pytest.raises(error, match=message):
        play_round(get_policy("k0:ccssss"), _Answer(dynamism), cfg, mode,
                   initial_robots(cfg))


def test_a_run_refuses_a_start_with_a_removed_edge():
    cut = ring_from_slots(((1, 2), (3,), ()), missing_edge=1)
    with pytest.raises(ScenarioError, match=r"^a round starts from a ring with no removed "
                                            r"edge, not <ring 1,2 3 \. !e1>$"):
        run_simulation(get_policy("vp-chain"), get_adversary("benign"), cut, Mode.VP)


_DISAGREEING = tuple(RobotState(label, Orientation.ALIGNED,
                                PREPROCESS_DONE if label == 2 else None)
                     for label in range(1, 5))


@pytest.mark.parametrize("policy_id,adversary_id,mode,cfg,robots,refusal", [
    ("no-chir-1i", "benign", Mode.NONE, ring_from_multiplicities((2, 2, 0, 0)), None,
     r"^policy no-chir-1i must start with all robots on one node$"),
    ("no-chir-1i", "benign", Mode.NONE, all_on_one(4), _DISAGREEING,
     r"^robots disagree on whether they agreed on a hand: "),
    ("k0:ssssss", "vp-killer-n3", Mode.VP, all_on_one(3), None,
     r"^vp-killer-n3 cannot keep its invariant from <ring 1,2,3 \. \.>$"),
], ids=["ungathered", "disagreeing", "off-invariant"])
def test_a_run_refuses_a_bad_start_before_its_first_record(monkeypatch, policy_id,
                                                           adversary_id, mode, cfg, robots,
                                                           refusal):
    """A start the rule or the adversary cannot play from is refused where
    it enters: ``run_simulation`` plays no round and hands its consumer no
    record, not even the start."""
    steps, records = [], []
    real = dynring.scheduler.step
    monkeypatch.setattr(dynring.scheduler, "step",
                        lambda *args, **options: steps.append(args) or real(*args, **options))
    with pytest.raises(ScenarioError, match=refusal):
        run_simulation(get_policy(policy_id), get_adversary(adversary_id), cfg, mode,
                       robots=robots, on_round=records.append)
    assert steps == records == []


@pytest.mark.parametrize("policy_id,adversary_id,mode", [
    ("k0:ssssss", "vp-killer-n3", Mode.VP),
    ("no-chir-1i", "benign", Mode.NONE),
])
def test_a_dispersed_start_plays_no_round_whatever_the_rule_and_adversary(policy_id,
                                                                          adversary_id, mode):
    """A dispersed start plays no round, so it is refused neither for the
    3-ring permuter, whose invariant excludes it, nor for ``no-chir-1i``,
    which starts any round it plays from a gathered pile."""
    cfg = ring_from_slots(((1,), (2,), (3,)))
    records = []
    result = run_simulation(get_policy(policy_id), get_adversary(adversary_id), cfg, mode,
                            on_round=records.append)
    assert (result.outcome, result.rounds, records) == ("dispersed", 0, [cfg])


def test_adaptive_run_uses_exact_predictions():
    policy = get_policy("k0:sccsss")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    traces = []
    result = run_simulation(policy, get_adversary("vp-killer-n3"), cfg, Mode.VP,
                            max_rounds=25, on_round=traces.append)
    start, *traces = traces
    assert start is cfg and len(traces) == 25
    assert result.outcome == "round-limit"
    assert all(sorted(t.config_after.multiplicities()) == [0, 1, 2]
               for t in traces)


# --------------------------------------------------------------- validation


def test_scenario_validation_rejects_mismatches():
    vp = get_policy("vp-chain")
    cfg = all_on_one(4)
    robots = initial_robots(cfg)
    validate_scenario(vp, get_adversary("benign"), cfg, robots, Mode.VP)
    with pytest.raises(ScenarioError):
        validate_scenario(vp, get_adversary("benign"), cfg, robots, Mode.COMBINED)
    with pytest.raises(ScenarioError):
        validate_scenario(vp, get_adversary("vp-killer"), cfg, robots, Mode.VP)
    missing = robots[1:]
    repeated = (RobotState(2, Orientation.ALIGNED, None),) + robots[1:]
    # A round reads robot ``label`` at index ``label - 1``.
    unordered = robots[::-1]
    for stray in (missing, repeated, unordered):
        with pytest.raises(ScenarioError):
            validate_scenario(vp, get_adversary("benign"), cfg, stray, Mode.VP)


# ------------------------------------------------------------ conservation


@settings(max_examples=100, deadline=None)
@given(ring_configs(min_n=2, max_n=7, allow_edge=False), st.data())
def test_rounds_conserve_robots(cfg, data):
    """No robot is ever lost or duplicated, whatever the round does."""
    policy = get_policy(data.draw(st.sampled_from(
        ("vp-chain", "vp-1i", "achiral-odd", "k0:cascas"))))
    robots = initial_robots(cfg)
    perm = tuple(data.draw(st.permutations(range(cfg.n))))
    edge = data.draw(st.one_of(st.none(), st.integers(0, cfg.n - 1)))
    nxt, moved, trace = step(policy, cfg, robots, Dynamism(perm, edge))
    assert nxt.labels() == tuple(range(1, cfg.n + 1))
    assert sorted(r.label for r in moved) == list(range(1, cfg.n + 1))
    assert trace.metrics_after.holes == nxt.multiplicities().count(0)
