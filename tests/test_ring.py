"""Unit and property tests for configurations, moves, chains and views."""
from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from conftest import configured_scenarios, ring_configs, snapshot_facts
from dynring import (
    Action,
    ChainAnalysis,
    MoveIntent,
    Orientation,
    RingConfiguration,
    RobotState,
    all_on_one,
    apply_edge_removal,
    apply_vertex_permutation,
    canonical_rotation,
    classify,
    compute_view,
    convert_frame,
    crossing_edge,
    find_chains,
    reflect,
    resolve_moves,
    ring_from_multiplicities,
    ring_from_slots,
    rotate,
)


# ---------------------------------------------------------------- construction


def test_slots_are_normalised_sorted():
    cfg = RingConfiguration(3, ((3, 1), (), (2,)), None)
    assert cfg.slots == ((1, 3), (), (2,))


def test_labels_must_be_exactly_one_to_n():
    with pytest.raises(ValueError):
        RingConfiguration(3, ((1, 2), (), (4,)), None)
    with pytest.raises(ValueError):
        RingConfiguration(3, ((1, 1), (), (2,)), None)


def test_edge_index_validated():
    with pytest.raises(ValueError):
        RingConfiguration(2, ((1,), (2,)), 5)


def test_ring_from_multiplicities_deals_labels_clockwise():
    cfg = ring_from_multiplicities([2, 0, 1])
    assert cfg.slots == ((1, 2), (), (3,))
    with pytest.raises(ValueError):
        ring_from_multiplicities([2, 2])


@settings(max_examples=200, deadline=None)
@given(ring_configs(), st.data())
def test_derived_configurations_pass_full_validation(cfg, data):
    """Configurations derived from a valid one skip validation, so each
    must equal its fully validated rebuild; invalid input still raises."""
    n = cfg.n
    order = data.draw(st.permutations(cfg.labels()))
    actions = data.draw(st.lists(st.sampled_from(list(Action)), min_size=n, max_size=n))
    intents = [MoveIntent(label, actions[label - 1]) for label in order]
    derived = (
        resolve_moves(cfg, intents),
        apply_vertex_permutation(cfg, data.draw(st.permutations(range(n)))),
        apply_edge_removal(RingConfiguration(n, cfg.slots), data.draw(st.integers(0, n - 1))),
        rotate(cfg, data.draw(st.integers(-n, 2 * n))),
        reflect(cfg, data.draw(st.integers(0, n - 1))),
    )
    for out in derived:
        assert out == RingConfiguration(out.n, out.slots, out.missing_edge)

    missing = tuple(tuple(lab for lab in slot if lab != order[0]) for slot in cfg.slots)
    extra = ((n + 1,) + cfg.slots[0],) + cfg.slots[1:]
    duplicate = ((order[0],) + cfg.slots[0],) + cfg.slots[1:]
    for slots, edge in ((missing, None), (extra, None), (duplicate, None),
                        (cfg.slots, n), (cfg.slots, -1)):
        with pytest.raises(ValueError):
            RingConfiguration(n, slots, edge)


def test_all_on_one_and_positions():
    cfg = all_on_one(4)
    assert cfg.slots[0] == (1, 2, 3, 4)
    assert cfg.positions() == {1: 0, 2: 0, 3: 0, 4: 0}
    assert cfg.multiplicities() == (4, 0, 0, 0)


# ------------------------------------------------------------------ dynamism


def test_permutation_moves_contents_and_clears_edge():
    cfg = ring_from_slots(((1, 2), (3,), ()), missing_edge=1)
    out = apply_vertex_permutation(cfg, (2, 0, 1))
    assert out.slots == ((3,), (), (1, 2))
    assert out.missing_edge is None


def test_permutation_must_be_valid():
    cfg = all_on_one(3)
    with pytest.raises(ValueError):
        apply_vertex_permutation(cfg, (0, 0, 1))


def test_edge_removal_rules():
    cfg = all_on_one(3)
    removed = apply_edge_removal(cfg, 2)
    assert removed.missing_edge == 2
    with pytest.raises(ValueError):
        apply_edge_removal(removed, 0)
    with pytest.raises(ValueError):
        apply_edge_removal(cfg, 3)
    assert apply_edge_removal(cfg, None) is cfg


def test_crossing_edges_on_two_ring():
    # A 2-ring has two distinct edges between its nodes.
    assert crossing_edge(0, Action.CLOCKWISE, 2) == 0
    assert crossing_edge(0, Action.ANTICLOCKWISE, 2) == 1
    assert crossing_edge(1, Action.CLOCKWISE, 2) == 1
    assert crossing_edge(1, Action.ANTICLOCKWISE, 2) == 0
    assert crossing_edge(1, Action.STAY, 2) is None


# -------------------------------------------------------------------- moves


def test_resolve_requires_exactly_one_intent_per_robot():
    cfg = ring_from_slots(((1,), (2,)))
    with pytest.raises(ValueError):
        resolve_moves(cfg, [MoveIntent(1, Action.STAY)])
    with pytest.raises(ValueError):
        resolve_moves(cfg, [MoveIntent(1, Action.STAY)] * 2)
    with pytest.raises(ValueError):
        resolve_moves(cfg, [MoveIntent(1, Action.STAY), MoveIntent(5, Action.STAY)])


def test_blocked_move_is_a_no_op():
    cfg = ring_from_slots(((1, 3), (2,), ()), missing_edge=1)
    stay = MoveIntent(3, Action.STAY)
    out = resolve_moves(cfg, [MoveIntent(1, Action.STAY), MoveIntent(2, Action.CLOCKWISE), stay])
    # Robot 2 wanted to cross edge 1, the removed one, so it stays put.
    assert out.slots == ((1, 3), (2,), ())
    out = resolve_moves(cfg, [MoveIntent(1, Action.CLOCKWISE), MoveIntent(2, Action.STAY), stay])
    assert out.slots == ((3,), (1, 2), ())


@settings(max_examples=150, deadline=None)
@given(ring_configs(), st.data())
def test_resolve_conserves_robots(cfg, data):
    """Simultaneous moves never create or destroy robots."""
    actions = data.draw(st.lists(st.sampled_from(list(Action)),
                                 min_size=cfg.n, max_size=cfg.n))
    intents = [MoveIntent(label, act) for label, act in zip(range(1, cfg.n + 1), actions)]
    out = resolve_moves(cfg, intents)
    assert sorted(label for slot in out.slots for label in slot) == list(range(1, cfg.n + 1))
    assert out.n == cfg.n


@settings(max_examples=150, deadline=None)
@given(ring_configs(allow_edge=False), st.data())
def test_moves_land_one_step_away(cfg, data):
    actions = {label: data.draw(st.sampled_from(list(Action)))
               for label in range(1, cfg.n + 1)}
    out = resolve_moves(cfg, [MoveIntent(l, a) for l, a in actions.items()])
    before, after = cfg.positions(), out.positions()
    for label in actions:
        assert after[label] == (before[label] + actions[label].value) % cfg.n


# ------------------------------------------------------------------- census


def test_classify_counts():
    metrics = classify(ring_from_slots(((1, 2, 4), (), (3,), ())))
    assert (metrics.holes, metrics.singletons, metrics.multinodes) == (2, 1, 1)
    assert not metrics.dispersed
    assert classify(ring_from_slots(((1,), (2,), (3,)))).dispersed


def test_four_node_state_labels():
    assert classify(all_on_one(4)).state_label == 1
    assert classify(ring_from_multiplicities([3, 1, 0, 0])).state_label == 2
    assert classify(ring_from_multiplicities([2, 1, 0, 1])).state_label == 3
    assert classify(ring_from_multiplicities([2, 0, 2, 0])).state_label == 4
    assert classify(ring_from_multiplicities([1, 1, 1, 1])).state_label is None
    assert classify(all_on_one(3)).state_label is None


@settings(max_examples=150, deadline=None)
@given(ring_configs(), st.data())
def test_census_is_position_free(cfg, data):
    """Node shuffles, rotations and reflections never change the census."""
    perm = data.draw(st.permutations(range(cfg.n)))
    base = classify(cfg)
    for other in (apply_vertex_permutation(cfg, perm),
                  rotate(cfg, data.draw(st.integers(0, cfg.n - 1))),
                  reflect(cfg, data.draw(st.integers(0, cfg.n - 1)))):
        got = classify(other)
        assert (got.holes, got.singletons, got.multinodes) == (
            base.holes, base.singletons, base.multinodes)


# ------------------------------------------------------------------- chains


def _is_wellformed(cfg, chain):
    mult = cfg.multiplicities()
    if mult[chain.multinode] < 2 or mult[chain.hole] != 0:
        return False
    pos = chain.multinode
    for single in chain.singletons:
        pos = (pos + chain.direction.value) % cfg.n
        if pos != single or mult[pos] != 1:
            return False
    return (pos + chain.direction.value) % cfg.n == chain.hole


@settings(max_examples=200, deadline=None)
@given(ring_configs())
def test_chains_are_wellformed_and_disjoint(cfg):
    """Chains anchor at multinodes, run over singletons, end at holes;
    a singleton lies on at most one chain and no edge is shared."""
    chains = find_chains(cfg)
    seen_keys = set()
    singleton_owner = {}
    edge_owner = {}
    for chain in chains:
        assert _is_wellformed(cfg, chain)
        key = (chain.multinode, chain.direction)
        assert key not in seen_keys
        seen_keys.add(key)
        for single in chain.singletons:
            assert single not in singleton_owner
            singleton_owner[single] = chain
        pos = chain.multinode
        for _ in range(chain.length + 1):
            edge = crossing_edge(pos, chain.direction, cfg.n)
            assert edge not in edge_owner
            edge_owner[edge] = chain
            pos = (pos + chain.direction.value) % cfg.n


@settings(max_examples=200, deadline=None)
@given(ring_configs())
def test_every_clump_spawns_chains_both_ways(cfg):
    """A non-dispersed configuration always has a clockwise chain and an
    anticlockwise chain, and at least one chain survives any single edge
    removal."""
    if classify(cfg).dispersed:
        return
    chains = find_chains(cfg)
    directions = {c.direction for c in chains}
    assert directions == {Action.CLOCKWISE, Action.ANTICLOCKWISE}
    assert any(c.good for c in chains)


def test_chain_goodness_tracks_removed_edge():
    cfg = ring_from_slots(((1, 2), (3,), (), (4,)), missing_edge=1)
    by_dir = {c.direction: c for c in find_chains(cfg)}
    # Clockwise walk 0 -> 1 -> 2 uses edges 0 and 1; edge 1 is out.
    assert not by_dir[Action.CLOCKWISE].good
    assert by_dir[Action.CLOCKWISE].length == 1
    # Anticlockwise walk 0 -> 3 -> 2 uses edges 3 and 2, both intact.
    assert by_dir[Action.ANTICLOCKWISE].good
    assert by_dir[Action.ANTICLOCKWISE].length == 1


# --------------------------------------------------------------- symmetries


@settings(max_examples=200, deadline=None)
@given(ring_configs(), st.integers(-8, 8), st.integers(-8, 8))
def test_rotation_composes_and_wraps(cfg, a, b):
    assert rotate(rotate(cfg, a), b) == rotate(cfg, a + b)
    assert rotate(cfg, cfg.n) == cfg


@settings(max_examples=200, deadline=None)
@given(ring_configs(), st.integers(0, 7))
def test_reflection_is_an_involution(cfg, pivot):
    pivot %= cfg.n
    assert reflect(reflect(cfg, pivot), pivot) == cfg
    assert reflect(cfg, pivot).slots[pivot] == cfg.slots[pivot]


@settings(max_examples=200, deadline=None)
@given(ring_configs(), st.integers(0, 7))
def test_reflection_swaps_chain_directions(cfg, pivot):
    mirrored = reflect(cfg, pivot % cfg.n)

    def tally(c):
        chains = find_chains(c)
        return (sorted((ch.length, ch.good) for ch in chains if ch.direction is Action.CLOCKWISE),
                sorted((ch.length, ch.good) for ch in chains if ch.direction is Action.ANTICLOCKWISE))

    cw, acw = tally(cfg)
    mirrored_cw, mirrored_acw = tally(mirrored)
    assert (cw, acw) == (mirrored_acw, mirrored_cw)


@settings(max_examples=200, deadline=None)
@given(ring_configs(), st.integers(0, 7))
def test_canonical_rotation_picks_one_representative(cfg, shift):
    canon = canonical_rotation(cfg)
    assert canonical_rotation(rotate(cfg, shift)) == canon
    assert canonical_rotation(canon) == canon
    assert any(rotate(cfg, r) == canon for r in range(cfg.n))


# -------------------------------------------------------------------- views


def test_frame_conversion_is_an_involution():
    for action in Action:
        for orientation in Orientation:
            twice = convert_frame(convert_frame(action, orientation), orientation)
            assert twice is action
    assert convert_frame(Action.CLOCKWISE, Orientation.REVERSED) is Action.ANTICLOCKWISE
    assert convert_frame(Action.STAY, Orientation.REVERSED) is Action.STAY


@settings(max_examples=150, deadline=None)
@given(configured_scenarios(allow_edge=False), st.data())
def test_zero_visibility_sees_only_own_node(scenario, data):
    """At k=0 the view must not leak anything beyond the robot's node."""
    cfg, robots = scenario
    robot = data.draw(st.sampled_from(robots))
    view = compute_view(cfg, robot, 0)
    assert view.clockwise == () and view.anti_clockwise == ()
    assert view.own_count == len(cfg.slots[robot.node])
    # Scramble every other node: the view may not change.
    others = [label for label in range(1, cfg.n + 1)
              if label not in cfg.slots[robot.node]]
    slots = [list(s) if i == robot.node else [] for i, s in enumerate(cfg.slots)]
    for label in others:
        slots[data.draw(st.integers(0, cfg.n - 1).filter(lambda i: i != robot.node))].append(label)
    shuffled = RingConfiguration(cfg.n, tuple(tuple(s) for s in slots), None)
    assert compute_view(shuffled, robot, 0) == view


@settings(max_examples=150, deadline=None)
@given(configured_scenarios(), st.data())
def test_reversed_view_equals_mirrored_aligned_view(scenario, data):
    """Flipping a robot's orientation is the same as mirroring the ring."""
    cfg, robots = scenario
    robot = data.draw(st.sampled_from(robots))
    k = data.draw(st.integers(0, cfg.n))
    flipped = RobotState(robot.label, robot.node, robot.orientation.flipped(), robot.memory)
    mirrored = reflect(cfg, robot.node)
    assert compute_view(mirrored, robot, k) == compute_view(cfg, flipped, k)


def test_view_matches_hand_computed_example():
    cfg = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)), missing_edge=2)
    robot = RobotState(4, 1, Orientation.ALIGNED, None)
    view = compute_view(cfg, robot, 2)
    # Own clockwise: nodes 2 and 3 are empty. Anticlockwise: node 0 at
    # distance 1 and node 4 at distance 2 are occupied. The pile sits at
    # clockwise distance 4, beyond the horizon, so no multinode is seen.
    assert view.clockwise == ()
    assert view.anti_clockwise == (1, 1)
    assert view.multiplicity == (-1,)
    assert view.own_count == 1 and view.is_least
    # Edge 2 has endpoints 2 and 3, within ring distance 2 of node 1; the
    # nearer one clockwise is node 2, one step away.
    assert view.missing_edge == 1

    on_pile = RobotState(2, 0, Orientation.ALIGNED, None)
    pile_view = compute_view(cfg, on_pile, 2)
    assert pile_view.multiplicity == (0,)
    assert pile_view.own_count == 3
    assert not pile_view.is_least and pile_view.is_second_least
    assert pile_view.clockwise == (1,)


def test_view_at_half_ring_does_not_determine_the_snapshot():
    """``View.multiplicity`` lists multinodes own clockwise only, so a view
    at k = ceil(n/2) cannot rebuild every snapshot fact. Robot 1 sees the
    same view on both rings but stands on chains of different lengths."""
    first = ring_from_slots(((1,), (), (2,), (3,), (), (4,), (5, 6, 7)))
    second = ring_from_slots(((1,), (), (2,), (3,), (), (4, 5, 6), (7,)))
    robot = RobotState(1, 0, Orientation.ALIGNED, None)
    assert compute_view(first, robot, 4) == compute_view(second, robot, 4)
    snaps = [ChainAnalysis(cfg).snapshot_for(robot) for cfg in (first, second)]
    assert [snap.own_chain().length for snap in snaps] == [1, 2]
    assert snapshot_facts(snaps[0]) != snapshot_facts(snaps[1])
