"""Unit and property tests for configurations, moves, chains and views."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import configured_scenarios, ring_configs, snapshot_facts
from moves import dense_resolve_moves
from views import compute_view
from dynring import (
    Action,
    ChainAnalysis,
    Dynamism,
    Mode,
    Orientation,
    RingConfiguration,
    RobotState,
    Snapshot,
    all_on_one,
    canonical_rotation,
    classify,
    convert_frame,
    crossing_edge,
    find_chains,
    moved_counts,
    reflect,
    resolve_moves,
    ring_from_multiplicities,
    ring_from_slots,
    rotate,
)
from dynring.ring import move_robots, moved_counts_table, node_moves
from dynring.verifier import _intent_vectors


# ---------------------------------------------------------------- construction


def checked(n, slots, edge=None):
    """A ring as it enters from outside: the constructor trusts its input,
    and ``__post_init__`` is the check that ``ring_from_slots`` and
    ``ring_from_multiplicities`` run."""
    return RingConfiguration(n, slots, edge).__post_init__()


def test_slots_are_normalised_sorted():
    assert checked(3, ((3, 1), (), (2,))).slots == ((1, 3), (), (2,))
    assert ring_from_slots(((3, 1), (), (2,))).slots == ((1, 3), (), (2,))


def test_a_ring_has_a_node_and_one_slot_per_node():
    with pytest.raises(ValueError, match="^ring needs at least one node$"):
        checked(0, ())
    with pytest.raises(ValueError, match="^ring needs at least one node$"):
        ring_from_slots(())
    with pytest.raises(ValueError, match="^expected 3 slots, got 2$"):
        checked(3, ((1,), (2, 3)))


def test_labels_must_be_exactly_one_to_n():
    with pytest.raises(ValueError):
        checked(3, ((1, 2), (), (4,)))
    with pytest.raises(ValueError):
        ring_from_slots(((1, 1), (), (2,)))
    # A label is a plain int: 1.0 and True would pass for robot 1.
    for label in (1.0, True):
        with pytest.raises(ValueError):
            checked(2, ((label,), (2,)))


def test_edge_index_validated():
    with pytest.raises(ValueError):
        ring_from_slots(((1,), (2,)), 5)
    # A removed edge is a plain int: 1.5 would be an edge no move crosses,
    # and True would pass for edge 1.
    cfg = ring_from_slots(((1, 2), (3,), ()))
    for edge in (1.5, True):
        with pytest.raises(ValueError):
            checked(3, cfg.slots, edge)
        with pytest.raises(ValueError, match=rf"edge {edge!r} is not an edge index in 0..2"):
            Dynamism(None, edge).check(cfg.n, Mode.COMBINED)


def test_ring_from_multiplicities_deals_labels_clockwise():
    cfg = ring_from_multiplicities([2, 0, 1])
    assert cfg.slots == ((1, 2), (), (3,))
    with pytest.raises(ValueError):
        ring_from_multiplicities([2, 2])


@settings(max_examples=200, deadline=None)
@given(ring_configs(), st.data())
def test_derived_configurations_pass_full_validation(cfg, data):
    """Configurations derived from a valid one are not checked, so each
    must pass the entry check unchanged; invalid input still raises."""
    n = cfg.n
    order = data.draw(st.permutations(cfg.labels()))
    actions = data.draw(st.lists(st.sampled_from(list(Action)), min_size=n, max_size=n))
    intents = {label: actions[label - 1] for label in order}
    derived = (
        resolve_moves(cfg, intents),
        Dynamism(tuple(data.draw(st.permutations(range(n))))).apply(cfg),
        Dynamism(None, data.draw(st.integers(0, n - 1))).apply(RingConfiguration(n, cfg.slots)),
        rotate(cfg, data.draw(st.integers(-n, 2 * n))),
        reflect(cfg, data.draw(st.integers(0, n - 1))),
    )
    for out in derived:
        assert checked(out.n, out.slots, out.missing_edge) == out

    missing = tuple(tuple(lab for lab in slot if lab != order[0]) for slot in cfg.slots)
    extra = ((n + 1,) + cfg.slots[0],) + cfg.slots[1:]
    duplicate = ((order[0],) + cfg.slots[0],) + cfg.slots[1:]
    for slots, edge in ((missing, None), (extra, None), (duplicate, None),
                        (cfg.slots, n), (cfg.slots, -1)):
        with pytest.raises(ValueError):
            checked(n, slots, edge)


def test_all_on_one_and_positions():
    cfg = all_on_one(4)
    assert cfg.slots[0] == (1, 2, 3, 4)
    assert cfg.positions() == {1: 0, 2: 0, 3: 0, 4: 0}
    assert cfg.multiplicities() == (4, 0, 0, 0)


# ------------------------------------------------------------------ dynamism


def test_permutation_moves_contents_and_clears_edge():
    cfg = ring_from_slots(((1, 2), (3,), ()), missing_edge=1)
    out = Dynamism((2, 0, 1)).apply(cfg)
    assert out.slots == ((3,), (), (1, 2))
    assert out.missing_edge is None


def test_permutation_must_be_valid():
    with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.2: \(0, 0, 1\)$"):
        Dynamism((0, 0, 1)).check(3, Mode.VP)


@pytest.mark.parametrize("perm", [(True, 0, 2), (1.0, 0, 2), ("1", 0, 2)])
def test_permutation_entries_must_be_plain_ints(perm):
    """``True`` and ``1.0`` equal 1, so they pass a sort against
    ``range(n)``: a bool entry shaped a ring, and a float one raised a bare
    ``TypeError`` from the list index."""
    with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.2: "):
        Dynamism(perm).check(3, Mode.VP)


def _sort_refuses(perm, n: int) -> bool:
    """The permutation test ``Dynamism.check`` made by sorting."""
    return not set(map(type, perm)) <= {int} or sorted(perm) != list(range(n))


@st.composite
def near_permutations(draw):
    """A permutation of 0..n-1, as a list or a tuple, with at most one flaw:
    an entry replaced by any index (perhaps a duplicate), by one out of
    range or by ``True``, ``False`` or a float; an entry dropped; or one
    inserted."""
    n = draw(st.integers(1, 12))
    perm = list(draw(st.permutations(range(n))))
    i = draw(st.integers(0, n - 1))
    flaw = draw(st.sampled_from(("none", "index", "out of range", "bool or float",
                                 "dropped", "inserted")))
    if flaw == "index":
        perm[i] = draw(st.integers(0, n - 1))
    elif flaw == "out of range":
        perm[i] = draw(st.one_of(st.integers(-n, -1), st.integers(n, 2 * n)))
    elif flaw == "bool or float":
        perm[i] = draw(st.sampled_from((True, False, float(perm[i]))))
    elif flaw == "dropped":
        del perm[i]
    elif flaw == "inserted":
        perm.insert(i, draw(st.integers(-1, n)))
    return n, perm if draw(st.booleans()) else tuple(perm)


@settings(max_examples=500, deadline=None)
@given(near_permutations())
def test_a_permutation_is_refused_as_sorting_refused_it(case):
    """``Dynamism.check`` compares a permutation's length and set with the
    n indices instead of sorting it, and refuses exactly what the sort
    refused, with the same message."""
    n, perm = case
    if _sort_refuses(perm, n):
        with pytest.raises(ValueError) as refused:
            Dynamism(perm).check(n, Mode.VP)
        assert str(refused.value) == f"not a permutation of 0..{n - 1}: {tuple(perm)}"
    else:
        Dynamism(perm).check(n, Mode.VP)


def test_edge_removal_rules():
    cfg = all_on_one(3)
    removed = Dynamism(None, 2).apply(cfg)
    assert removed.missing_edge == 2
    with pytest.raises(ValueError, match=r"^edge 3 is not an edge index in 0\.\.2$"):
        Dynamism(None, 3).check(cfg.n, Mode.ONE_INTERVAL)
    assert Dynamism().apply(cfg) is cfg


def test_crossing_edges_on_two_ring():
    # A 2-ring has two distinct edges between its nodes.
    assert crossing_edge(0, Action.CLOCKWISE, 2) == 0
    assert crossing_edge(0, Action.ANTICLOCKWISE, 2) == 1
    assert crossing_edge(1, Action.CLOCKWISE, 2) == 1
    assert crossing_edge(1, Action.ANTICLOCKWISE, 2) == 0
    assert crossing_edge(1, Action.STAY, 2) is None


# -------------------------------------------------------------------- moves


def test_resolve_requires_exactly_one_intent_per_robot():
    """A short map, a stranger label and an extra label are refused, and
    ``moved_counts`` and ``node_moves`` refuse each with the same message."""
    cfg = ring_from_slots(((1,), (2,)))
    for intents in ({1: Action.STAY}, {1: Action.STAY, 5: Action.STAY},
                    {1: Action.STAY, 2: Action.STAY, 3: Action.STAY}):
        with pytest.raises(ValueError) as resolved:
            resolve_moves(cfg, intents)
        with pytest.raises(ValueError) as counted:
            moved_counts(cfg, intents)
        assert str(counted.value) == str(resolved.value), intents
        with pytest.raises(ValueError) as tallied:
            node_moves(cfg, intents)
        assert str(tallied.value) == str(resolved.value), intents


@settings(max_examples=200, deadline=None)
@given(ring_configs(min_n=1, max_n=9), st.data())
def test_node_moves_count_each_nodes_robots_by_intent(cfg, data):
    """Stay, clockwise, then anticlockwise, each read at the action's index;
    a move across the removed edge counts as the move it intends."""
    intents = {label: data.draw(st.sampled_from(list(Action))) for label in cfg.labels()}
    moves = node_moves(cfg, intents)
    order = (Action.STAY, Action.CLOCKWISE, Action.ANTICLOCKWISE)
    assert moves == tuple(tuple(sum(intents[lab] is action for lab in slot) for action in order)
                          for slot in cfg.slots)
    assert all(tally[action] == tally[order.index(action)]
               for tally in moves for action in Action)


def _assert_resolves_as_the_oracle(cfg, intents):
    out = resolve_moves(cfg, intents)
    assert (out.n, out.missing_edge) == (cfg.n, cfg.missing_edge)
    assert out.slots == dense_resolve_moves(cfg, intents).slots
    assert all(type(slot) is tuple and list(slot) == sorted(slot) for slot in out.slots)
    if all(action is Action.STAY for action in intents.values()):
        assert out is cfg


@pytest.mark.parametrize("n", [1, 2, 3])
def test_resolve_matches_the_dense_oracle_on_every_small_ring(n):
    """Every placement of the robots, every intent vector and every removed
    edge or none, on the rings where the two directions can share an edge's
    endpoints (n=2 has two parallel edges) or a node (n=1)."""
    for nodes in itertools.product(range(n), repeat=n):
        slots = [[] for _ in range(n)]
        for label, node in enumerate(nodes, start=1):
            slots[node].append(label)
        for edge in (None, *range(n)):
            cfg = ring_from_slots(slots, edge)
            for actions in itertools.product(Action, repeat=n):
                _assert_resolves_as_the_oracle(cfg, dict(zip(range(1, n + 1), actions)))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7])
def test_moved_counts_are_the_resolved_rings_counts(n):
    """Every occupancy vector (at n=7 one, where a node can reach 7 robots,
    the most a node's field holds), every removed edge or none, and every
    intent vector: ``moved_counts`` reads the node counts of the ring
    ``resolve_moves`` builds, and ``moved_counts_table`` lists them in the
    soundness check's vector order."""
    occupancies = [(3, 0, 4, 0, 0, 0, 0)] if n == 7 else [
        counts for counts in itertools.product(range(n + 1), repeat=n) if sum(counts) == n]
    for counts in occupancies:
        slots = ring_from_multiplicities(counts).slots
        for edge in (None, *range(n)):
            cfg = RingConfiguration(n, slots, edge)
            for actions in itertools.product(Action, repeat=n):
                intents = dict(zip(range(1, n + 1), actions))
                assert moved_counts(cfg, intents) == \
                    resolve_moves(cfg, intents).multiplicities(), (cfg, actions)
            assert moved_counts_table(cfg) == [
                moved_counts(cfg, intents) for _, intents in _intent_vectors(n)], cfg


@settings(max_examples=300, deadline=None)
@given(ring_configs(min_n=1, max_n=9, allow_edge=False), st.data())
def test_resolve_matches_the_dense_oracle(cfg, data):
    """Only the slots a robot leaves or enters are rebuilt; the result is
    the dense resolution, slot for slot, with sorted tuples, and a round
    in which nobody moves returns the configuration itself."""
    n = cfg.n
    edge = data.draw(st.sampled_from((None, *range(n))))
    cfg = RingConfiguration(n, cfg.slots, edge)
    order = data.draw(st.permutations(range(1, n + 1)))
    movers = data.draw(st.sets(st.sampled_from(order)))
    intents = {label: data.draw(st.sampled_from((Action.CLOCKWISE, Action.ANTICLOCKWISE)))
               if label in movers else Action.STAY for label in order}
    _assert_resolves_as_the_oracle(cfg, intents)


@pytest.mark.parametrize("n", [64, 256])
def test_resolve_matches_the_dense_oracle_on_a_large_pile(n):
    """Every robot of a gathered ring draws an action, so the pile loses,
    and each of its neighbours gains, about a third of the robots at once;
    with no edge removed and with either edge of the pile removed."""
    rng = random.Random(n)
    for edge in (None, 0, n - 1):
        cfg = RingConfiguration(n, all_on_one(n).slots, edge)
        intents = {label: rng.choice(list(Action)) for label in range(1, n + 1)}
        _assert_resolves_as_the_oracle(cfg, intents)


@settings(max_examples=300, deadline=None)
@given(ring_configs(min_n=1, max_n=9), st.data())
def test_moving_the_movers_matches_resolving_every_intent(cfg, data):
    """``move_robots`` fed the ``(label, node, action)`` of every robot that
    does not stay, in any order, lands the robots where ``resolve_moves``
    lands them from the full intent map, with and without a removed edge."""
    intents = {label: data.draw(st.sampled_from(list(Action)), label=f"robot {label}")
               for label in range(1, cfg.n + 1)}
    movers = [(label, pos, intents[label]) for pos, slot in enumerate(cfg.slots)
              for label in slot if intents[label] is not Action.STAY]
    movers = data.draw(st.permutations(movers), label="mover order")
    out = move_robots(cfg, movers)
    assert out == resolve_moves(cfg, intents) == dense_resolve_moves(cfg, intents)
    if not movers:
        assert out is cfg


def test_blocked_move_is_a_no_op():
    cfg = ring_from_slots(((1, 3), (2,), ()), missing_edge=1)
    out = resolve_moves(cfg, {1: Action.STAY, 2: Action.CLOCKWISE, 3: Action.STAY})
    # Robot 2 wanted to cross edge 1, the removed one, so it stays put.
    assert out.slots == ((1, 3), (2,), ())
    out = resolve_moves(cfg, {1: Action.CLOCKWISE, 2: Action.STAY, 3: Action.STAY})
    assert out.slots == ((3,), (1, 2), ())


@settings(max_examples=150, deadline=None)
@given(ring_configs(), st.data())
def test_resolve_conserves_robots(cfg, data):
    """Simultaneous moves never create or destroy robots."""
    actions = data.draw(st.lists(st.sampled_from(list(Action)),
                                 min_size=cfg.n, max_size=cfg.n))
    out = resolve_moves(cfg, dict(zip(range(1, cfg.n + 1), actions)))
    assert sorted(label for slot in out.slots for label in slot) == list(range(1, cfg.n + 1))
    assert out.n == cfg.n


@settings(max_examples=150, deadline=None)
@given(ring_configs(allow_edge=False), st.data())
def test_moves_land_one_step_away(cfg, data):
    actions = {label: data.draw(st.sampled_from(list(Action)))
               for label in range(1, cfg.n + 1)}
    out = resolve_moves(cfg, actions)
    before, after = cfg.positions(), out.positions()
    for label in actions:
        assert after[label] == (before[label] + actions[label].value) % cfg.n


# ------------------------------------------------------------------- census


def test_classify_counts():
    metrics = classify(ring_from_slots(((1, 2, 4), (), (3,), ())))
    assert (metrics.holes, metrics.singletons, metrics.multinodes) == (2, 1, 1)
    assert not metrics.dispersed
    assert classify(ring_from_slots(((1,), (2,), (3,)))).dispersed


@settings(max_examples=150, deadline=None)
@given(ring_configs(), st.data())
def test_census_is_position_free(cfg, data):
    """Node shuffles, rotations and reflections never change the census."""
    perm = data.draw(st.permutations(range(cfg.n)))
    base = classify(cfg)
    for other in (Dynamism(tuple(perm)).apply(cfg),
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


@settings(max_examples=200, deadline=None)
@given(ring_configs())
def test_chain_index_files_every_chain(cfg):
    """The index files each chain of ``find_chains`` under its multinode, in
    order, and under each of its singleton nodes. It is built on its first
    read, not with the census."""
    by_anchor, by_singleton = {}, {}
    for chain in find_chains(cfg):
        by_anchor.setdefault(chain.multinode, []).append(chain)
        by_singleton.update(dict.fromkeys(chain.singletons, chain))
    analysis = ChainAnalysis(cfg)
    assert "by_anchor" not in vars(analysis) and "by_singleton" not in vars(analysis)
    assert (analysis.mult, analysis.metrics) == (cfg.multiplicities(), classify(cfg))
    assert analysis.by_singleton == by_singleton
    assert analysis.by_anchor == by_anchor


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


def _built_canonical_rotation(cfg):
    """The definition ``canonical_rotation`` replaced: build every rotation
    and keep the least by slots, then removed edge, none first."""
    rotations = [rotate(cfg, shift) for shift in range(cfg.n)]
    return min(rotations, key=lambda cand: (
        cand.slots, -1 if cand.missing_edge is None else cand.missing_edge))


def test_canonical_rotation_is_the_least_built_rotation():
    """Every occupancy vector at n <= 6, with every removed edge or none:
    4,216 rings."""
    rings = 0
    for n in range(1, 7):
        for counts in itertools.product(range(n + 1), repeat=n):
            if sum(counts) != n:
                continue
            for edge in (None, *range(n)):
                cfg = ring_from_slots(ring_from_multiplicities(counts).slots, edge)
                canon = canonical_rotation(cfg)
                assert canon == _built_canonical_rotation(cfg), cfg
                assert type(canon.slots) is tuple
                rings += 1
    assert rings == 4216


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
    node = cfg.positions()[robot.label]
    view = compute_view(cfg, robot, 0)
    assert view.clockwise == () and view.anti_clockwise == ()
    assert view.own_count == len(cfg.slots[node])
    # Scramble every other node: the view may not change.
    others = [label for label in range(1, cfg.n + 1)
              if label not in cfg.slots[node]]
    slots = [list(s) if i == node else [] for i, s in enumerate(cfg.slots)]
    for label in others:
        slots[data.draw(st.integers(0, cfg.n - 1).filter(lambda i: i != node))].append(label)
    shuffled = RingConfiguration(cfg.n, tuple(tuple(s) for s in slots), None)
    assert compute_view(shuffled, robot, 0) == view


@settings(max_examples=150, deadline=None)
@given(configured_scenarios(), st.data())
def test_reversed_view_equals_mirrored_aligned_view(scenario, data):
    """Flipping a robot's orientation is the same as mirroring the ring."""
    cfg, robots = scenario
    robot = data.draw(st.sampled_from(robots))
    k = data.draw(st.integers(0, cfg.n))
    flipped = RobotState(robot.label, robot.orientation.flipped(), robot.memory)
    mirrored = reflect(cfg, cfg.positions()[robot.label])
    assert compute_view(mirrored, robot, k) == compute_view(cfg, flipped, k)


def test_view_matches_hand_computed_example():
    cfg = ring_from_slots(((1, 2, 3), (4,), (), (), (5,)), missing_edge=2)
    robot = RobotState(4, Orientation.ALIGNED, None)
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

    on_pile = RobotState(2, Orientation.ALIGNED, None)
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
    robot = RobotState(1, Orientation.ALIGNED, None)
    assert compute_view(first, robot, 4) == compute_view(second, robot, 4)
    snaps = [Snapshot(ChainAnalysis(cfg), cfg.slots, 0, robot) for cfg in (first, second)]
    assert [snap.own_chain().length for snap in snaps] == [1, 2]
    assert snapshot_facts(snaps[0]) != snapshot_facts(snaps[1])


@pytest.mark.parametrize("mode,permutes,removes", [
    (Mode.NONE, False, False),
    (Mode.VP, True, False),
    (Mode.ONE_INTERVAL, False, True),
    (Mode.COMBINED, True, True),
])
def test_mode_flags_and_lookups(mode, permutes, removes):
    assert (mode.allows_permutation, mode.allows_edge_removal) == (permutes, removes)
    assert Mode(mode.value) is mode
    assert Mode.from_string(mode.value) is mode


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="unknown mode 'both'"):
        Mode.from_string("both")
    with pytest.raises(ValueError, match="'both' is not a valid Mode"):
        Mode("both")
