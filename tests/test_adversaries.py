"""Unit and property tests for dynamism generation and the adaptive
adversaries that starve zero-visibility rules."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import ring_configs
from dynring import (
    Action,
    AdversaryContext,
    Dynamism,
    Mode,
    ScenarioError,
    all_on_one,
    canonical_rotation,
    check_adaptive_soundness,
    classify,
    enumerate_initial_configs,
    exhaustive_branches,
    get_adversary,
    permutation_classes,
    resolve_moves,
    ring_from_slots,
    rotate,
)
from dynring.adversaries import EdgeBlocker, ThreeRingPermuter

CW, ACW, STAY = Action.CLOCKWISE, Action.ANTICLOCKWISE, Action.STAY


def ctx_for(cfg, mode=Mode.VP, intents=None, rng=None):
    return AdversaryContext(cfg, mode, rng=rng, predicted_intents=intents)


# ----------------------------------------------------------------- dynamism


def test_dynamism_applies_permutation_then_edge():
    cfg = ring_from_slots(((1, 2), (3,), ()))
    dyn = Dynamism((1, 2, 0), 2)
    out = dyn.apply(cfg)
    assert out.slots == ((), (1, 2), (3,))
    assert out.missing_edge == 2
    assert Dynamism().apply(cfg) == cfg


def test_dynamism_respects_mode():
    Dynamism((1, 0), None).check_mode(Mode.VP)
    Dynamism(None, 0).check_mode(Mode.ONE_INTERVAL)
    with pytest.raises(ScenarioError):
        Dynamism((1, 0), None).check_mode(Mode.ONE_INTERVAL)
    with pytest.raises(ScenarioError):
        Dynamism(None, 0).check_mode(Mode.VP)
    Dynamism((1, 0), 1).check_mode(Mode.COMBINED)


def test_benign_adversary_changes_nothing():
    cfg = ring_from_slots(((1, 2), (3,), ()))
    benign = get_adversary("benign")
    for mode in Mode:
        dyn = benign.choose(ctx_for(cfg, mode))
        assert dyn.apply(cfg) == cfg


def test_random_adversary_is_seeded_and_mode_bound():
    cfg = all_on_one(5)
    adversary = get_adversary("random")
    with pytest.raises(ScenarioError):
        adversary.choose(ctx_for(cfg, Mode.COMBINED))
    first = adversary.choose(ctx_for(cfg, Mode.COMBINED, rng=random.Random(9)))
    again = adversary.choose(ctx_for(cfg, Mode.COMBINED, rng=random.Random(9)))
    assert first == again
    no_perm = adversary.choose(ctx_for(cfg, Mode.ONE_INTERVAL, rng=random.Random(9)))
    assert no_perm.permutation is None
    no_edge = adversary.choose(ctx_for(cfg, Mode.VP, rng=random.Random(9)))
    assert no_edge.edge_removal is None


@pytest.mark.parametrize("n", [1, 2, 3, 17, 256, 1024])
def test_random_permutation_makes_the_draws_of_shuffle(n):
    """The random adversary's permutation is the one ``random.shuffle`` gives
    from the same generator, and it leaves the generator in the same state,
    so seeded runs (and criterion 9's digests) keep their draws."""
    cfg = all_on_one(n)
    adversary = get_adversary("random")
    for seed in range(200 if n < 256 else 20):
        rng, reference = random.Random(seed), random.Random(seed)
        nodes = list(range(n))
        reference.shuffle(nodes)
        assert adversary.choose(ctx_for(cfg, Mode.VP, rng=rng)).permutation == tuple(nodes)
        assert rng.random() == reference.random()


def test_unknown_adversary_is_rejected():
    with pytest.raises(ScenarioError):
        get_adversary("nope")


# ---------------------------------------------------------------- branching


def test_branch_counts_on_small_examples():
    cfg = ring_from_slots(((1, 2), (3,), ()))
    assert len(exhaustive_branches(cfg, Mode.NONE)) == 1
    # Only two cyclic orders of (pair, single, hole) exist.
    assert len(exhaustive_branches(cfg, Mode.VP)) == 2
    assert len(exhaustive_branches(cfg, Mode.ONE_INTERVAL)) == 4
    assert len(exhaustive_branches(cfg, Mode.COMBINED)) == 8
    assert len(exhaustive_branches(all_on_one(3), Mode.VP)) == 1


def test_branching_guard_protects_large_rings():
    big = all_on_one(8)
    with pytest.raises(ScenarioError):
        permutation_classes(big)
    # Without permutations the guard does not apply.
    assert len(exhaustive_branches(big, Mode.ONE_INTERVAL)) == 9


@settings(max_examples=60, deadline=None)
@given(ring_configs(min_n=2, max_n=5, allow_edge=False))
def test_permutation_classes_are_canonical_distinct_and_complete(cfg):
    """The kept permutations hit each rotation class exactly once and are
    pre-rotated so their result is the canonical representative."""
    classes = permutation_classes(cfg)
    reached = {canonical_rotation(Dynamism(p).apply(cfg)).slots
               for p in itertools.permutations(range(cfg.n))}
    results = [Dynamism(p).apply(cfg) for p in classes]
    assert {r.slots for r in results} == reached
    for result in results:
        assert canonical_rotation(result).slots == result.slots


def walked_arrangements(cfg):
    """Every arrangement of ``cfg`` up to rotation, found by walking all n!
    permutations: each result turned to its least rotation, in order."""
    n = cfg.n
    reached = set()
    for perm in itertools.permutations(range(n)):
        arrangement = Dynamism(perm).apply(cfg).slots
        reached.add(min(arrangement[r:] + arrangement[:r] for r in range(n)))
    return sorted(reached)


def test_permutation_classes_match_the_full_walk():
    """Built class by class, the branches reach the walk's arrangements in
    the walk's order, from every rotation of every start profile up to
    n=6."""
    for n in range(1, 7):
        for start in enumerate_initial_configs(n, up_to_reflection=False):
            for shift in range(n):
                cfg = rotate(start, shift)
                reached = [Dynamism(p).apply(cfg).slots
                           for p in permutation_classes(cfg)]
                assert reached == walked_arrangements(cfg), cfg


# ------------------------------------------------------- three-node permuter


def test_three_ring_permuter_sits_still_when_safe():
    adversary = get_adversary("vp-killer-n3")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    calm = {1: STAY, 2: STAY, 3: STAY}
    dyn = adversary.choose(ctx_for(cfg, intents=calm))
    assert dyn.apply(cfg) == cfg


def test_three_ring_permuter_counters_dispersal():
    adversary = get_adversary("vp-killer-n3")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    # Robot 2 walks anticlockwise into the hole: one robot per node.
    threat = {1: STAY, 2: ACW, 3: STAY}
    assert classify(resolve_moves(cfg, threat)).dispersed
    dyn = adversary.choose(ctx_for(cfg, intents=threat))
    after = resolve_moves(dyn.apply(cfg), threat)
    assert not classify(after).dispersed
    assert sorted(after.multiplicities()) == [0, 1, 2]


def test_three_ring_permuter_counters_gathering():
    adversary = get_adversary("vp-killer-n3")
    cfg = ring_from_slots(((1, 2), (3,), ()))
    threat = {1: STAY, 2: STAY, 3: ACW}
    assert max(resolve_moves(cfg, threat).multiplicities()) == 3
    dyn = adversary.choose(ctx_for(cfg, intents=threat))
    after = resolve_moves(dyn.apply(cfg), threat)
    assert sorted(after.multiplicities()) == [0, 1, 2]


def test_three_ring_permuter_requirements():
    adversary = get_adversary("vp-killer-n3")
    with pytest.raises(ScenarioError):
        adversary.check_scenario(4, Mode.VP)
    with pytest.raises(ScenarioError):
        adversary.check_scenario(3, Mode.ONE_INTERVAL)
    with pytest.raises(ScenarioError):
        adversary.choose(ctx_for(ring_from_slots(((1, 2), (3,), ()))))
    with pytest.raises(ScenarioError):
        adversary.choose(ctx_for(all_on_one(3), intents={1: STAY, 2: STAY, 3: STAY}))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([((1, 2), (3,), ()), ((1, 3), (2,), ()), ((2, 3), (), (1,))]),
       st.data())
def test_three_ring_permuter_never_lets_any_vector_win(slots, data):
    adversary = get_adversary("vp-killer-n3")
    cfg = ring_from_slots(slots)
    intents = {lab: data.draw(st.sampled_from(list(Action)), label=f"robot {lab}")
               for lab in (1, 2, 3)}
    dyn = adversary.choose(ctx_for(cfg, intents=intents))
    after = resolve_moves(dyn.apply(cfg), intents)
    assert sorted(after.multiplicities()) == [0, 1, 2]


# ----------------------------------------------------------- larger permuter


def test_general_permuter_sits_still_when_safe():
    adversary = get_adversary("vp-killer")
    cfg = ring_from_slots(((1, 2), (3,), (4,), ()))
    calm = {1: STAY, 2: STAY, 3: STAY, 4: STAY}
    dyn = adversary.choose(ctx_for(cfg, intents=calm))
    assert dyn.apply(cfg) == cfg


def test_general_permuter_blocks_single_hole_fill():
    adversary = get_adversary("vp-killer")
    cfg = ring_from_slots(((1, 2), (3,), (4,), ()))
    threat = {1: ACW, 2: STAY, 3: STAY, 4: STAY}
    assert classify(resolve_moves(cfg, threat)).dispersed
    dyn = adversary.choose(ctx_for(cfg, intents=threat))
    assert not classify(resolve_moves(dyn.apply(cfg), threat)).dispersed


def test_general_permuter_isolates_a_hole_when_three_remain():
    adversary = get_adversary("vp-killer")
    cfg = ring_from_slots(((1, 2, 3), (), (4, 5), (), ()))
    threat = {1: STAY, 2: CW, 3: ACW, 4: CW, 5: STAY}
    assert classify(resolve_moves(cfg, threat)).dispersed
    dyn = adversary.choose(ctx_for(cfg, intents=threat))
    landed = dyn.apply(cfg)
    # The shuffle packs the occupied nodes together so one hole has only
    # holes as neighbours; no single step can ever fill it.
    assert not classify(resolve_moves(landed, threat)).dispersed
    holes = [p for p, slot in enumerate(landed.slots) if not slot]
    assert any(not landed.slots[(p - 1) % 5] and not landed.slots[(p + 1) % 5]
               for p in holes)


def test_general_permuter_requirements():
    adversary = get_adversary("vp-killer")
    with pytest.raises(ScenarioError):
        adversary.check_scenario(3, Mode.VP)
    with pytest.raises(ScenarioError):
        adversary.check_scenario(5, Mode.ONE_INTERVAL)
    dispersed = ring_from_slots(((1,), (2,), (3,), (4,)))
    with pytest.raises(ScenarioError):
        adversary.choose(ctx_for(dispersed, intents={i: STAY for i in range(1, 5)}))


@settings(max_examples=60, deadline=None)
@given(ring_configs(min_n=4, max_n=5, allow_edge=False), st.data())
def test_general_permuter_never_lets_any_vector_win(cfg, data):
    if classify(cfg).dispersed:
        return
    adversary = get_adversary("vp-killer")
    intents = {lab: data.draw(st.sampled_from(list(Action)), label=f"robot {lab}")
               for lab in range(1, cfg.n + 1)}
    dyn = adversary.choose(ctx_for(cfg, intents=intents))
    assert not classify(resolve_moves(dyn.apply(cfg), intents)).dispersed


# -------------------------------------------------------------- edge blocker


def test_edge_blocker_unplugs_the_entrant():
    adversary = get_adversary("1i-killer")
    cfg = ring_from_slots(((1, 2), (), (3,)))
    threat = {1: STAY, 2: CW, 3: STAY}
    assert classify(resolve_moves(cfg, threat)).dispersed
    dyn = adversary.choose(ctx_for(cfg, Mode.ONE_INTERVAL, intents=threat))
    assert dyn.permutation is None and dyn.edge_removal == 0
    after = resolve_moves(dyn.apply(cfg), threat)
    assert not classify(after).dispersed
    assert after.slots == ((1, 2), (), (3,))


def test_edge_blocker_rests_when_safe():
    adversary = get_adversary("1i-killer")
    cfg = ring_from_slots(((1, 2), (), (3,)))
    calm = {1: STAY, 2: STAY, 3: STAY}
    assert adversary.choose(ctx_for(cfg, Mode.ONE_INTERVAL, intents=calm)) == Dynamism()
    with pytest.raises(ScenarioError):
        adversary.check_scenario(3, Mode.VP)


@settings(max_examples=60, deadline=None)
@given(ring_configs(min_n=2, max_n=5, allow_edge=False), st.data())
def test_edge_blocker_never_lets_any_vector_win(cfg, data):
    if classify(cfg).dispersed:
        return
    adversary = get_adversary("1i-killer")
    intents = {lab: data.draw(st.sampled_from(list(Action)), label=f"robot {lab}")
               for lab in range(1, cfg.n + 1)}
    dyn = adversary.choose(ctx_for(cfg, Mode.ONE_INTERVAL, intents=intents))
    assert not classify(resolve_moves(dyn.apply(cfg), intents)).dispersed


@pytest.mark.parametrize("adversary_id,slots,mode", [
    ("vp-killer-n3", ((1, 2), (3,), ()), Mode.VP),
    ("vp-killer", ((1, 2), (3,), (4,), ()), Mode.VP),
    ("1i-killer", ((1, 2), (), (3,)), Mode.ONE_INTERVAL),
])
def test_adaptive_adversaries_need_one_intent_per_robot(adversary_id, slots, mode):
    adversary = get_adversary(adversary_id)
    cfg = ring_from_slots(slots)
    calm = {lab: STAY for lab in cfg.labels()}
    adversary.choose(ctx_for(cfg, mode, intents=calm))
    short = {lab: STAY for lab in cfg.labels()[1:]}
    stranger = {**calm, cfg.n + 1: STAY}
    for intents in (short, stranger):
        with pytest.raises(ScenarioError, match="cover every robot exactly once"):
            adversary.choose(ctx_for(cfg, mode, intents=intents))


# ------------------------------------------------------------ full coverage


def test_soundness_helper_agrees_on_known_good_cases():
    report = check_adaptive_soundness(get_adversary("vp-killer-n3"),
                                      ring_from_slots(((1, 2), (3,), ())),
                                      Mode.VP, neutral_required=True)
    assert report == []
    report = check_adaptive_soundness(get_adversary("vp-killer"),
                                      ring_from_slots(((1, 2), (3,), (4,), ())),
                                      Mode.VP)
    assert report == []
    report = check_adaptive_soundness(get_adversary("1i-killer"),
                                      ring_from_slots(((1, 2, 3), (), (4,), ())),
                                      Mode.ONE_INTERVAL)
    assert report == []


@pytest.mark.parametrize("adversary_id,slots,mode,refusal", [
    ("vp-killer", ((1, 2), (3,), ()), Mode.VP, "needs n >= 4"),
    ("1i-killer", ((1, 2, 3), (), (4,), ()), Mode.VP, "needs a mode with edge removal"),
])
def test_soundness_refuses_a_scenario_the_adversary_refuses(adversary_id, slots, mode,
                                                            refusal):
    """A check the adversary cannot play is refused before any vector, not
    read as sound, nor refused only once some vector draws a counter."""
    with pytest.raises(ScenarioError, match=refusal):
        check_adaptive_soundness(get_adversary(adversary_id), ring_from_slots(slots), mode)


@pytest.mark.parametrize("adversary_id,slots,mode", [
    ("vp-killer-n3", ((1, 2), (3,), ()), Mode.VP),
    ("vp-killer", ((1, 2), (3,), (4,), ()), Mode.VP),
    ("1i-killer", ((1, 2, 3), (), (4,), ()), Mode.ONE_INTERVAL),
])
def test_soundness_asks_the_adversary_once_per_labelled_vector(adversary_id, slots, mode):
    """Wrapped on the instance, as the benchmark's tracer wraps it, ``choose``
    is called once for each of the 3^n labelled intent vectors, and every
    ``counter`` gets the ring ``resolve_moves`` builds from the same intents."""
    adversary = type(get_adversary(adversary_id))()
    cfg = ring_from_slots(slots)
    chosen, countered = [], []
    choose, counter = adversary.choose, adversary.counter

    def counting_choose(ctx):
        chosen.append(ctx.predicted_intents)
        return choose(ctx)

    def recording_counter(ring, intents, successor):
        countered.append((ring, intents, successor))
        return counter(ring, intents, successor)

    adversary.choose, adversary.counter = counting_choose, recording_counter
    assert check_adaptive_soundness(adversary, cfg, mode) == []
    assert len(chosen) == 3 ** cfg.n
    assert len({tuple(intents.values()) for intents in chosen}) == 3 ** cfg.n
    assert countered
    for ring, intents, successor in countered:
        assert ring == cfg and successor == resolve_moves(cfg, intents)


class _IdleEdgeBlocker(EdgeBlocker):
    """The 1i-killer with no counter: it keeps every edge whatever comes."""

    def counter(self, cfg, intents, successor):
        return self.neutral(cfg)


class _IdlePermuter(ThreeRingPermuter):
    """The 3-ring permuter with no counter: it never rearranges the ring."""

    def counter(self, cfg, intents, successor):
        return self.neutral(cfg)


PAIR_SINGLE_HOLE = ring_from_slots(((1, 2), (3,), ()))


def test_soundness_reports_each_vector_that_disperses():
    """An adversary that never counters lets 6 of the 27 intent vectors
    from a pair, a single and a hole disperse the robots."""
    problems = check_adaptive_soundness(_IdleEdgeBlocker(), PAIR_SINGLE_HOLE,
                                        Mode.ONE_INTERVAL)
    assert len(problems) == 6
    assert all(f" from {PAIR_SINGLE_HOLE} dispersed via " in problem for problem in problems)


def test_soundness_reports_each_vector_that_leaves_the_shape():
    """With its shape required, the idle 3-ring permuter is also reported
    for the 3 intent vectors that gather the robots."""
    problems = check_adaptive_soundness(_IdlePermuter(), PAIR_SINGLE_HOLE, Mode.VP,
                                        neutral_required=True)
    left = [problem for problem in problems if " left shape (" in problem]
    assert len(left) == 3 and len(problems) == 9
    dispersed = check_adaptive_soundness(_IdlePermuter(), PAIR_SINGLE_HOLE, Mode.VP)
    assert dispersed == [problem for problem in problems if problem not in left]
