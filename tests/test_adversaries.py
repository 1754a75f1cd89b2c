"""Unit and property tests for dynamism generation and the adaptive
adversaries that starve zero-visibility rules."""
from __future__ import annotations

import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import KILLER_SOUNDNESS_CASES, ring_configs
from dynring import (
    Action,
    AdversaryContext,
    Dynamism,
    Mode,
    ScenarioError,
    adversary_start_filter,
    all_on_one,
    canonical_rotation,
    check_adaptive_soundness,
    classify,
    enumerate_initial_configs,
    exhaustive_branches,
    get_adversary,
    moved_counts,
    permutation_classes,
    resolve_moves,
    ring_from_slots,
    rotate,
    verify_impossibility,
)
from dynring.adversaries import EdgeBlocker, GeneralPermuter, ThreeRingPermuter

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
    Dynamism((1, 0), None).check(2, Mode.VP)
    Dynamism(None, 0).check(2, Mode.ONE_INTERVAL)
    with pytest.raises(ScenarioError, match="^mode 1i does not allow vertex permutations$"):
        Dynamism((1, 0), None).check(2, Mode.ONE_INTERVAL)
    with pytest.raises(ScenarioError, match="^mode vp does not allow edge removal$"):
        Dynamism(None, 0).check(2, Mode.VP)
    Dynamism((1, 0), 1).check(2, Mode.COMBINED)
    # A forbidden part is refused before a malformed one.
    with pytest.raises(ScenarioError, match="^mode none does not allow edge removal$"):
        Dynamism(None, 7).check(3, Mode.NONE)
    with pytest.raises(ScenarioError, match="^mode 1i does not allow vertex permutations$"):
        Dynamism((0, 0, 1), 7).check(3, Mode.ONE_INTERVAL)
    with pytest.raises(ValueError, match=r"^not a permutation of 0\.\.2: \(0, 0, 1\)$"):
        Dynamism((0, 0, 1), 7).check(3, Mode.COMBINED)


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
    with pytest.raises(ScenarioError, match="cannot keep its invariant"):
        adversary.check_start(all_on_one(3))


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
    with pytest.raises(ScenarioError, match="cannot keep its invariant"):
        adversary.check_start(dispersed)


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


@pytest.mark.parametrize("adversary_id,mode", [
    ("vp-killer", Mode.VP),
    ("1i-killer", Mode.ONE_INTERVAL),
])
def test_soundness_refuses_a_ring_with_a_removed_edge(adversary_id, mode):
    """No round starts from a ring with a removed edge, so the check refuses
    one before it asks about any vector. Without the refusal ``vp-killer``'s
    permutation cleared the edge and the ring read as sound, and
    ``1i-killer``'s first cut raised a bare ``ValueError`` partway through."""
    adversary = type(get_adversary(adversary_id))()
    asked = []
    choose = adversary.choose
    adversary.choose = lambda ctx: asked.append(ctx) or choose(ctx)
    cut = ring_from_slots(((1, 2, 3), (), (4,), ()), missing_edge=1)
    with pytest.raises(ScenarioError, match="no removed edge"):
        check_adaptive_soundness(adversary, cut, mode)
    assert asked == []


def test_a_start_off_the_invariant_is_refused_before_any_choose():
    """``choose`` trusts its ring to keep the invariant, so the impossibility
    sweep and the soundness check refuse a start outside it before they
    ask the adversary anything."""
    adversary = type(get_adversary("vp-killer-n3"))()
    asked = []
    choose = adversary.choose
    adversary.choose = lambda ctx: asked.append(ctx) or choose(ctx)
    refusal = r"^vp-killer-n3 cannot keep its invariant from <ring 1,2,3 \. \.>$"
    with pytest.raises(ScenarioError, match=refusal):
        verify_impossibility(adversary, 3, Mode.VP, starts=[all_on_one(3)])
    with pytest.raises(ScenarioError, match=refusal):
        check_adaptive_soundness(adversary, all_on_one(3), Mode.VP)
    assert asked == []


def per_vector_soundness(adversary, cfg, mode, neutral_required=False) -> list[str]:
    """The plain soundness check: every vector's answer is checked
    (``Dynamism.check``) and applied on its own. The reference for
    ``check_adaptive_soundness``, which shapes each distinct answer once."""
    adversary.check_scenario(cfg.n, mode)
    problems = []
    labels = cfg.labels()
    for combo in itertools.product((STAY, CW, ACW), repeat=cfg.n):
        intents = dict(zip(labels, combo))
        dynamism = adversary.choose(AdversaryContext(cfg, mode, None, intents))
        dynamism.check(cfg.n, mode)
        counts = moved_counts(dynamism.apply(cfg), intents)
        if counts.count(1) == cfg.n:
            outcome = "dispersed"
        elif neutral_required and not adversary.invariant(counts):
            outcome = f"left shape {counts}"
        else:
            continue
        described = ",".join(a.short for a in combo)
        problems.append(f"intents [{described}] from {cfg} {outcome} via {dynamism}")
    return problems


def admitted_rings(adversary, n: int):
    """Every rotation of every start the adversary's invariant admits."""
    rings = {}
    for cfg in enumerate_initial_configs(n, up_to_reflection=False):
        if adversary_start_filter(adversary, cfg):
            for shift in range(n):
                turned = rotate(cfg, shift)
                rings[turned.slots] = turned
    return list(rings.values())


@pytest.mark.parametrize("adversary_id,n,mode,neutral", KILLER_SOUNDNESS_CASES)
def test_soundness_matches_the_per_vector_check_from_every_rotation(adversary_id, n, mode,
                                                                    neutral):
    adversary = get_adversary(adversary_id)
    rings = admitted_rings(adversary, n)
    assert rings
    for cfg in rings:
        expected = per_vector_soundness(adversary, cfg, mode, neutral)
        assert check_adaptive_soundness(adversary, cfg, mode, neutral) == expected


@pytest.mark.parametrize("adversary,mode", [
    (_IdleEdgeBlocker(), Mode.ONE_INTERVAL),
    (_IdlePermuter(), Mode.VP),
])
@pytest.mark.parametrize("neutral", [False, True])
def test_soundness_matches_the_per_vector_check_for_idle_adversaries(adversary, mode,
                                                                     neutral):
    """Adversaries that never counter leave problems, so the lists compared
    are not empty."""
    reported = 0
    for cfg in admitted_rings(adversary, 3):
        expected = per_vector_soundness(adversary, cfg, mode, neutral)
        assert check_adaptive_soundness(adversary, cfg, mode, neutral) == expected
        reported += len(expected)
    assert reported


class _PermutingOnceEdgeBlocker(EdgeBlocker):
    """The 1i-killer, but it answers the every-robot-clockwise vector with
    the identity permutation, which mode ``1i`` forbids."""

    def choose(self, ctx):
        if all(action is CW for action in ctx.predicted_intents.values()):
            return Dynamism(tuple(range(ctx.cfg.n)), None)
        return super().choose(ctx)


def test_soundness_checks_the_mode_of_an_answer_given_for_one_vector():
    adversary = _PermutingOnceEdgeBlocker()
    cfg = ring_from_slots(((1, 2), (3,), ()))
    for check in (per_vector_soundness, check_adaptive_soundness):
        with pytest.raises(ScenarioError, match="mode 1i does not allow vertex permutations"):
            check(adversary, cfg, Mode.ONE_INTERVAL)


class _ListOrTuplePermuter(GeneralPermuter):
    """Always swaps nodes 0 and 1 and never counters; the swap comes as a
    list when robot 1 stays and as a tuple otherwise."""

    def choose(self, ctx):
        swap = (1, 0) + tuple(range(2, ctx.cfg.n))
        return Dynamism(list(swap) if ctx.predicted_intents[1] is STAY else swap, None)


def test_soundness_judges_a_list_and_a_tuple_of_one_permutation_alike():
    """Both forms shape one ring, and each problem names its own vector's
    answer."""
    adversary = _ListOrTuplePermuter()
    cfg = ring_from_slots(((1, 2), (3,), (4,), ()))
    problems = check_adaptive_soundness(adversary, cfg, Mode.VP)
    assert problems == per_vector_soundness(adversary, cfg, Mode.VP)
    assert any("permutation=[1, 0, 2, 3]" in problem for problem in problems)
    assert any("permutation=(1, 0, 2, 3)" in problem for problem in problems)


class _BoolEdgeBlocker(EdgeBlocker):
    """Cuts edge 1 for every vector, but names it ``True`` when every robot
    goes clockwise; ``True == 1``, yet it is no edge index."""

    def choose(self, ctx):
        if all(action is CW for action in ctx.predicted_intents.values()):
            return Dynamism(None, True)
        return Dynamism(None, 1)


def test_soundness_refuses_a_bool_edge_after_the_same_int_edge():
    cfg = ring_from_slots(((1, 2), (3,), ()))
    for check in (per_vector_soundness, check_adaptive_soundness):
        with pytest.raises(ValueError, match="edge True is not an edge index"):
            check(_BoolEdgeBlocker(), cfg, Mode.ONE_INTERVAL)


class _FloatPermuter(GeneralPermuter):
    """Always swaps nodes 0 and 1 and never counters; the swap's 0 is
    written ``0.0`` for the every-robot-clockwise vector, which comes after
    vectors answered with ints."""

    def choose(self, ctx):
        zero = 0.0 if all(action is CW for action in ctx.predicted_intents.values()) else 0
        return Dynamism((1, zero) + tuple(range(2, ctx.cfg.n)), None)


def test_soundness_refuses_a_float_permutation_after_the_same_int_permutation():
    """``(1, 0.0, 2, 3)`` equals ``(1, 0, 2, 3)``, so a check that keyed
    answers by the permutation alone reused the int answer's ring for it."""
    cfg = ring_from_slots(((1, 2), (3,), (4,), ()))
    for check in (per_vector_soundness, check_adaptive_soundness):
        with pytest.raises(ValueError, match=r"not a permutation of 0\.\.3: \(1, 0\.0, 2, 3\)"):
            check(_FloatPermuter(), cfg, Mode.VP)


@pytest.mark.parametrize("adversary_id,n", [
    ("vp-killer-n3", 3), ("vp-killer", 4), ("vp-killer", 5),
    ("1i-killer", 2), ("1i-killer", 3), ("1i-killer", 5),
])
def test_neutral_answers_are_shared_frozen_objects(adversary_id, n):
    """An adaptive adversary's neutral answer is one frozen object per n:
    the identity permutation when it permutes, no dynamism when it cuts.
    The benign adversary answers with the same objects."""
    adversary = get_adversary(adversary_id)
    first, second = admitted_rings(adversary, n)[:2]
    neutral = adversary.neutral(first)
    assert adversary.neutral(second) is neutral
    mode = Mode.VP if adversary_id.startswith("vp") else Mode.ONE_INTERVAL
    permutation = tuple(range(n)) if mode is Mode.VP else None
    assert neutral == Dynamism(permutation, None)
    assert get_adversary("benign").choose(ctx_for(first, mode)) is neutral
    with pytest.raises(dataclasses.FrozenInstanceError):
        neutral.edge_removal = 0
