"""Unit and property tests for dynamism generation and the adaptive
adversaries that starve zero-visibility rules."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import dynring.verifier
from conftest import KILLER_SOUNDNESS_CASES, ring_configs
from dynring import (
    Action,
    AdversaryContext,
    Dynamism,
    Mode,
    RingConfiguration,
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
from dynring.ring import moved_counts_table, node_moves
from dynring.verifier import _intent_vectors
from labelled_counters import labelled_choose

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


def per_state_permutation_classes(cfg):
    """``permutation_classes`` as it was before the arrangements were built
    once per ring shape: every arrangement of this ring's own slots, with
    the least slot pinned to node 0, turned to its least rotation; then one
    permutation per arrangement in order, with the ring's holes sent to the
    arrangement's holes in clockwise order."""
    n = cfg.n
    base = cfg.slots
    pinned, *others = sorted(slot for slot in base if slot)
    empties = n - 1 - len(others)
    least = () if empties else pinned
    found = []
    for holes in itertools.combinations(range(1, n), empties):
        free = [p for p in range(1, n) if p not in holes]
        for order in itertools.permutations(others):
            arrangement = [()] * n
            arrangement[0] = pinned
            for p, slot in zip(free, order):
                arrangement[p] = slot
            found.append(min(tuple(arrangement[r:] + arrangement[:r])
                             for r in range(n) if arrangement[r] == least))
    perms = []
    for target in sorted(found):
        at = {slot: p for p, slot in enumerate(target) if slot}
        gaps = iter(p for p, slot in enumerate(target) if not slot)
        perms.append(tuple(at[slot] if slot else next(gaps) for slot in base))
    return perms


def test_permutation_classes_are_the_per_state_walks():
    """A branch records its permutation, which witnesses and lemma-violation
    records hold, so the classes built from the shape's patterns are the
    per-state walk's exact tuples, in its order, from every rotation of
    every start profile up to n=6."""
    for n in range(1, 7):
        for start in enumerate_initial_configs(n, up_to_reflection=False):
            for shift in range(n):
                cfg = rotate(start, shift)
                assert permutation_classes(cfg) == per_state_permutation_classes(cfg), cfg


@settings(max_examples=50, deadline=None)
@given(ring_configs(min_n=7, max_n=7, allow_edge=False))
def test_permutation_classes_are_the_per_state_walks_at_the_limit(cfg):
    """The same on labelled rings of the largest size the search branches
    on, where labels are not dealt in node order."""
    assert permutation_classes(cfg) == per_state_permutation_classes(cfg)


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
    ("vp-killer-n3", ((1, 2), (5,), ()), Mode.VP,
     "^predicted intents must cover every robot exactly once$"),
])
def test_soundness_refuses_a_scenario_the_adversary_refuses(adversary_id, slots, mode,
                                                            refusal):
    """A check the adversary cannot play is refused before any vector, not
    read as sound, nor refused only once some vector draws a counter. A ring
    whose labels are not 1..n, built past ``ring_from_slots``' check, names
    robots no intent vector covers."""
    cfg = RingConfiguration(len(slots), slots)
    with pytest.raises(ScenarioError, match=refusal):
        check_adaptive_soundness(get_adversary(adversary_id), cfg, mode)


@pytest.mark.parametrize("adversary_id,slots,mode", [
    ("vp-killer-n3", ((1, 2), (3,), ()), Mode.VP),
    ("vp-killer", ((1, 2), (3,), (4,), ()), Mode.VP),
    ("1i-killer", ((1, 2, 3), (), (4,), ()), Mode.ONE_INTERVAL),
])
def test_soundness_asks_the_adversary_once_per_labelled_vector(adversary_id, slots, mode):
    """Wrapped on the instance, as the benchmark's tracer wraps it, ``choose``
    is called once for each of the 3^n labelled intent vectors, and every
    ``counter`` gets the per-node move counts of the vector ``choose`` was
    asked about and the node counts those moves reach."""
    adversary = type(get_adversary(adversary_id))()
    cfg = ring_from_slots(slots)
    chosen, countered = [], []
    choose, counter = adversary.choose, adversary.counter

    def counting_choose(ctx):
        chosen.append(ctx.predicted_intents)
        return choose(ctx)

    def recording_counter(moves, counts):
        countered.append((chosen[-1], moves, counts))
        return counter(moves, counts)

    adversary.choose, adversary.counter = counting_choose, recording_counter
    assert check_adaptive_soundness(adversary, cfg, mode) == []
    assert len(chosen) == 3 ** cfg.n
    assert len({tuple(intents.values()) for intents in chosen}) == 3 ** cfg.n
    assert countered
    for intents, moves, counts in countered:
        assert moves == node_moves(cfg, intents) and counts == moved_counts(cfg, intents)


class _IdleEdgeBlocker(EdgeBlocker):
    """The 1i-killer with no counter: it keeps every edge whatever comes.
    Its answer is the shared frozen neutral, so the soundness check judges
    the vectors that disperse through its repeated-frozen-answer path."""

    def counter(self, moves, counts):
        return self.neutral(None)


class _IdlePermuter(ThreeRingPermuter):
    """The 3-ring permuter with no counter: it never rearranges the ring,
    answering with the shared frozen neutral as ``_IdleEdgeBlocker`` does."""

    def counter(self, moves, counts):
        return self.neutral(None)


PAIR_SINGLE_HOLE = ring_from_slots(((1, 2), (3,), ()))


def test_soundness_reports_each_vector_that_disperses():
    """An adversary that never counters lets 6 of the 27 intent vectors
    from a pair, a single and a hole disperse the robots."""
    problems = check_adaptive_soundness(_IdleEdgeBlocker(), PAIR_SINGLE_HOLE,
                                        Mode.ONE_INTERVAL)
    assert len(problems) == 6
    assert all(f" from {PAIR_SINGLE_HOLE} dispersed via " in problem for problem in problems)


class _RewritingEdgeBlocker(_IdleEdgeBlocker):
    """The idle 1i-killer, but it first rewrites the vector it is asked
    about to every robot staying, which disperses no one."""

    def choose(self, ctx):
        for label in ctx.predicted_intents:
            ctx.predicted_intents[label] = STAY
        return super().choose(ctx)


def test_an_adversary_cannot_rewrite_the_vector_it_is_judged_by():
    """Each vector is judged as it was asked. Had the rewrite gone through,
    the idle blocker's 6 dispersing vectors would read as none: the map it
    is handed refuses the write instead."""
    with pytest.raises(TypeError):
        check_adaptive_soundness(_RewritingEdgeBlocker(), PAIR_SINGLE_HOLE, Mode.ONE_INTERVAL)


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
    """Every ``choose`` is shown the node counts of the vector it is asked
    about."""
    adversary = type(get_adversary(adversary_id))()
    choose = adversary.choose
    asked = []

    def spying_choose(ctx):
        counts = moved_counts(ctx.cfg, ctx.predicted_intents)
        assert ctx.predicted_counts == counts, (ctx.cfg, ctx.predicted_intents)
        asked.append(ctx)
        return choose(ctx)

    adversary.choose = spying_choose
    rings = admitted_rings(adversary, n)
    assert rings
    for cfg in rings:
        expected = per_vector_soundness(adversary, cfg, mode, neutral)
        assert check_adaptive_soundness(adversary, cfg, mode, neutral) == expected
    assert len(asked) == 2 * len(rings) * 3 ** n


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


@pytest.mark.parametrize("adversary_id,mode", [("vp-killer", Mode.VP),
                                               ("1i-killer", Mode.ONE_INTERVAL)])
def test_an_answer_that_shapes_the_start_reads_the_starts_table(adversary_id, mode,
                                                               monkeypatch):
    """The identity permutation and no dynamism leave the start as it is, so
    the check tables the start once and judges their vectors by it: one
    table for the start, one for each other ring the answers shape."""
    tabled = []
    table = dynring.verifier.moved_counts_table
    monkeypatch.setattr(dynring.verifier, "moved_counts_table",
                        lambda cfg: tabled.append(cfg) or table(cfg))
    adversary = type(get_adversary(adversary_id))()
    answers = []
    choose = adversary.choose
    adversary.choose = lambda ctx: answers.append(choose(ctx)) or answers[-1]
    cfg = ring_from_slots(((1, 2), (3,), (4,), ()))
    assert check_adaptive_soundness(adversary, cfg, mode) == []
    assert adversary.neutral(cfg) in answers
    shaped = {answer.apply(cfg) for answer in answers}
    assert tabled[0] is cfg and set(tabled) == shaped | {cfg}
    assert len(tabled) == len(shaped)


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


def _swap_when_robot_1_stays(ctx) -> tuple[int, ...]:
    """The swap of nodes 0 and 1 when robot 1 stays, else the identity."""
    n = ctx.cfg.n
    return (1, 0, *range(2, n)) if ctx.predicted_intents[1] is STAY else tuple(range(n))


class _OneListAnswerPermuter(GeneralPermuter):
    """Never counters, and answers every vector with one ``Dynamism``
    object whose permutation is a list it rewrites before each answer."""

    def __init__(self):
        self.perm = []
        self.answer = Dynamism(self.perm, None)

    def choose(self, ctx):
        self.perm[:] = _swap_when_robot_1_stays(ctx)
        return self.answer


class _ReadDynamism(Dynamism):
    """A dynamism whose permutation, as unpacking reads it, is ``read``, an
    attribute its owner sets; the stored field never changes."""

    def __iter__(self):
        return iter((self.read, self.edge_removal))


class _OneSubclassAnswerPermuter(GeneralPermuter):
    """Never counters, and answers every vector with one ``Dynamism``
    subclass object, setting the permutation it reads before each answer."""

    def __init__(self):
        self.answer = None

    def choose(self, ctx):
        if self.answer is None or len(self.answer.permutation) != ctx.cfg.n:
            self.answer = _ReadDynamism(tuple(range(ctx.cfg.n)), None)
        self.answer.read = _swap_when_robot_1_stays(ctx)
        return self.answer


@pytest.mark.parametrize("make_adversary", [_OneListAnswerPermuter, _OneSubclassAnswerPermuter],
                         ids=["list-permutation", "subclass"])
def test_soundness_keys_afresh_a_repeated_answer_that_is_not_frozen(make_adversary):
    """An answer object handed back for the next vector is read off the last
    answer's table only when nothing of it can have changed. These two hand
    back one object that shapes the swapped ring for some vectors and the
    plain ring for others: by a list permutation rewritten in place, and by
    a subclass that unpacks to what its owner last set. Each vector is
    judged by the ring its own answer shapes."""
    adversary = make_adversary()
    reported = 0
    for cfg in admitted_rings(adversary, 4):
        expected = per_vector_soundness(adversary, cfg, Mode.VP)
        assert check_adaptive_soundness(adversary, cfg, Mode.VP) == expected
        reported += len(expected)
    assert reported


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
    with pytest.raises(AttributeError):  # a tuple's field cannot be set
        neutral.edge_removal = 0


def test_intent_vectors_are_shared_read_only_maps():
    """Two soundness checks at one ring size hand ``choose`` the same map
    objects, one per vector, in product order, and none can be written."""
    adversary = type(get_adversary("1i-killer"))()
    asked = []
    choose = adversary.choose
    adversary.choose = lambda ctx: asked.append(ctx.predicted_intents) or choose(ctx)
    first, second = admitted_rings(adversary, 3)[:2]
    check_adaptive_soundness(adversary, first, Mode.ONE_INTERVAL)
    check_adaptive_soundness(adversary, second, Mode.ONE_INTERVAL)
    assert len(asked) == 2 * 27 and len({id(intents) for intents in asked}) == 27
    assert all(once is again for once, again in zip(asked[:27], asked[27:]))
    assert [tuple(intents.items()) for intents in asked[:27]] == [
        tuple(enumerate(combo, 1)) for combo in itertools.product((STAY, CW, ACW), repeat=3)]
    with pytest.raises(TypeError):
        asked[0][1] = CW
    assert asked[0][1] is STAY


# ------------------------------------------------------ counters on counts

# (adversary, mode, n): every ring size up to 6 each adaptive adversary plays.
ADAPTIVE_CASES = (
    ("vp-killer-n3", Mode.VP, 3),
    *(("vp-killer", Mode.VP, n) for n in (4, 5, 6)),
    *(("1i-killer", Mode.ONE_INTERVAL, n) for n in (2, 3, 4, 5, 6)),
)


def _answers(adversary, cfg, mode, vectors):
    """``choose``'s answer to each intents map of ``vectors`` from ``cfg``."""
    return [adversary.choose(ctx_for(cfg, mode, intents=intents)) for intents in vectors]


@pytest.mark.parametrize("adversary_id,mode,n", ADAPTIVE_CASES)
def test_counters_answer_as_the_labelled_counters(adversary_id, mode, n):
    """From every rotation of every start the adversary admits, every intent
    vector draws the answer of the counter that reads the labelled
    successor (``tests/labelled_counters.py``)."""
    adversary = get_adversary(adversary_id)
    countered = 0
    for cfg in admitted_rings(adversary, n):
        for counts, (_, intents) in zip(moved_counts_table(cfg), _intent_vectors(n)):
            ctx = AdversaryContext(cfg, mode, None, intents, counts)
            assert adversary.choose(ctx) == labelled_choose(adversary, ctx), (cfg, intents)
            countered += not adversary.invariant(counts)
    assert countered


def _relabelled(cfg, vectors, relabel):
    """``cfg`` and each intents map of ``vectors`` with robot l renamed
    ``relabel[l - 1]``: the intents travel with their robots."""
    slots = tuple(tuple(sorted(relabel[lab - 1] for lab in slot)) for slot in cfg.slots)
    moved = [{relabel[lab - 1]: action for lab, action in intents.items()}
             for intents in vectors]
    return RingConfiguration(cfg.n, slots), moved


@pytest.mark.parametrize("adversary_id,mode,n", ADAPTIVE_CASES)
def test_adaptive_answers_are_the_same_under_every_relabelling(adversary_id, mode, n):
    """The label-invariance the impossibility proof needs: each adaptive
    adversary answers every intent vector from every start it admits as it
    answers the relabelled vector from the relabelled ring. Every
    relabelling is tried at n <= 4 and one seeded random one per ring at
    n = 5 and 6."""
    adversary = get_adversary(adversary_id)
    vectors = [intents for _, intents in _intent_vectors(n)]
    rng = random.Random(n)
    labels = range(1, n + 1)
    for cfg in admitted_rings(adversary, n):
        answers = _answers(adversary, cfg, mode, vectors)
        relabels = itertools.permutations(labels) if n <= 4 else [rng.sample(labels, n)]
        for relabel in relabels:
            ring, moved = _relabelled(cfg, vectors, relabel)
            assert _answers(adversary, ring, mode, moved) == answers, (cfg, relabel)
