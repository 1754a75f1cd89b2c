"""Adversaries that reshape the ring each round.

An adversary acts before the robots look: it may permute the nodes
(contents travel along) and may remove one edge for the round, subject to
the run's dynamism mode. Besides the benign and random baselines, this
module provides exhaustive branch generation for worst-case search and
three adaptive adversaries that keep zero-visibility robots from ever
reaching one-robot-per-node.

The adaptive adversaries rely on one observation: a robot that sees only
its own node makes the same decision before and after any permutation or
edge removal, because neither touches node contents. Their predicted
intents are therefore exact.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import NamedTuple

from .ring import (
    Action,
    Mode,
    RingConfiguration,
    ScenarioError,
    check_edge,
    classify,
    crossing_edge,
    moved_counts,
    resolve_moves,
)

# The types a permutation's entries may have: a bool or a float equal to
# an index passes a set comparison against ``range(n)``.
_INT = frozenset({int})


@functools.lru_cache(maxsize=8)  # the last few ring sizes: a sweep plays many
def _indices(n: int) -> frozenset:
    """The node indices 0..n-1 of an n-ring, which a permutation must list."""
    return frozenset(range(n))


class Dynamism(NamedTuple):
    """One round's adversarial reshaping: permutation first, then edge. A
    tuple, as every branch of the bound search builds one."""

    permutation: tuple[int, ...] | None = None
    edge_removal: int | None = None

    def check(self, n: int, mode: Mode) -> None:
        """Refuse an n-ring's dynamism from outside: one ``mode`` forbids, a
        permutation not of the plain ints 0..n-1, or an edge ``check_edge`` refuses."""
        perm, edge = self
        if perm is not None and not mode.allows_permutation:
            raise ScenarioError(f"mode {mode.value} does not allow vertex permutations")
        if edge is not None and not mode.allows_edge_removal:
            raise ScenarioError(f"mode {mode.value} does not allow edge removal")
        # n plain ints that make up the set 0..n-1 are each of them once.
        if perm is not None and (not set(map(type, perm)) <= _INT or len(perm) != n
                                 or set(perm) != _indices(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {tuple(perm)}")
        if edge is not None:
            check_edge(edge, n)

    def apply(self, cfg: RingConfiguration) -> RingConfiguration:
        """The ring the robots see, from the intact ring ``cfg``: node i moves
        to ``permutation[i]`` with its occupants, then ``edge_removal`` is
        out for the round. The dynamism is trusted (see ``check``)."""
        perm, edge = self
        if perm is None and edge is None:
            return cfg
        n, slots, _ = cfg
        if perm is not None:
            shuffled = [()] * n
            for old, new in enumerate(perm):
                shuffled[new] = slots[old]
            slots = tuple(shuffled)
        return RingConfiguration(n, slots, edge)


def refuse_uncovered(count, *args):
    """``count(*args)``, with the ``ValueError`` of ``moved_counts`` or
    ``moved_counts_table`` for intents or a ring that do not name robots
    1..n exactly raised as a scenario's refusal."""
    try:
        return count(*args)
    except ValueError:
        raise ScenarioError("predicted intents must cover every robot exactly once") from None


class AdversaryContext:
    """Everything an adversary may consult for one round. A slots class, as
    it builds faster than a tuple and every round of a run builds one.

    ``predicted_counts`` are the node counts the predicted intents lead to.
    A caller that gives intents without them gets them from ``moved_counts``,
    and intents that do not name exactly the ring's robots are refused
    (``refuse_uncovered``); the soundness check, which has every vector's
    counts at hand, passes them."""

    __slots__ = ("cfg", "mode", "rng", "predicted_intents", "predicted_counts")

    def __init__(self, cfg: RingConfiguration, mode: Mode, rng=None,
                 predicted_intents: dict[int, Action] | None = None,
                 predicted_counts: tuple[int, ...] | None = None):
        self.cfg = cfg
        self.mode = mode
        self.rng = rng
        self.predicted_intents = predicted_intents
        if predicted_counts is None and predicted_intents is not None:
            predicted_counts = refuse_uncovered(moved_counts, cfg, predicted_intents)
        self.predicted_counts = predicted_counts


# Answers made once and shared, as dynamisms are frozen.
_NO_DYNAMISM = Dynamism(None, None)


@functools.lru_cache(maxsize=8)  # the last few ring sizes: a sweep plays many
def _identity(n: int) -> Dynamism:
    """The identity permutation of an n-ring, with no edge removed."""
    return Dynamism(tuple(range(n)), None)


class Adversary:
    adversary_id: str = ""
    adaptive: bool = False

    def check_scenario(self, n: int, mode: Mode) -> None:
        pass

    def check_start(self, cfg: RingConfiguration) -> None:
        """Refuse an intact start this adversary cannot play from; one that
        counters nothing, as this base, plays from any."""

    def invariant(self, counts: tuple[int, ...]) -> bool:
        """Whether a ring with these per-node robot counts is one this
        adversary can keep the robots in, round after round; here, any ring
        that is not dispersed."""
        return counts.count(1) != len(counts)

    def choose(self, ctx: AdversaryContext) -> Dynamism:
        raise NotImplementedError


class BenignAdversary(Adversary):
    """Applies the identity permutation where allowed and removes nothing."""

    adversary_id = "benign"

    def choose(self, ctx):
        return _identity(ctx.cfg.n) if ctx.mode.allows_permutation else _NO_DYNAMISM


class RandomAdversary(Adversary):
    """Uniform permutation and uniform edge choice (including no edge)."""

    adversary_id = "random"

    def choose(self, ctx):
        if ctx.rng is None:
            raise ScenarioError("random adversary needs a seeded rng")
        perm = None
        if ctx.mode.allows_permutation:
            # ``rng.shuffle(nodes)`` inlined, with its exact draws: for each
            # i from n - 1 down to 1, the first of ``getrandbits(k)`` draws
            # that is at most i, where k = (i + 1).bit_length().
            nodes = list(range(ctx.cfg.n))
            getrandbits = ctx.rng.getrandbits
            for i in range(len(nodes) - 1, 0, -1):
                k = (i + 1).bit_length()
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                nodes[i], nodes[j] = nodes[j], nodes[i]
            perm = tuple(nodes)
        edge = None
        if ctx.mode.allows_edge_removal:
            # The draw choice([None, 0, ..., n - 1]) makes; 0 is no edge.
            edge = ctx.rng.randrange(ctx.cfg.n + 1) - 1
            if edge < 0:
                edge = None
        return Dynamism(perm, edge)


EXHAUSTIVE_PERMUTATION_LIMIT = 7


@functools.cache  # one entry per (n, occupied), n <= EXHAUSTIVE_PERMUTATION_LIMIT
def _arrangement_patterns(n: int, occupied: int) -> tuple[tuple[int, ...], ...]:
    """Every arrangement of ``occupied`` distinct slots and ``n - occupied``
    holes on an n-ring, one per rotation class, as a rank pattern at its
    least rotation: 0 for a hole, r for the r-th least slot. The patterns
    come sorted, and each is given by its places: the nodes of its holes,
    clockwise, then the nodes of ranks 1, 2, ...

    Pinning rank 1 to node 0 and placing the other ranks every distinct
    way meets each class exactly once, as no rotation fixes an arrangement
    of distinct ranks: (n-1)!/e! classes for e holes, each of which a walk
    over all n! permutations would meet n*e! times.
    """
    empties = n - occupied
    least = 0 if empties else 1  # where a least rotation can start
    patterns = []
    for holes in itertools.combinations(range(1, n), empties):
        free = [p for p in range(1, n) if p not in holes]
        for order in itertools.permutations(range(2, occupied + 1)):
            pattern = [0] * n
            pattern[0] = 1
            for p, rank in zip(free, order):
                pattern[p] = rank
            patterns.append(min(tuple(pattern[r:] + pattern[:r])
                                for r in range(n) if pattern[r] == least))
    return tuple(tuple(sorted(range(n), key=pattern.__getitem__)) for pattern in sorted(patterns))


def permutation_classes(cfg: RingConfiguration) -> list[tuple[int, ...]]:
    """One permutation per distinct rearrangement, up to rotation.

    Two permutations whose resulting occupancy sequences are rotations of
    each other lead to equivalent rounds, since robot decisions and move
    resolution are rotation equivariant. Each kept permutation lands on
    the least rotation of its class, with the empty nodes in their order,
    and the classes come in the order of those representatives.

    The classes are those of the ring's shape, its size and occupied slot
    count (``_arrangement_patterns``), with the r-th least slot in rank r.
    That is exact: a hole compares below every slot, and labels are
    unique, so two distinct slots compare as their ranks do. A pattern's
    least rotation, and the order of the patterns, are therefore those of
    the arrangements. Each slot goes to its rank's node and the holes go
    to the pattern's holes in clockwise order.
    """
    n = cfg.n
    if n > EXHAUSTIVE_PERMUTATION_LIMIT:
        raise ScenarioError(
            f"exhaustive permutation branching is limited to n <= "
            f"{EXHAUSTIVE_PERMUTATION_LIMIT}, got n={n}")
    if n == 1:  # an itemgetter of one index returns the item, not a tuple
        return [(0,)]
    base = cfg.slots
    ranked = sorted(slot for slot in base if slot)
    empties = n - len(ranked)
    # A slot's index in the places: holes in base order, then the ranks.
    index = dict(zip(ranked, range(empties, n)))
    holes = iter(range(empties))
    take = operator.itemgetter(*[index[slot] if slot else next(holes) for slot in base])
    return [take(places) for places in _arrangement_patterns(n, len(ranked))]


def exhaustive_branches(cfg: RingConfiguration, mode: Mode) -> tuple[Dynamism, ...]:
    """Every materially distinct dynamism choice for one round."""
    perms: list[tuple[int, ...] | None]
    if mode.allows_permutation:
        perms = permutation_classes(cfg)
    else:
        perms = [None]
    edges: list[int | None] = [None]
    if mode.allows_edge_removal:
        edges.extend(range(cfg.n))
    return tuple([Dynamism(p, e) for p in perms for e in edges])


def _swap(n: int, a: int, b: int) -> tuple[int, ...]:
    perm = list(range(n))
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def _arrangement(n: int, leading: list[int]) -> tuple[int, ...]:
    """Permutation placing ``leading`` old nodes first, the rest ascending."""
    rest = [p for p in range(n) if p not in leading]
    order = leading + rest
    perm = [0] * n
    for new, old in enumerate(order):
        perm[old] = new
    return tuple(perm)


class AdaptiveAdversary(Adversary):
    """Counters the robots' predicted moves. When the node counts they would
    reach keep the invariant it plays ``neutral(cfg)``, and otherwise
    ``counter(cfg, intents, successor)`` on the ring they would reach."""

    adaptive = True

    def check_start(self, cfg):
        """Refuse a ring outside ``invariant``, which ``choose`` trusts; each
        round from inside ends inside (``check_adaptive_soundness``)."""
        if not self.invariant(cfg.multiplicities()):
            raise ScenarioError(f"{self.adversary_id} cannot keep its invariant from {cfg}")

    def choose(self, ctx):
        cfg, intents = ctx.cfg, ctx.predicted_intents
        if intents is None:
            raise ScenarioError("adaptive adversary needs predicted robot intents")
        if self.invariant(ctx.predicted_counts):
            return self.neutral(cfg)
        return self.counter(cfg, intents, resolve_moves(cfg, intents))

    def neutral(self, cfg: RingConfiguration) -> Dynamism:
        raise NotImplementedError

    def counter(self, cfg: RingConfiguration, intents: dict[int, Action],
                successor: RingConfiguration) -> Dynamism:
        raise NotImplementedError


class ThreeRingPermuter(AdaptiveAdversary):
    """Keeps a 3-ring with a pair, a single node and a hole in that shape.

    Zero-visibility robots cannot tell the two cyclic arrangements of
    (pair, single, hole) apart. Whenever the robots' moves would gather
    everyone or spread them out, reversing the cyclic order makes the same
    moves land back in the pair/single/hole shape. The gathered state is
    never entered because from there a split into three groups could not
    be countered, every rearrangement of one pile being a plain rotation.
    """

    adversary_id = "vp-killer-n3"

    def check_scenario(self, n, mode):
        if n != 3:
            raise ScenarioError(f"{self.adversary_id} is specific to n=3, got n={n}")
        if not mode.allows_permutation:
            raise ScenarioError(f"{self.adversary_id} needs a mode with vertex permutations")

    def invariant(self, counts):
        """One pair, one single node and one hole."""
        return sorted(counts) == [0, 1, 2]

    def neutral(self, cfg):
        return _identity(3)

    def counter(self, cfg, intents, successor):
        # From a pair, a single and a hole the moves lead to that shape
        # again, to a dispersal or to a gathering.
        mult = cfg.multiplicities()
        pair = mult.index(2)
        single = mult.index(1)
        hole = mult.index(0)
        if classify(successor).dispersed:
            leavers = sum(1 for lab in cfg.slots[pair] if intents[lab] is not Action.STAY)
            if leavers == 1:
                return Dynamism(_swap(3, pair, hole), None)
            return Dynamism(_swap(3, single, hole), None)
        return Dynamism(_swap(3, pair, single), None)


class GeneralPermuter(AdaptiveAdversary):
    """Denies dispersion on rings of four or more nodes by rearranging.

    When the predicted moves would spread the robots out perfectly, some
    small rearrangement makes two of them collide or leaves a node that
    nobody can reach. Which rearrangement depends on how many holes exist
    and on how the occupied pairs or triple are about to break up.
    """

    adversary_id = "vp-killer"

    def check_scenario(self, n, mode):
        if n < 4:
            raise ScenarioError(f"{self.adversary_id} needs n >= 4, got n={n}")
        if not mode.allows_permutation:
            raise ScenarioError(f"{self.adversary_id} needs a mode with vertex permutations")

    def neutral(self, cfg):
        return _identity(cfg.n)

    def counter(self, cfg, intents, successor):
        n = cfg.n
        mult = cfg.multiplicities()
        holes = [p for p in range(n) if mult[p] == 0]

        if len(holes) >= 3:
            occupied = [p for p in range(n) if mult[p] > 0]
            return Dynamism(_arrangement(n, occupied + holes), None)

        if len(holes) == 2:
            triples = [p for p in range(n) if mult[p] == 3]
            if triples:
                return Dynamism(self._counter_triple(cfg, triples[0], holes, successor), None)
            pairs = [p for p in range(n) if mult[p] == 2]
            return Dynamism(self._counter_two_pairs(cfg, pairs, holes, intents), None)

        return Dynamism(self._counter_single_pair(cfg, mult.index(2), holes[0], intents,
                                                  successor), None)

    def _counter_triple(self, cfg, triple, holes, successor):
        # A perfect spread fills each hole with exactly one robot. Park the
        # triple on a hole fed from a singleton node: the feeder and the
        # triple's staying robot then share that node. If both holes are
        # fed by the triple itself, the triple sits between them; pushing
        # it one step aside reuses its old node as an unreachable gap.
        positions = cfg.positions()
        fed_from_singleton = []
        for hole in holes:
            feeder = successor.slots[hole][0]
            if len(cfg.slots[positions[feeder]]) == 1:
                fed_from_singleton.append(hole)
        target = min(fed_from_singleton) if fed_from_singleton else min(holes)
        return _swap(cfg.n, triple, target)

    def _counter_two_pairs(self, cfg, pairs, holes, intents):
        n = cfg.n
        first, second = sorted(pairs)

        def breakup(pos):
            acts = sorted(intents[lab].value for lab in cfg.slots[pos])
            return "split" if acts == [-1, 1] else "retain"

        kinds = (breakup(first), breakup(second))
        if kinds == ("split", "split"):
            # Opposite leavers from both pairs meet in the hole between them.
            return _arrangement(n, [first, min(holes), second])
        if kinds == ("retain", "retain"):
            # Send the first pair's mover onto the second pair's stayer.
            mover = next(a for a in (intents[lab] for lab in cfg.slots[first])
                         if a is not Action.STAY)
            order = [first, second] if mover is Action.CLOCKWISE else [second, first]
            return _arrangement(n, order)
        splitter = first if kinds[0] == "split" else second
        retainer = second if splitter == first else first
        return _arrangement(n, [splitter, retainer])

    def _counter_single_pair(self, cfg, pair, hole, intents, successor):
        n = cfg.n
        acts = [intents[lab] for lab in cfg.slots[pair]]
        if Action.STAY in acts:
            # The staying robot keeps the pair's node occupied; put that
            # node where the hole's feeder expects emptiness.
            return _swap(n, pair, hole)
        # Both robots leave opposite ways, so their node is refilled by a
        # neighbouring donor. Swapping the donor with the hole leaves the
        # vacated node with no reachable replacement.
        donor = successor.slots[pair][0]
        return _swap(n, hole, cfg.positions()[donor])


class EdgeBlocker(AdaptiveAdversary):
    """Denies dispersion by cutting the edge one hole's filler would use."""

    adversary_id = "1i-killer"

    def check_scenario(self, n, mode):
        if not mode.allows_edge_removal:
            raise ScenarioError(f"{self.adversary_id} needs a mode with edge removal")

    def neutral(self, cfg):
        return _NO_DYNAMISM

    def counter(self, cfg, intents, successor):
        mult = cfg.multiplicities()
        hole = next(p for p in range(cfg.n) if mult[p] == 0)
        entrant = successor.slots[hole][0]
        origin = cfg.positions()[entrant]
        edge = crossing_edge(origin, intents[entrant], cfg.n)
        return Dynamism(None, edge)


ADVERSARIES = {
    adv.adversary_id: adv
    for adv in (
        BenignAdversary(),
        RandomAdversary(),
        ThreeRingPermuter(),
        GeneralPermuter(),
        EdgeBlocker(),
    )
}


def get_adversary(adversary_id: str) -> Adversary:
    try:
        return ADVERSARIES[adversary_id]
    except KeyError:
        known = ", ".join(sorted(ADVERSARIES))
        raise ScenarioError(f"unknown adversary {adversary_id!r} (known: {known})") from None
