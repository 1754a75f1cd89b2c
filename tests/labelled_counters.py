"""The labelled counters: the tests' oracle for the adaptive adversaries.

Each counter reads the labelled successor ring that ``resolve_moves``
builds from the predicted intents, and the intent of the robot it finds
there. ``dynring.adversaries`` counters from node counts and per-node move
counts instead, and must answer what these answer wherever ``choose``
counters: from a ring inside the adversary's invariant, on a vector whose
successor leaves it.
"""
from __future__ import annotations

from dynring import Action, Dynamism, classify, crossing_edge, resolve_moves
from dynring.adversaries import _arrangement, _swap


def labelled_choose(adversary, ctx) -> Dynamism:
    """What ``adversary.choose(ctx)`` answers, countering on labels."""
    cfg, intents = ctx.cfg, ctx.predicted_intents
    if adversary.invariant(ctx.predicted_counts):
        return adversary.neutral(cfg)
    counter = COUNTERS[adversary.adversary_id]
    return counter(cfg, intents, resolve_moves(cfg, intents))


def three_ring_counter(cfg, intents, successor):
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


def general_counter(cfg, intents, successor):
    n = cfg.n
    mult = cfg.multiplicities()
    holes = [p for p in range(n) if mult[p] == 0]
    if len(holes) >= 3:
        occupied = [p for p in range(n) if mult[p] > 0]
        return Dynamism(_arrangement(n, occupied + holes), None)
    if len(holes) == 2:
        triples = [p for p in range(n) if mult[p] == 3]
        if triples:
            return Dynamism(_counter_triple(cfg, triples[0], holes, successor), None)
        pairs = [p for p in range(n) if mult[p] == 2]
        return Dynamism(_counter_two_pairs(cfg, pairs, holes, intents), None)
    return Dynamism(_counter_single_pair(cfg, mult.index(2), holes[0], intents, successor),
                    None)


def _counter_triple(cfg, triple, holes, successor):
    positions = cfg.positions()
    fed_from_singleton = []
    for hole in holes:
        feeder = successor.slots[hole][0]
        if len(cfg.slots[positions[feeder]]) == 1:
            fed_from_singleton.append(hole)
    target = min(fed_from_singleton) if fed_from_singleton else min(holes)
    return _swap(cfg.n, triple, target)


def _counter_two_pairs(cfg, pairs, holes, intents):
    n = cfg.n
    first, second = sorted(pairs)

    def breakup(pos):
        acts = sorted(intents[lab].value for lab in cfg.slots[pos])
        return "split" if acts == [-1, 1] else "retain"

    kinds = (breakup(first), breakup(second))
    if kinds == ("split", "split"):
        return _arrangement(n, [first, min(holes), second])
    if kinds == ("retain", "retain"):
        mover = next(a for a in (intents[lab] for lab in cfg.slots[first])
                     if a is not Action.STAY)
        order = [first, second] if mover is Action.CLOCKWISE else [second, first]
        return _arrangement(n, order)
    splitter = first if kinds[0] == "split" else second
    retainer = second if splitter == first else first
    return _arrangement(n, [splitter, retainer])


def _counter_single_pair(cfg, pair, hole, intents, successor):
    n = cfg.n
    acts = [intents[lab] for lab in cfg.slots[pair]]
    if Action.STAY in acts:
        return _swap(n, pair, hole)
    donor = successor.slots[pair][0]
    return _swap(n, hole, cfg.positions()[donor])


def edge_counter(cfg, intents, successor):
    mult = cfg.multiplicities()
    hole = next(p for p in range(cfg.n) if mult[p] == 0)
    entrant = successor.slots[hole][0]
    origin = cfg.positions()[entrant]
    return Dynamism(None, crossing_edge(origin, intents[entrant], cfg.n))


COUNTERS = {
    "vp-killer-n3": three_ring_counter,
    "vp-killer": general_counter,
    "1i-killer": edge_counter,
}
