"""Independent transcriptions of the decision rules, used as test oracles.

Each rule here is rewritten from scratch against the raw configuration: it
walks the ring node by node in the robot's own frame, recomputes edge
indices inline, and never touches the packaged chain analysis. The
exhaustive searches compare these against the installed policies on every
distinct decision point they visit, so a shortcut or indexing slip in
either implementation shows up as a mismatch.
"""
from __future__ import annotations

from dataclasses import dataclass

from dynring import Action, RingConfiguration, RobotState


@dataclass(frozen=True)
class ChainFacts:
    """One chain as seen from a robot, in that robot's own frame.

    ``own_step`` is +1 when the multinode-to-hole direction is the robot's
    clockwise, -1 otherwise. ``other`` carries (length, good) of the
    opposite-direction chain at the same multinode, when one exists.
    """

    own_step: int
    length: int
    good: bool
    other: tuple[int, bool] | None = None


def _walk_to_boundary(cfg: RingConfiguration, start: int, step: int):
    """Walk from ``start`` in global direction ``step`` to the first node
    that is not a singleton. Returns (singletons passed, stop node, edges)."""
    n = cfg.n
    singles = 0
    edges = []
    pos = start
    while True:
        edges.append(pos % n if step == 1 else (pos - 1) % n)
        pos = (pos + step) % n
        if len(cfg.slots[pos]) == 1:
            singles += 1
            continue
        return singles, pos, edges


def _edges_intact(cfg: RingConfiguration, edges) -> bool:
    return cfg.missing_edge is None or cfg.missing_edge not in edges


def _singleton_chain(cfg: RingConfiguration, pos: int, sign: int) -> ChainFacts | None:
    """The unique chain through a singleton node, if any: a multinode on
    one side of its singleton run and a hole on the other."""
    cw_singles, cw_stop, cw_edges = _walk_to_boundary(cfg, pos, sign)
    acw_singles, acw_stop, acw_edges = _walk_to_boundary(cfg, pos, -sign)
    cw_count = len(cfg.slots[cw_stop])
    acw_count = len(cfg.slots[acw_stop])
    if acw_count >= 2 and cw_count == 0:
        anchor, own_step = acw_stop, 1
    elif cw_count >= 2 and acw_count == 0:
        anchor, own_step = cw_stop, -1
    else:
        return None
    length = cw_singles + acw_singles + 1
    good = _edges_intact(cfg, cw_edges + acw_edges)
    # The opposite-direction chain at the same multinode, walking away
    # from this robot.
    away = -sign * own_step
    sib_singles, sib_stop, sib_edges = _walk_to_boundary(cfg, anchor, away)
    other = None
    if len(cfg.slots[sib_stop]) == 0:
        other = (sib_singles, _edges_intact(cfg, sib_edges))
    return ChainFacts(own_step, length, good, other)


def _anchored_chains(cfg: RingConfiguration, pos: int, sign: int) -> list[ChainFacts]:
    """Chains anchored at a multinode, at most one per own direction."""
    out = []
    for own_step in (1, -1):
        singles, stop, edges = _walk_to_boundary(cfg, pos, own_step * sign)
        if len(cfg.slots[stop]) == 0:
            out.append(ChainFacts(own_step, singles, _edges_intact(cfg, edges)))
    return out


def _has_multinode(cfg: RingConfiguration) -> bool:
    return any(len(slot) >= 2 for slot in cfg.slots)


def _beside_two_holes(cfg: RingConfiguration, pos: int) -> bool:
    n = cfg.n
    return not cfg.slots[(pos + 1) % n] and not cfg.slots[(pos - 1) % n]


def naive_vp_chain(cfg: RingConfiguration, pos: int, robot: RobotState) -> int:
    if not _has_multinode(cfg):
        return 0
    own = sorted(cfg.slots[pos])
    sign = robot.orientation.sign
    if len(own) == 1:
        chain = _singleton_chain(cfg, pos, sign)
        if chain is not None and chain.own_step == 1:
            return 1
        return 0
    if robot.label != own[0]:
        return 0
    for chain in _anchored_chains(cfg, pos, sign):
        if chain.own_step == 1:
            return 1
    return 0


def naive_vp_one_interval(cfg: RingConfiguration, pos: int, robot: RobotState) -> int:
    if not _has_multinode(cfg):
        return 0
    own = sorted(cfg.slots[pos])
    sign = robot.orientation.sign
    if len(own) == 1:
        chain = _singleton_chain(cfg, pos, sign)
        if chain is None or not chain.good:
            return 0
        # The sibling chain points opposite to mine; defer when it is the
        # good clockwise one.
        if chain.other is not None and chain.other[1] and chain.own_step == -1:
            return 0
        return chain.own_step
    if robot.label != own[0]:
        return 0
    good = [c for c in _anchored_chains(cfg, pos, sign) if c.good]
    if len(good) == 2:
        return 1
    if len(good) == 1:
        return good[0].own_step
    return 0


def naive_achiral_odd(cfg: RingConfiguration, pos: int, robot: RobotState) -> int:
    if not _has_multinode(cfg):
        return 0
    own = sorted(cfg.slots[pos])
    sign = robot.orientation.sign
    if len(own) == 1:
        chain = _singleton_chain(cfg, pos, sign)
        if chain is None or not chain.good:
            return 0
        if chain.other is not None and chain.other[1] and chain.other[0] <= chain.length:
            return 0
        return chain.own_step
    if robot.label != own[0]:
        return 0
    good = [c for c in _anchored_chains(cfg, pos, sign) if c.good]
    if len(good) == 2:
        if good[0].length == good[1].length:
            return 1
        return min(good, key=lambda c: c.length).own_step
    if len(good) == 1:
        return good[0].own_step
    return 0


def naive_even4_main(cfg: RingConfiguration, pos: int, robot: RobotState) -> int:
    if not _has_multinode(cfg):
        return 0
    own = sorted(cfg.slots[pos])
    sign = robot.orientation.sign
    if len(own) == 1:
        chain = _singleton_chain(cfg, pos, sign)
        if chain is None or not chain.good:
            return 0
        if chain.other is not None and chain.other[1]:
            if chain.other[0] < chain.length:
                return 0
            if chain.other[0] == chain.length:
                return -chain.own_step
        return chain.own_step
    if robot.label != own[0]:
        return 0
    good = [c for c in _anchored_chains(cfg, pos, sign) if c.good]
    if len(good) == 2:
        if good[0].length != good[1].length:
            return min(good, key=lambda c: c.length).own_step
        if _beside_two_holes(cfg, pos):
            return 1
        return 0
    if len(good) == 1:
        return good[0].own_step
    return 0


# Census classes a zero-visibility robot can distinguish, in table order.
_K0_DOMAIN = ((1, "least"), (2, "least"), (2, "second"),
              (3, "least"), (3, "second"), (3, "other"))
_K0_STEP = {"s": 0, "c": 1, "a": -1}


def naive_no_visibility(cfg: RingConfiguration, pos: int, robot: RobotState, table: str) -> int:
    own = sorted(cfg.slots[pos])
    census = min(len(own), 3)
    idx = own.index(robot.label)
    rank = "least" if idx == 0 else ("second" if idx == 1 else "other")
    return _K0_STEP[table[_K0_DOMAIN.index((census, rank))]]


def _no_chirality_rule(cfg: RingConfiguration, pos: int, robot: RobotState) -> int:
    # First round from the gathered pile: everyone steps own-clockwise.
    if robot.memory is None:
        return 1
    return naive_vp_one_interval(cfg, pos, robot)


def _even4_rule(cfg: RingConfiguration, pos: int, robot: RobotState) -> int:
    if robot.memory is None:
        if len(cfg.slots[pos]) == cfg.n:
            return 1
        return naive_even4_main(cfg, pos, robot)
    return naive_vp_one_interval(cfg, pos, robot)


_RULES = {
    "vp-chain": naive_vp_chain,
    "vp-1i": naive_vp_one_interval,
    "no-chir-1i": _no_chirality_rule,
    "achiral-odd": naive_achiral_odd,
    "even4": _even4_rule,
}


def naive_intents(policy_id: str):
    """An oracle callable (cfg, robots) -> {label: global Action}."""
    if policy_id.startswith("k0:"):
        table = policy_id[3:]

        def rule(cfg, pos, robot):
            return naive_no_visibility(cfg, pos, robot, table)
    else:
        rule = _RULES[policy_id]

    def oracle(cfg, robots):
        at = cfg.positions()
        return {robot.label: Action(rule(cfg, at[robot.label], robot) * robot.orientation.sign)
                for robot in robots}

    return oracle
