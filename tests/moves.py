"""The dense move resolution: the tests' oracle for ``resolve_moves``.

Every robot is placed afresh on the node its action leads to, and every
slot is sorted. ``resolve_moves`` and ``step`` hand only the robots that
do not stay to ``move_robots``, which rebuilds only the slots a robot
leaves or enters and applies the crossing rule without ``crossing_edge``;
they must agree with this slot for slot.
"""
from __future__ import annotations

from dynring import Action, RingConfiguration, crossing_edge


def dense_resolve_moves(cfg: RingConfiguration, intents: dict[int, Action]) -> RingConfiguration:
    if intents.keys() != set(range(1, cfg.n + 1)):
        raise ValueError(f"intents name robots {sorted(intents)}, not exactly 1..{cfg.n}")
    n, cut = cfg.n, cfg.missing_edge
    slots = [[] for _ in range(n)]
    for pos, slot in enumerate(cfg.slots):
        for label in slot:
            action = intents[label]
            if action is Action.STAY or crossing_edge(pos, action, n) == cut:
                slots[pos].append(label)
            else:
                slots[(pos + action) % n].append(label)
    return RingConfiguration(n, tuple(map(tuple, map(sorted, slots))), cut)
