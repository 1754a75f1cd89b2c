"""Core model of a dynamic ring occupied by labelled robots.

An n-node ring carries exactly n robots. Nodes are anonymous: the integer
positions used here are simulator bookkeeping, and robot decision rules
never receive them. Robots observe the world only through snapshots
anchored at their own node (see ``Snapshot``).

Two forms of per-round dynamism exist:

* vertex permutation: node positions are shuffled and every node's
  occupants travel with it;
* single-edge removal: one ring edge is absent for the round, and a move
  that would cross it leaves the robot in place.

A node with no robot is a hole, with one robot a singleton node, with two
or more a multinode. A chain is a multinode followed, in one direction,
by zero or more singleton nodes and then a hole; it is good when none of
its edges is the removed one. Chains drive every shipped decision rule.

Every position index is taken modulo n with clockwise meaning +1. For
n == 2 the ring is treated as having two parallel edges (edge 0 between
positions 0 and 1 clockwise, edge 1 on the way back), so the edge crossed
by a move is always determined by the move's direction.
"""

from __future__ import annotations

import functools
from enum import Enum, IntEnum
from typing import NamedTuple


class ScenarioError(Exception):
    """A run was configured with an incompatible policy, adversary or ring."""


class Mode(Enum):
    """Which kinds of per-round dynamism the adversary may apply."""

    NONE = "none"
    VP = "vp"
    ONE_INTERVAL = "1i"
    COMBINED = "combined"

    def __init__(self, text: str):
        # Plain attributes, as every ``Dynamism.check`` and ``choose`` reads them.
        self.allows_permutation = text in ("vp", "combined")
        self.allows_edge_removal = text in ("1i", "combined")

    @classmethod
    def from_string(cls, text: str) -> "Mode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError(f"unknown mode {text!r} (expected one of none, vp, 1i, combined)")


class Action(IntEnum):
    """A one-edge move choice. The value is the clockwise position delta."""

    ANTICLOCKWISE = -1
    STAY = 0
    CLOCKWISE = 1

    def inverse(self) -> "Action":
        return _MIRRORED[self]

    @property
    def short(self) -> str:
        return _SHORT[self]


ACTION_FROM_SHORT = {"stay": Action.STAY, "cw": Action.CLOCKWISE, "acw": Action.ANTICLOCKWISE}
_SHORT = {action: short for short, action in ACTION_FROM_SHORT.items()}


class Orientation(Enum):
    """A robot's private sense of clockwise relative to the global frame."""

    ALIGNED = "A"
    REVERSED = "R"

    def __init__(self, letter: str):
        # +1 or -1; a plain attribute, as every look reads it.
        self.sign = 1 if letter == "A" else -1

    def flipped(self) -> "Orientation":
        return Orientation.REVERSED if self is Orientation.ALIGNED else Orientation.ALIGNED


def convert_frame(action: Action, orientation: Orientation) -> Action:
    """Map an action between a robot's own frame and the global frame.

    The mapping is an involution, so the same function translates both
    ways. STAY is frame independent.
    """
    if orientation is Orientation.ALIGNED:
        return action
    return _MIRRORED[action]


# A reversed robot's action in the other frame, indexed by the action's
# value (-1 picks the last entry).
_MIRRORED = (Action.STAY, Action.ANTICLOCKWISE, Action.CLOCKWISE)


class RobotState(NamedTuple):
    """One robot: unique label, private orientation, memory. Its node is a
    fact of the ring, read from the configuration. A tuple, as every round
    that changes a hand or a memory builds one."""

    label: int
    orientation: Orientation = Orientation.ALIGNED
    memory: object = None


class RingConfiguration(NamedTuple):
    """Occupancy of the ring plus the (at most one) removed edge.

    ``slots[i]`` holds the sorted labels at clockwise position i. The total
    robot count must equal n and the labels must be exactly 1..n.
    ``missing_edge = e`` means the edge between positions e and e+1 (mod n)
    is absent for the current round; None means the ring is intact.

    The constructor trusts its input, as every ring the program derives
    from a valid one is valid. A ring that enters from outside is built by
    ``ring_from_slots`` or ``ring_from_multiplicities``, which check it
    (``__post_init__``). A tuple, as every round and every branch of the
    bound search builds several.
    """

    n: int
    slots: tuple[tuple[int, ...], ...]
    missing_edge: int | None = None

    def __post_init__(self) -> "RingConfiguration":
        """This ring with every slot sorted, if it is valid; else
        ``ValueError``. The check of a ring that enters from outside, under
        the name ``perfbench/tracing.py`` counts it by."""
        if self.n < 1:
            raise ValueError("ring needs at least one node")
        if len(self.slots) != self.n:
            raise ValueError(f"expected {self.n} slots, got {len(self.slots)}")
        normal = tuple(tuple(sorted(slot)) for slot in self.slots)
        labels = [lab for slot in normal for lab in slot]
        if len(labels) != self.n:
            raise ValueError(f"expected {self.n} robots, found {len(labels)}")
        # Plain ints only: 1.0 or True would pass the set comparison.
        if any(type(lab) is not int for lab in labels) or set(labels) != set(range(1, self.n + 1)):
            raise ValueError(f"robot labels must be exactly the integers 1..{self.n}")
        if self.missing_edge is not None:
            check_edge(self.missing_edge, self.n)
        return RingConfiguration(self.n, normal, self.missing_edge)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(map(len, self.slots))

    def positions(self) -> dict[int, int]:
        return {lab: pos for pos, slot in enumerate(self.slots) for lab in slot}

    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(lab for slot in self.slots for lab in slot))

    def __str__(self) -> str:
        body = " ".join("." if not s else ",".join(map(str, s)) for s in self.slots)
        edge = "" if self.missing_edge is None else f" !e{self.missing_edge}"
        return f"<ring {body}{edge}>"


def check_edge(edge, n: int) -> None:
    """A removed edge must be a plain int (a bool is not one) in 0..n-1."""
    if type(edge) is not int or not 0 <= edge < n:
        raise ValueError(f"edge {edge!r} is not an edge index in 0..{n - 1}")


def check_intact(cfg: RingConfiguration) -> None:
    """A round starts from a ring with every edge present."""
    if cfg.missing_edge is not None:
        raise ScenarioError(f"a round starts from a ring with no removed edge, not {cfg}")


def ring_from_slots(slots, missing_edge: int | None = None) -> RingConfiguration:
    """A checked ring from each node's labels, clockwise from position 0:
    the way to build a ring that enters from outside."""
    slots = tuple(tuple(slot) for slot in slots)
    return RingConfiguration(len(slots), slots, missing_edge).__post_init__()


def ring_from_multiplicities(mults) -> RingConfiguration:
    """Build a configuration from per-node robot counts.

    Labels 1..n are dealt clockwise starting at position 0, which is the
    canonical labelling used wherever only counts matter.
    """
    mults = tuple(mults)
    slots = []
    nxt = 1
    for count in mults:
        slots.append(tuple(range(nxt, nxt + count)))
        nxt += count
    return RingConfiguration(len(mults), tuple(slots)).__post_init__()


def all_on_one(n: int) -> RingConfiguration:
    return ring_from_multiplicities([n] + [0] * (n - 1))


def random_configuration(n: int, rng) -> RingConfiguration:
    slots = [[] for _ in range(n)]
    for label in range(1, n + 1):
        slots[rng.randrange(n)].append(label)
    return ring_from_slots(slots)


def crossing_edge(pos: int, action: Action, n: int) -> int | None:
    """Edge index crossed by a global-frame step from ``pos``; None for STAY."""
    if action is Action.STAY:
        return None
    if action is Action.CLOCKWISE:
        return pos
    return (pos - 1) % n


def resolve_moves(cfg: RingConfiguration, intents: dict[int, Action]) -> RingConfiguration:
    """Apply every robot's global-frame action at once; crossing the removed
    edge is a no-op. ``intents`` maps label to action and must name exactly
    the configuration's robots.

    The robots that do not stay are moved by ``move_robots``.
    """
    n = cfg.n
    # n names that include every label 1..n are exactly those labels.
    if len(intents) != n:
        raise _misnamed(intents, n)
    stay = Action.STAY  # a local: enum member lookups are slow
    movers = []
    try:
        for pos, slot in enumerate(cfg.slots):
            for label in slot:
                action = intents[label]
                if action is not stay:
                    movers.append((label, pos, action))
    except KeyError:
        raise _misnamed(intents, n) from None
    return move_robots(cfg, movers)


def move_robots(cfg: RingConfiguration, movers) -> RingConfiguration:
    """Apply the ``(label, node, global action)`` of every robot that does
    not stay, at once; crossing the removed edge is a no-op. Every other
    robot stays. The one place a slot's contents change.

    Only the slots a robot leaves or enters are rebuilt; every other slot
    is reused, and a round in which nobody moves returns ``cfg`` itself.
    """
    n, cut = cfg.n, cfg.missing_edge
    slots = None
    touched = []
    for label, old, action in movers:
        # A clockwise step from ``old`` crosses edge ``old``, an
        # anticlockwise one edge ``old - 1`` (``crossing_edge``).
        if cut is not None and (old if action > 0 else (old - 1) % n) == cut:
            continue
        new = (old + action) % n
        if slots is None:
            slots = list(cfg.slots)
        # A slot turns into a list the first time a robot leaves or enters it.
        if type(slots[old]) is tuple:
            slots[old] = list(slots[old])
            touched.append(old)
        slots[old].remove(label)
        if type(slots[new]) is tuple:
            slots[new] = list(slots[new])
            touched.append(new)
        slots[new].append(label)
    if slots is None:
        return cfg
    for pos in touched:
        slots[pos] = tuple(sorted(slots[pos]))
    return RingConfiguration(n, tuple(slots), cut)


def moved_counts(cfg: RingConfiguration, intents: dict[int, Action]) -> tuple[int, ...]:
    """Each node's robot count after ``resolve_moves(cfg, intents)``, with
    its checks, without building the ring: for a caller that reads only
    the successor's census."""
    n, slots, cut = cfg
    if len(intents) != n:
        raise _misnamed(intents, n)
    counts = list(map(len, slots))
    try:
        for pos, slot in enumerate(slots):
            for label in slot:
                action = intents[label]
                # STAY is 0. Crossing the removed edge is a no-op, as in
                # ``move_robots``.
                if action and (cut is None or (pos if action > 0 else (pos - 1) % n) != cut):
                    counts[pos] -= 1
                    counts[(pos + action) % n] += 1
    except KeyError:
        raise _misnamed(intents, n) from None
    return tuple(counts)


def node_moves(cfg: RingConfiguration, intents: dict[int, Action]) -> tuple[tuple[int, ...], ...]:
    """Each node's ``(stay, clockwise, anticlockwise)`` robot counts under
    ``intents``, which must name exactly the configuration's robots: the
    label-free summary of a round's intents. A node's count of an action is
    at index ``action``, as ANTICLOCKWISE is -1. The removed edge is not
    read: a robot counts under the move it intends."""
    n, slots, _ = cfg
    if len(intents) != n:
        raise _misnamed(intents, n)
    moves = []
    try:
        for slot in slots:
            tally = [0, 0, 0]
            for label in slot:
                tally[intents[label]] += 1
            moves.append(tuple(tally))
    except KeyError:
        raise _misnamed(intents, n) from None
    return tuple(moves)


def moved_counts_table(cfg: RingConfiguration) -> list[tuple[int, ...]]:
    """``moved_counts(cfg, intents)`` for every intent vector of labels 1..n,
    in product order over labels 1..n of (STAY, CLOCKWISE, ANTICLOCKWISE),
    the order of ``verifier._intent_vectors``; a ring whose labels are not
    1..n is refused with ``moved_counts``' message.

    Node counts are packed into an int, ``width`` bits a node, so a vector's
    counts are the start's plus one delta per robot, and a move across the
    removed edge (``crossing_edge``) adds nothing. Each distinct sum is
    decoded once per ring size (``_decoded``)."""
    n, slots, cut = cfg
    labels = cfg.labels()
    if labels != tuple(range(1, n + 1)):
        raise _misnamed(labels, n)
    width = n.bit_length()
    sums = [sum(len(slot) << width * pos for pos, slot in enumerate(slots))]
    for pos in map(cfg.positions().__getitem__, labels):
        leave = 1 << width * pos
        cw = 0 if cut == pos else (1 << width * ((pos + 1) % n)) - leave
        acw = 0 if cut == (pos - 1) % n else (1 << width * ((pos - 1) % n)) - leave
        sums = [total + delta for total in sums for delta in (0, cw, acw)]
    decoded, mask = _decoded(n), (1 << width) - 1
    for total in set(sums).difference(decoded):
        decoded[total] = tuple([total >> width * pos & mask for pos in range(n)])
    return list(map(decoded.__getitem__, sums))


# The node counts of each packed sum ``moved_counts_table`` decoded at n, for
# the last few ring sizes, as every per-size cache.
_decoded = functools.lru_cache(maxsize=8)(lambda n: {})


def _misnamed(intents, n: int) -> ValueError:
    return ValueError(f"intents name robots {sorted(intents)}, not exactly 1..{n}")


class Metrics(NamedTuple):
    """Occupancy census of one configuration. A tuple, as every look and
    every round builds one."""

    holes: int
    singletons: int
    multinodes: int
    dispersed: bool


def classify(cfg: RingConfiguration) -> Metrics:
    return _census(cfg.multiplicities())


def _census(mult: tuple[int, ...]) -> Metrics:
    n = len(mult)
    holes = mult.count(0)
    singles = mult.count(1)
    return Metrics(holes, singles, n - holes - singles, singles == n)


class Chain(NamedTuple):
    """A multinode, a run of singleton nodes, then a hole, in one direction.

    ``direction`` is the global direction walked from the multinode to the
    hole. ``good`` means no edge along the walk is the removed one. The
    chain's length is its singleton count. A tuple, as every chain index
    builds one per chain.
    """

    direction: Action
    multinode: int
    singletons: tuple[int, ...]
    hole: int
    good: bool

    @property
    def length(self) -> int:
        return len(self.singletons)


def find_chains(cfg: RingConfiguration) -> tuple[Chain, ...]:
    """Every chain of the configuration, both directions, with good flags.

    A multinode anchors at most one chain per direction; the walk stops at
    the first node that is not a singleton. It yields a chain only when
    that node is a hole.
    """
    return _chains(cfg.multiplicities(), cfg.missing_edge)


# The two walk directions, with their clockwise position steps.
_WALKS = ((Action.CLOCKWISE, 1), (Action.ANTICLOCKWISE, -1))


def _chains(mult: tuple[int, ...], cut: int | None) -> tuple[Chain, ...]:
    n = len(mult)
    chains = []
    for anchor in range(n):
        if mult[anchor] < 2:
            continue
        for direction, delta in _WALKS:
            singles = []
            pos = (anchor + delta) % n
            while mult[pos] == 1:
                singles.append(pos)
                pos = (pos + delta) % n
            if mult[pos] == 0:
                # The walk crossed the len(singles) + 1 edges anchor,
                # anchor+1, ... clockwise, or anchor-1, anchor-2, ...
                # anticlockwise (``crossing_edge``); ``cut`` is edge number
                # ``index`` of that sequence.
                if cut is None:
                    good = True
                else:
                    index = (cut - anchor) % n if delta == 1 else (anchor - 1 - cut) % n
                    good = index > len(singles)
                chains.append(Chain(direction, anchor, tuple(singles), pos, good))
    return tuple(chains)


class ChainView(NamedTuple):
    """A chain as seen by a robot standing on it, in the robot's own frame.

    ``direction_own`` points from the multinode toward the hole, so it is
    also the robot's step toward the hole. ``other`` is the opposite
    direction chain anchored at the same multinode, when one exists; it is
    populated for singleton-node robots, which consult their chain's
    multinode. A tuple, as every look builds one per chain it shows.
    """

    direction_own: Action
    length: int
    good: bool
    other: "ChainView | None" = None

    @property
    def toward_multinode(self) -> Action:
        return self.direction_own.inverse()


class _BuiltOnRead:
    """A chain index attribute of a look, ``by_anchor`` or ``by_singleton``.
    The first read of either builds both, with the view cache, as plain
    attributes of the look, which hide this descriptor from then on. A
    descriptor, not ``__getattr__``: that would slow every attribute read
    of a look."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, look, owner=None):
        if look is None:
            return self
        look._build_index()
        return getattr(look, self.name)


class ChainAnalysis:
    """The census and chain index of a ring's node counts and removed edge,
    shared by every robot's snapshot. It holds no label, so one look serves
    every ring with the same counts and edge: ``Snapshot`` and
    ``Policy.actors`` take the seen ring's slots beside it.

    The index, ``by_anchor``, ``by_singleton`` and the chain views, is built
    the first time a rule reads it: a zero-visibility table reads only its
    own node and never pays for ``find_chains``.
    """

    by_anchor: dict[int, list[Chain]] = _BuiltOnRead()
    by_singleton: dict[int, Chain] = _BuiltOnRead()

    def __init__(self, cfg: RingConfiguration):
        self.n = cfg.n
        self.missing_edge = cfg.missing_edge
        self.mult = cfg.multiplicities()
        self.metrics = _census(self.mult)

    def _build_index(self) -> None:
        by_anchor, by_singleton = {}, {}
        for chain in _chains(self.mult, self.missing_edge):
            by_anchor.setdefault(chain.multinode, []).append(chain)
            for pos in chain.singletons:
                # A singleton node belongs to at most one chain overall.
                by_singleton[pos] = chain
        self.by_anchor, self.by_singleton = by_anchor, by_singleton
        # Chain views are asked for only after a chain was read.
        self._views: dict[tuple, ChainView] = {}

    def chain_view(self, chain: Chain, sign: int, with_other: bool) -> ChainView:
        """``chain`` in the frame of a robot whose hand has ``sign``, with the
        other chain of its multinode as ``other`` when asked. Views are
        frozen, so every robot that asks for the same one shares it."""
        key = (chain.multinode, chain.direction, sign, with_other)
        view = self._views.get(key)
        if view is None:
            other = None
            if with_other:
                for sib in self.by_anchor[chain.multinode]:
                    if sib is not chain:
                        other = self.chain_view(sib, sign, False)
            direction = chain.direction if sign > 0 else _MIRRORED[chain.direction]
            view = ChainView(direction, chain.length, chain.good, other)
            self._views[key] = view
        return view


class Snapshot:
    """Full visibility for one robot, anonymised and in its own frame.

    Decision rules receive only this object, never absolute positions, so
    node anonymity and (for orientation-free rules) reflection symmetry
    are enforced at the interface. ``slots`` are the seen ring's, whose
    node counts and removed edge ``analysis`` describes.
    """

    __slots__ = ("_analysis", "_pos", "_sign", "n", "own_labels", "own_count",
                 "least_label", "is_least", "has_multinode")

    def __init__(self, analysis: ChainAnalysis, slots, node: int, robot: RobotState):
        self._analysis = analysis
        self._pos = node
        self._sign = robot.orientation.sign
        self.n = analysis.n
        self.own_labels = slots[node]
        self.own_count = len(self.own_labels)
        self.least_label = self.own_labels[0]
        self.is_least = robot.label == self.least_label
        self.has_multinode = analysis.metrics.multinodes > 0

    def own_chain(self) -> ChainView | None:
        """The unique chain through this singleton node, if any."""
        chain = self._analysis.by_singleton.get(self._pos)
        if chain is None:
            return None
        return self._analysis.chain_view(chain, self._sign, True)

    def anchored(self) -> tuple[ChainView, ...]:
        """Chains anchored at this multinode, at most one per direction.

        They are listed in the robot's own frame, own clockwise first, so
        the order cannot reveal the robot's hand.
        """
        chains = self._analysis.by_anchor.get(self._pos, ())
        views = tuple(self._analysis.chain_view(c, self._sign, False) for c in chains)
        # find_chains lists each multinode's chains global clockwise first.
        return views if self._sign > 0 else views[::-1]

    def adjacent_to_two_holes(self) -> bool:
        mult = self._analysis.mult
        return mult[(self._pos + 1) % self.n] == 0 and mult[(self._pos - 1) % self.n] == 0


def rotate(cfg: RingConfiguration, shift: int) -> RingConfiguration:
    """Relabel positions so the node at i moves to (i + shift) mod n."""
    n = cfg.n
    shift %= n
    slots = [()] * n
    for old in range(n):
        slots[(old + shift) % n] = cfg.slots[old]
    edge = None if cfg.missing_edge is None else (cfg.missing_edge + shift) % n
    return RingConfiguration(n, tuple(slots), edge)


def reflect(cfg: RingConfiguration, pivot: int = 0) -> RingConfiguration:
    """Mirror the ring about ``pivot``, swapping the two directions."""
    n = cfg.n
    slots = [()] * n
    for old in range(n):
        slots[(2 * pivot - old) % n] = cfg.slots[old]
    edge = None
    if cfg.missing_edge is not None:
        edge = (2 * pivot - cfg.missing_edge - 1) % n
    return RingConfiguration(n, tuple(slots), edge)


def canonical_rotation(cfg: RingConfiguration) -> RingConfiguration:
    """The lexicographically least rotation, by slots and then removed edge
    (none first); labels stay with their nodes. Only the winner is built."""
    n, slots, edge = cfg.n, cfg.slots, cfg.missing_edge
    if edge is None:
        return RingConfiguration(n, min([slots[s:] + slots[:s] for s in range(n)]))
    # Rotating node s to position 0 takes the removed edge e to e - s.
    best, best_edge = min([(slots[s:] + slots[:s], (edge - s) % n) for s in range(n)])
    return RingConfiguration(n, best, best_edge)
