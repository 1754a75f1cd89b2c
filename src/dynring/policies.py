"""Decision rules that drive robots toward one-robot-per-node.

Every rule is memoryless across robots and anonymous: a robot decides
from its own snapshot (own frame, no absolute positions) plus its own
constant-size memory. The scheduler translates the returned own-frame
action to the global frame, so rules written here are automatically
achiral unless they require a shared sense of clockwise up front.

Rules follow a common shape: only robots involved with a chain act, and
on a multinode only the least-labelled robot may leave. The differences
are in which chain operates when several are available. A rule states
which robots may act on the ring it sees in ``Policy.actors``, and only
those robots decide; every other robot stays and keeps its hand and
memory. The base lists every robot; the chain rules share
``ChainRule.actors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ring import (
    Action,
    ChainAnalysis,
    Metrics,
    Mode,
    Orientation,
    RingConfiguration,
    RobotState,
    ScenarioError,
    Snapshot,
    classify,  # unused here; perfbench/tracing.py wraps policies.classify by name
)

# Worst-case round count of the 4-node orientation-free rule over every
# start configuration and adversary branch. Pinned from exhaustive search;
# the acceptance suite re-derives it and compares.
EVEN4_WORST_ROUNDS = 6

PREPROCESS_DONE = ("chain",)

# Module constants for the decide functions: enum member lookups are slow.
_STAY, _CW = Action.STAY, Action.CLOCKWISE


def vp_chain_decide(snap: Snapshot) -> Action:
    """Shift the clockwise chains; needs a shared clockwise, ignores edges."""
    if not snap.has_multinode:
        return _STAY
    if snap.own_count == 1:
        chain = snap.own_chain()
        if chain is not None and chain.direction_own is _CW:
            return _CW
        return _STAY
    if not snap.is_least:
        return _STAY
    for chain in snap.anchored():
        if chain.direction_own is _CW:
            return _CW
    return _STAY


def vp_one_interval_decide(snap: Snapshot) -> Action:
    """Shift one good chain per multinode, preferring the clockwise one."""
    if not snap.has_multinode:
        return _STAY
    if snap.own_count == 1:
        chain = snap.own_chain()
        if chain is None or not chain.good:
            return _STAY
        other = chain.other
        if other is not None and other.good and other.direction_own is _CW:
            return _STAY
        return chain.direction_own
    if not snap.is_least:
        return _STAY
    good = [c for c in snap.anchored() if c.good]
    if len(good) == 2:
        return _CW
    if len(good) == 1:
        return good[0].direction_own
    return _STAY


def achiral_odd_decide(snap: Snapshot) -> Action:
    """Shift the shorter good chain; length ties break by own clockwise.

    On odd rings a round can never stall: either some hole is filled or
    some tie-broken move turns a singleton node into a new multinode.
    """
    if not snap.has_multinode:
        return _STAY
    if snap.own_count == 1:
        chain = snap.own_chain()
        if chain is None or not chain.good:
            return _STAY
        other = chain.other
        if other is not None and other.good and other.length <= chain.length:
            return _STAY
        return chain.direction_own
    if not snap.is_least:
        return _STAY
    good = [c for c in snap.anchored() if c.good]
    if len(good) == 2:
        if good[0].length == good[1].length:
            return _CW
        return min(good, key=lambda c: c.length).direction_own
    if len(good) == 1:
        return good[0].direction_own
    return _STAY


def even4_main_decide(snap: Snapshot) -> Action:
    """Orientation-free rule for the 4-node ring outside the gathered state.

    Length ties make the chain singletons fall back onto the multinode,
    which brings all four robots together; the gathered state is then
    resolved by the preprocessing step plus the good-chain rule.
    """
    if not snap.has_multinode:
        return _STAY
    if snap.own_count == 1:
        chain = snap.own_chain()
        if chain is None or not chain.good:
            return _STAY
        other = chain.other
        if other is not None and other.good:
            if other.length < chain.length:
                return _STAY
            if other.length == chain.length:
                return chain.toward_multinode
        return chain.direction_own
    if not snap.is_least:
        return _STAY
    good = [c for c in snap.anchored() if c.good]
    if len(good) == 2:
        if good[0].length != good[1].length:
            return min(good, key=lambda c: c.length).direction_own
        if snap.adjacent_to_two_holes():
            return _CW
        return _STAY
    if len(good) == 1:
        return good[0].direction_own
    return _STAY


# The per-round guarantees. Each takes the census ``m1`` of the ring the
# robots saw (after dynamism), the census ``m2`` after their moves resolved
# and the ``holes_filled_count`` between the two, and returns None or what
# broke; a violation is named after its check, with dashes for underscores.


def multinode_drop_bounded(m1: Metrics, m2: Metrics, filled: int) -> str | None:
    """Checked on every round of every rule: a multinode can vanish only by
    filling a hole."""
    if m1.multinodes - m2.multinodes > filled:
        return f"multinodes fell {m1.multinodes}->{m2.multinodes} but only {filled} holes filled"
    return None


def holes_strictly_decrease(m1: Metrics, m2: Metrics, filled: int) -> str | None:
    if m1.holes and m2.holes >= m1.holes:
        return f"holes {m1.holes}->{m2.holes}"
    return None


def holes_decrease_or_multinodes_increase(m1: Metrics, m2: Metrics, filled: int) -> str | None:
    if m1.holes and not (m2.holes < m1.holes or
                         (m2.holes == m1.holes and m2.multinodes > m1.multinodes)):
        return f"holes {m1.holes}->{m2.holes}, multinodes {m1.multinodes}->{m2.multinodes}"
    return None


# The proven state graph of the 4-node rule numbers the non-dispersed shapes
# 4,0,0,0 / 3,1,0,0 / 2,1,1,0 / 2,2,0,0 as states 1 to 4. A census tells
# them apart by its (holes, singletons, multinodes).
FOUR_NODE_STATES = {(3, 0, 1): 1, (2, 1, 1): 2, (1, 2, 1): 3, (2, 0, 2): 4}


def four_node_state(m: Metrics) -> int | None:
    """The state of a 4-node census; None when dispersed or not 4 nodes."""
    return FOUR_NODE_STATES.get((m.holes, m.singletons, m.multinodes))


def four_node_transitions(m1: Metrics, m2: Metrics, filled: int) -> str | None:
    pre, post = four_node_state(m1), four_node_state(m2)
    allowed = {2: (3, None), 4: (3, None), 3: (1, None)}.get(pre)  # from state 1, any
    if allowed is not None and post not in allowed:
        return f"four-node state {pre} moved to {post}"
    return None


class Policy:
    """Base class: stateless decision rule plus scenario requirements."""

    policy_id: str = ""
    allowed_modes: frozenset = frozenset(Mode)
    requires_chirality: bool = False
    full_visibility: bool = True
    gathered_start: bool = False  # every run must start with all robots on one node
    guarantees: tuple = ()  # checks above, claimed per round by round_guarantees

    def min_visibility(self, n: int) -> int:
        # The least k whose two gap vectors together cover the ring. Such a
        # view still does not rebuild the snapshot a full-visibility rule
        # reads: it lists multinodes own clockwise only (a counterexample
        # is in tests/test_ring.py).
        return math.ceil(n / 2) if self.full_visibility else 0

    def check_scenario(self, n: int, mode: Mode, cfg: RingConfiguration, robots) -> None:
        if mode not in self.allowed_modes:
            allowed = ", ".join(sorted(m.value for m in self.allowed_modes))
            raise ScenarioError(
                f"policy {self.policy_id} supports modes {{{allowed}}}, not {mode.value}")
        if self.requires_chirality and len({r.orientation for r in robots}) > 1:
            raise ScenarioError(
                f"policy {self.policy_id} needs all robots to share one orientation")

    def actors(self, analysis: ChainAnalysis, slots, robots) -> list[tuple[int, int]]:
        """The ``(node, label)`` of every robot that decides on the ring with
        ``slots`` and the look ``analysis``; ``robots`` are in label order.
        A robot left out stays and keeps its hand and memory, so a rule may
        leave out only a robot whose ``decide`` would return ``STAY`` with
        the memory it holds and whose ``after_move`` would then keep both.
        The base lists every robot."""
        return [(node, label) for node, slot in enumerate(slots) for label in slot]

    def decide(self, snap: Snapshot, robot: RobotState) -> tuple[Action, object]:
        raise NotImplementedError

    def after_move(self, robot: RobotState, memory, mates) -> tuple[Orientation, object]:
        """The hand and memory to settle with, from the ``memory`` decided with
        and the sorted labels ``mates`` on the node the round ended on.

        ``step`` calls it only for the robots that decided, and only when a
        rule overrides it; this base keeps the hand and the decided memory,
        so a rule that keeps it never has its landed labels gathered."""
        return robot.orientation, memory

    def round_guarantees(self, analysis: ChainAnalysis, robots) -> tuple:
        """The checks claimed for the round whose robots, in label order,
        see the ring ``analysis`` describes. The base claims ``guarantees``."""
        return self.guarantees

    def proven_bound(self, n: int) -> int | None:
        return None


class ChainRule(Policy):
    """A rule in which only robots involved with a chain act: on a multinode
    that anchors a chain its least robot, and on a singleton node of a
    chain its one robot. Everyone else stays and keeps its memory."""

    def actors(self, analysis, slots, robots):
        # A chain's singleton nodes are never a multinode, so no node repeats.
        return [(node, slots[node][0])
                for node in (*analysis.by_anchor, *analysis.by_singleton)]


class VpChainPolicy(ChainRule):
    """Clockwise-chain rule for rings without edge removal."""

    policy_id = "vp-chain"
    allowed_modes = frozenset({Mode.NONE, Mode.VP})
    requires_chirality = True
    guarantees = (holes_strictly_decrease,)

    def decide(self, snap, robot):
        return vp_chain_decide(snap), robot.memory

    def proven_bound(self, n):
        return n - 1


class VpOneIntervalPolicy(ChainRule):
    """Good-chain rule tolerating one removed edge per round."""

    policy_id = "vp-1i"
    requires_chirality = True
    guarantees = (holes_strictly_decrease,)

    def decide(self, snap, robot):
        return vp_one_interval_decide(snap), robot.memory

    def proven_bound(self, n):
        return n - 1


class PreprocessPolicy(ChainRule):
    """A rule with no shared clockwise that agrees on one from a gathered
    start, n >= 3, and then follows good chains.

    While no robot has agreed, a pile holding every robot takes one
    preprocessing round: all robots step own-clockwise and remember the
    least label x of the pile; after the move, exactly the robots whose
    node does not hold x flip. Both surviving groups moved in x's
    global direction or opposite to it, so all orientations end equal to
    x's. Away from such a pile the subclass's ``before_agreement(snap)``
    rule acts and keeps its ``guarantees``.

    On a 2-ring both edges join the same two nodes, so when no edge is
    removed every move lands on the other node whichever hand made it, and
    mixed hands survive the round. No rule can prevent that: the robots'
    snapshots and views are then the same whatever robot 2's hand is (the
    acceptance battery certifies this, criterion 3). The chain rule that
    follows still disperses n=2 within its budget (criterion 4).
    """

    def check_scenario(self, n, mode, cfg, robots):
        # All robots have agreed on a hand or none has, and a gathered start
        # if needed (a dispersed one plays no round); rounds keep both.
        super().check_scenario(n, mode, cfg, robots)
        memories = {r.memory for r in robots}
        if memories not in ({None}, {PREPROCESS_DONE}):
            raise ScenarioError(f"robots disagree on whether they agreed on a hand: {memories}")
        if self.gathered_start and memories == {None} and 1 < max(cfg.multiplicities()) < n:
            raise ScenarioError(
                f"policy {self.policy_id} must start with all robots on one node")

    def decide(self, snap, robot):
        if robot.memory is not None:
            return vp_one_interval_decide(snap), robot.memory
        if snap.own_count == snap.n:
            return _CW, ("moved", snap.least_label)
        return self.before_agreement(snap), None

    def actors(self, analysis, slots, robots):
        # Before agreement (the robots' memories agree) a whole pile steps.
        if robots[0].memory is None and analysis.metrics.holes == analysis.n - 1:
            return Policy.actors(self, analysis, slots, robots)
        return super().actors(analysis, slots, robots)

    def after_move(self, robot, memory, mates):
        if memory in (None, PREPROCESS_DONE):
            return robot.orientation, memory
        _, anchor = memory
        hand = robot.orientation if anchor in mates else robot.orientation.flipped()
        return hand, PREPROCESS_DONE

    def round_guarantees(self, analysis, robots):
        # After agreement the good-chain rule fills a hole every round; the
        # preprocessing round claims nothing.
        if robots[0].memory is not None:
            return (holes_strictly_decrease,)
        return () if analysis.metrics.holes == analysis.n - 1 else self.guarantees


class NoChiralityOneIntervalPolicy(PreprocessPolicy):
    """Gathered start, no shared clockwise: preprocess then good chains."""

    policy_id = "no-chir-1i"
    gathered_start = True

    def proven_bound(self, n):
        return n


class AchiralOddPolicy(ChainRule):
    """Shorter-good-chain rule for odd rings, no shared clockwise."""

    policy_id = "achiral-odd"
    guarantees = (holes_decrease_or_multinodes_increase,)

    def check_scenario(self, n, mode, cfg, robots):
        super().check_scenario(n, mode, cfg, robots)
        if n % 2 == 0:
            raise ScenarioError(f"policy {self.policy_id} requires an odd ring, got n={n}")

    def decide(self, snap, robot):
        return achiral_odd_decide(snap), robot.memory

    def proven_bound(self, n):
        return math.ceil(n / 2) + 2 * n - 2


class Even4Policy(PreprocessPolicy):
    """Orientation-free rule for the 4-node ring.

    Runs the main rule until every robot shares a node, resolves that
    gathered state with the preprocessing step, then follows good chains
    with the chirality just agreed on.
    """

    policy_id = "even4"
    guarantees = (four_node_transitions,)
    before_agreement = staticmethod(even4_main_decide)

    def check_scenario(self, n, mode, cfg, robots):
        super().check_scenario(n, mode, cfg, robots)
        if n != 4:
            raise ScenarioError(f"policy {self.policy_id} is specific to n=4, got n={n}")

    def proven_bound(self, n):
        return EVEN4_WORST_ROUNDS


# Own-node census classes a zero-visibility robot can tell apart: alone,
# in a pair, or in a pile of three or more; within a node it knows only
# whether it holds the least label, the second least, or neither.
NO_VISIBILITY_DOMAIN = (
    (1, "least"),
    (2, "least"),
    (2, "second"),
    (3, "least"),
    (3, "second"),
    (3, "other"),
)

_ACTION_CODE = {"s": Action.STAY, "c": Action.CLOCKWISE, "a": Action.ANTICLOCKWISE}

# By a node's census (its robot count, capped at 3): the indices into
# NO_VISIBILITY_DOMAIN of the classes of its least, second and other robots.
_NODE_CLASSES = {
    census: tuple(i for i, (c, _) in enumerate(NO_VISIBILITY_DOMAIN) if c == census)
    for census in (1, 2, 3)
}


class NoVisibilityPolicy(Policy):
    """Any deterministic zero-visibility rule, given as a 6-letter table.

    The table maps the census classes above, in order, to s (stay),
    c (own clockwise) or a (own anticlockwise). With no visibility a
    decision can depend only on the robot's own node, so the table form
    is fully general for memoryless rules.
    """

    full_visibility = False

    def __init__(self, table: str):
        if len(table) != len(NO_VISIBILITY_DOMAIN) or any(ch not in _ACTION_CODE for ch in table):
            raise ValueError(f"table must be 6 letters over s/c/a, got {table!r}")
        self.table = table
        self.policy_id = f"k0:{table}"

    def decide(self, snap, robot):
        rank = snap.own_labels.index(robot.label)
        classes = _NODE_CLASSES[min(snap.own_count, 3)]
        return _ACTION_CODE[self.table[classes[min(rank, 2)]]], robot.memory

    def letters(self, classes: tuple[int, ...]) -> str:
        """The table's letters for ``classes``, the ``census_classes`` of a
        ring. Every robot decides the letter of its own class, so with the
        labels and hands on the ring they fix every decision."""
        table = self.table
        return "".join([table[i] for i in classes])


def census_classes(cfg: RingConfiguration) -> tuple[int, ...]:
    """The indices into NO_VISIBILITY_DOMAIN of the census classes present
    on ``cfg``, in domain order."""
    censuses = {min(size, 3) for size in cfg.multiplicities()}
    return tuple([i for census, classes in _NODE_CLASSES.items()
                  if census in censuses for i in classes])


def all_no_visibility_policies():
    """Every zero-visibility table, 3^6 of them."""
    letters = "sca"
    n = len(NO_VISIBILITY_DOMAIN)
    for value in range(3 ** n):
        chars = []
        for _ in range(n):
            chars.append(letters[value % 3])
            value //= 3
        yield NoVisibilityPolicy("".join(chars))


POLICIES = {
    policy.policy_id: policy
    for policy in (
        VpChainPolicy(),
        VpOneIntervalPolicy(),
        NoChiralityOneIntervalPolicy(),
        AchiralOddPolicy(),
        Even4Policy(),
    )
}


def get_policy(policy_id: str) -> Policy:
    if policy_id.startswith("k0:"):
        try:
            return NoVisibilityPolicy(policy_id[3:])
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
    try:
        return POLICIES[policy_id]
    except KeyError:
        known = ", ".join(sorted(POLICIES))
        raise ScenarioError(f"unknown policy {policy_id!r} (known: {known}, k0:<table>)") from None


@dataclass(frozen=True)
class LemmaViolation:
    """One broken per-round guarantee, with enough context to replay it."""

    guarantee: str
    detail: str


def holes_filled_count(cfg1: RingConfiguration, cfg2: RingConfiguration) -> int:
    """Nodes empty after dynamism but occupied after the move."""
    return sum(1 for before, after in zip(cfg1.slots, cfg2.slots) if after and not before)


def check_round_lemmas(guarantees, m1: Metrics, m2: Metrics, filled: int) -> list[LemmaViolation]:
    """``multinode_drop_bounded`` and then each check in ``guarantees``, on
    the censuses and the filled-hole count they take."""
    out = []
    for check in (multinode_drop_bounded, *guarantees):
        detail = check(m1, m2, filled)
        if detail is not None:
            out.append(LemmaViolation(check.__name__.replace("_", "-"), detail))
    return out
