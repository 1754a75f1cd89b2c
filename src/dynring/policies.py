"""Decision rules that drive robots toward one-robot-per-node.

Every rule is memoryless across robots and anonymous: a robot decides
from its own snapshot (own frame, no absolute positions) plus its own
constant-size memory. The scheduler translates the returned own-frame
action to the global frame, so rules written here are automatically
achiral unless they require a shared sense of clockwise up front.

Rules follow a common shape: only robots involved with a chain act, and
on a multinode only the least-labelled robot may leave. The differences
are in which chain operates when several are available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ring import (
    Action,
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


def vp_chain_decide(snap: Snapshot) -> Action:
    """Shift the clockwise chains; needs a shared clockwise, ignores edges."""
    if not snap.has_multinode:
        return Action.STAY
    if snap.own_count == 1:
        chain = snap.own_chain()
        if chain is not None and chain.direction_own is Action.CLOCKWISE:
            return Action.CLOCKWISE
        return Action.STAY
    if not snap.is_least:
        return Action.STAY
    for chain in snap.anchored():
        if chain.direction_own is Action.CLOCKWISE:
            return Action.CLOCKWISE
    return Action.STAY


def vp_one_interval_decide(snap: Snapshot) -> Action:
    """Shift one good chain per multinode, preferring the clockwise one."""
    if not snap.has_multinode:
        return Action.STAY
    if snap.own_count == 1:
        chain = snap.own_chain()
        if chain is None or not chain.good:
            return Action.STAY
        other = chain.other
        if other is not None and other.good and other.direction_own is Action.CLOCKWISE:
            return Action.STAY
        return chain.toward_hole
    if not snap.is_least:
        return Action.STAY
    good = [c for c in snap.anchored() if c.good]
    if len(good) == 2:
        return Action.CLOCKWISE
    if len(good) == 1:
        return good[0].direction_own
    return Action.STAY


def achiral_odd_decide(snap: Snapshot) -> Action:
    """Shift the shorter good chain; length ties break by own clockwise.

    On odd rings a round can never stall: either some hole is filled or
    some tie-broken move turns a singleton node into a new multinode.
    """
    if not snap.has_multinode:
        return Action.STAY
    if snap.own_count == 1:
        chain = snap.own_chain()
        if chain is None or not chain.good:
            return Action.STAY
        other = chain.other
        if other is not None and other.good and other.length <= chain.length:
            return Action.STAY
        return chain.toward_hole
    if not snap.is_least:
        return Action.STAY
    good = [c for c in snap.anchored() if c.good]
    if len(good) == 2:
        if good[0].length == good[1].length:
            return Action.CLOCKWISE
        return min(good, key=lambda c: c.length).direction_own
    if len(good) == 1:
        return good[0].direction_own
    return Action.STAY


def even4_main_decide(snap: Snapshot) -> Action:
    """Orientation-free rule for the 4-node ring outside the gathered state.

    Length ties make the chain singletons fall back onto the multinode,
    which brings all four robots together; the gathered state is then
    resolved by the preprocessing step plus the good-chain rule.
    """
    if not snap.has_multinode:
        return Action.STAY
    if snap.own_count == 1:
        chain = snap.own_chain()
        if chain is None or not chain.good:
            return Action.STAY
        other = chain.other
        if other is not None and other.good:
            if other.length < chain.length:
                return Action.STAY
            if other.length == chain.length:
                return chain.toward_multinode
        return chain.toward_hole
    if not snap.is_least:
        return Action.STAY
    good = [c for c in snap.anchored() if c.good]
    if len(good) == 2:
        if good[0].length != good[1].length:
            return min(good, key=lambda c: c.length).direction_own
        if snap.adjacent_to_two_holes():
            return Action.CLOCKWISE
        return Action.STAY
    if len(good) == 1:
        return good[0].direction_own
    return Action.STAY


class Policy:
    """Base class: stateless decision rule plus scenario requirements."""

    policy_id: str = ""
    allowed_modes: frozenset = frozenset(Mode)
    requires_chirality: bool = False
    full_visibility: bool = True

    def initial_memory(self):
        return None

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

    def decide(self, snap: Snapshot, robot: RobotState) -> tuple[Action, object]:
        raise NotImplementedError

    def after_move(self, robot: RobotState, snap_post: Snapshot) -> tuple[Orientation, object]:
        return robot.orientation, robot.memory

    def phase_of_round(self, robots, cfg1: RingConfiguration) -> str:
        return "main"

    def round_guarantees(self, phase: str) -> tuple[str, ...]:
        return ()

    def proven_bound(self, n: int) -> int | None:
        return None


class VpChainPolicy(Policy):
    """Clockwise-chain rule for rings without edge removal."""

    policy_id = "vp-chain"
    allowed_modes = frozenset({Mode.NONE, Mode.VP})
    requires_chirality = True

    def decide(self, snap, robot):
        return vp_chain_decide(snap), robot.memory

    def round_guarantees(self, phase):
        return ("holes-strictly-decrease",)

    def proven_bound(self, n):
        return n - 1


class VpOneIntervalPolicy(Policy):
    """Good-chain rule tolerating one removed edge per round."""

    policy_id = "vp-1i"
    requires_chirality = True

    def decide(self, snap, robot):
        return vp_one_interval_decide(snap), robot.memory

    def round_guarantees(self, phase):
        return ("holes-strictly-decrease",)

    def proven_bound(self, n):
        return n - 1


class PreprocessMixin:
    """One gathered-start round that gives every robot one chirality, n >= 3.

    All robots step own-clockwise and remember the least label x of the
    pile; afterwards, exactly the robots separated from x flip their
    orientation. Both surviving groups moved in x's global direction or
    opposite to it, so all orientations end equal to x's.

    On a 2-ring both edges join the same two nodes, so when no edge is
    removed every move lands on the other node whichever hand made it, and
    mixed hands survive the round. No rule can prevent that: the robots'
    snapshots and views are then the same whatever robot 2's hand is (the
    acceptance battery certifies this, criterion 3). The chain rule that
    follows still disperses n=2 within its budget (criterion 4).
    """

    def preprocess_decide(self, snap: Snapshot) -> tuple[Action, object]:
        return Action.CLOCKWISE, ("moved", snap.least_label)

    def preprocess_after_move(self, robot: RobotState, snap_post: Snapshot):
        kind, anchor = robot.memory
        assert kind == "moved"
        orientation = robot.orientation
        if anchor not in snap_post.own_labels:
            orientation = orientation.flipped()
        return orientation, PREPROCESS_DONE


class NoChiralityOneIntervalPolicy(PreprocessMixin, Policy):
    """Gathered start, no shared clockwise: preprocess then good chains."""

    policy_id = "no-chir-1i"

    def decide(self, snap, robot):
        if robot.memory is None:
            if snap.own_count != snap.n:
                raise ScenarioError(
                    f"policy {self.policy_id} must start with all robots on one node")
            return self.preprocess_decide(snap)
        return vp_one_interval_decide(snap), robot.memory

    def after_move(self, robot, snap_post):
        if isinstance(robot.memory, tuple) and robot.memory[0] == "moved":
            return self.preprocess_after_move(robot, snap_post)
        return robot.orientation, robot.memory

    def phase_of_round(self, robots, cfg1):
        memories = {r.memory for r in robots}
        if memories == {None}:
            return "preprocess"
        if memories == {PREPROCESS_DONE}:
            return "chain"
        raise ValueError(f"robots disagree on phase: {memories}")

    def round_guarantees(self, phase):
        if phase == "chain":
            return ("holes-strictly-decrease",)
        return ()

    def proven_bound(self, n):
        return n


class AchiralOddPolicy(Policy):
    """Shorter-good-chain rule for odd rings, no shared clockwise."""

    policy_id = "achiral-odd"

    def check_scenario(self, n, mode, cfg, robots):
        super().check_scenario(n, mode, cfg, robots)
        if n % 2 == 0:
            raise ScenarioError(f"policy {self.policy_id} requires an odd ring, got n={n}")

    def decide(self, snap, robot):
        return achiral_odd_decide(snap), robot.memory

    def round_guarantees(self, phase):
        return ("holes-decrease-or-multinodes-increase",)

    def proven_bound(self, n):
        return math.ceil(n / 2) + 2 * n - 2


class Even4Policy(PreprocessMixin, Policy):
    """Orientation-free rule for the 4-node ring.

    Runs the main rule until every robot shares a node, resolves that
    gathered state with the preprocessing step, then follows good chains
    with the chirality just agreed on.
    """

    policy_id = "even4"

    def check_scenario(self, n, mode, cfg, robots):
        super().check_scenario(n, mode, cfg, robots)
        if n != 4:
            raise ScenarioError(f"policy {self.policy_id} is specific to n=4, got n={n}")

    def decide(self, snap, robot):
        if robot.memory is None:
            if snap.own_count == snap.n:
                return self.preprocess_decide(snap)
            return even4_main_decide(snap), None
        return vp_one_interval_decide(snap), robot.memory

    def after_move(self, robot, snap_post):
        if isinstance(robot.memory, tuple) and robot.memory[0] == "moved":
            return self.preprocess_after_move(robot, snap_post)
        return robot.orientation, robot.memory

    def phase_of_round(self, robots, cfg1):
        memories = {r.memory for r in robots}
        if memories == {None}:
            if all(len(slot) in (0, cfg1.n) for slot in cfg1.slots):
                return "preprocess"
            return "main"
        if memories == {PREPROCESS_DONE}:
            return "chain"
        raise ValueError(f"robots disagree on phase: {memories}")

    def round_guarantees(self, phase):
        if phase == "chain":
            return ("holes-strictly-decrease",)
        if phase == "main":
            return ("four-node-transitions",)
        return ()

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
        census = min(snap.own_count, 3)
        idx = snap.own_labels.index(robot.label)
        rank = "least" if idx == 0 else ("second" if idx == 1 else "other")
        key = (census, rank)
        action = _ACTION_CODE[self.table[NO_VISIBILITY_DOMAIN.index(key)]]
        return action, robot.memory


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
    return sum(
        1
        for pos in range(cfg1.n)
        if not cfg1.slots[pos] and cfg2.slots[pos]
    )


def check_round_lemmas(policy: Policy, phase: str, m1: Metrics, m2: Metrics,
                       filled: int) -> list[LemmaViolation]:
    """Check every per-round guarantee the policy claims for this phase.

    ``m1`` is the census of the configuration the robots saw (after
    dynamism), ``m2`` the census after their moves resolved, and ``filled``
    the ``holes_filled_count`` between the two.
    """
    out = []
    if m1.multinodes - m2.multinodes > filled:
        out.append(LemmaViolation(
            "multinode-drop-bounded",
            f"multinodes fell {m1.multinodes}->{m2.multinodes} but only {filled} holes filled"))
    for guarantee in policy.round_guarantees(phase):
        if guarantee == "holes-strictly-decrease":
            if m1.holes and m2.holes >= m1.holes:
                out.append(LemmaViolation(
                    guarantee, f"holes {m1.holes}->{m2.holes} in phase {phase}"))
        elif guarantee == "holes-decrease-or-multinodes-increase":
            if m1.holes and not (m2.holes < m1.holes or
                                 (m2.holes == m1.holes and m2.multinodes > m1.multinodes)):
                out.append(LemmaViolation(
                    guarantee,
                    f"holes {m1.holes}->{m2.holes}, multinodes {m1.multinodes}->{m2.multinodes}"))
        elif guarantee == "four-node-transitions":
            pre, post = m1.state_label, m2.state_label
            allowed = {2: (3, None), 4: (3, None), 3: (1, None), 1: None, None: None}[pre]
            if allowed is not None and post not in allowed:
                out.append(LemmaViolation(
                    guarantee, f"four-node state {pre} moved to {post}"))
    return out
