"""Round execution: dynamism, look, compute, move, all fully deterministic.

A round starts from an intact ring. The adversary reshapes it (permute
then possibly remove one edge), every robot the rule lets act looks and
decides at once while the rest stay, and all moves resolve
simultaneously; a move across the removed edge leaves the robot where it
is. The removed edge lasts only for the round.

The same ``step`` function serves simulation runs, impossibility runs and
the worst-case search, so there is exactly one implementation of round
semantics; ``play_round`` feeds it one adversary choice, and a run and the
impossibility orbit walk each loop over it.
"""

from __future__ import annotations

import functools
import random
from collections.abc import Callable
from typing import NamedTuple

from .adversaries import Adversary, AdversaryContext, Dynamism
from .policies import LemmaViolation, Policy, check_round_lemmas
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
    check_intact,
    classify,
    convert_frame,
    move_robots,
    resolve_moves,  # unused here; perfbench/tracing.py wraps scheduler.resolve_moves by name
)


class RoundTrace(NamedTuple):
    """Everything that happened in one round, sufficient to replay it. Its
    round number is its place in the run. A tuple, as every round builds
    one."""

    dynamism: Dynamism
    intents: dict[int, Action]
    config_seen: RingConfiguration
    config_after: RingConfiguration
    metrics_after: Metrics
    violations: tuple[LemmaViolation, ...]


class RunResult(NamedTuple):
    """Outcome of a full run: its rounds went to the run's consumer as they
    were played, and only their guarantee violations are kept."""

    outcome: str
    rounds: int
    final_config: RingConfiguration
    violations: tuple[LemmaViolation, ...]

    @property
    def dispersed(self) -> bool:
        return self.outcome == "dispersed"


_STAY = Action.STAY  # a module constant: enum member lookups are slow


@functools.lru_cache(maxsize=8)  # the last few ring sizes: a sweep plays many
def _all_stay(n: int) -> dict[int, Action]:
    """Every label 1..n staying, in label order; callers copy it."""
    return dict.fromkeys(range(1, n + 1), _STAY)


def _decide(policy: Policy, analysis: ChainAnalysis, slots, robots, decisions=None):
    """Each robot's global-frame action, by label in label order; the node
    and the memory of each robot the rule lists in ``Policy.actors``, by
    label; and the ``(label, node, global action)`` of each listed robot
    that does not stay. ``slots`` are the seen ring's, ``analysis`` its
    look; ``robots`` must be in label order; a robot not listed stays.

    ``decisions``, if given, is a decision memo kept beside the look table
    that ``analysis`` came from (see ``step``): a listed robot whose key it
    holds takes the stored answer and ``Policy.decide`` is not called."""
    intents = _all_stay(len(robots)).copy()
    decided = {}
    movers = []
    for node, label in policy.actors(analysis, slots, robots):
        robot = robots[label - 1]
        if decisions is None:
            answer = None
        else:
            # What a snapshot is built from; the hand by its sign, as Enum
            # hashing is slow.
            key = (analysis, node, slots[node], label, robot.orientation.sign, robot.memory)
            answer = decisions.get(key)
        if answer is None:
            answer = policy.decide(Snapshot(analysis, slots, node, robot), robot)
            if decisions is not None:
                decisions[key] = answer
        own_action, memory = answer
        decided[label] = node, memory
        if own_action is not _STAY:
            intents[label] = action = convert_frame(own_action, robot.orientation)
            movers.append((label, node, action))
    return intents, decided, movers


def predict_intents(policy: Policy, cfg: RingConfiguration, robots) -> dict[int, Action]:
    """Global-frame actions the robots would take on this configuration."""
    return _decide(policy, ChainAnalysis(cfg), cfg.slots, robots)[0]


def _look(looks: dict, cfg: RingConfiguration) -> ChainAnalysis:
    """The look at ``cfg`` from the look table ``looks``, which maps a
    ring's node counts and removed edge to the look first built for them."""
    key = cfg.multiplicities(), cfg.missing_edge
    look = looks.get(key)
    if look is None:
        look = looks[key] = ChainAnalysis(cfg)
    return look


def step(
    policy: Policy,
    cfg: RingConfiguration,
    robots: tuple[RobotState, ...],
    dynamism: Dynamism,
    looks: dict | None = None,
    decisions: dict | None = None,
) -> tuple[RingConfiguration, tuple[RobotState, ...], RoundTrace]:
    """Run one round and return the intact next configuration.

    A robot looks at the ring once, before it moves, and only the robots
    ``Policy.actors`` lists decide; every other robot stays and is carried
    over as it is. A robot that decided settles with the hand and memory
    ``Policy.after_move`` gives it from the labels on the node it ended the
    round on. ``step`` trusts a start that ``validate_scenario`` accepts, as
    rounds keep it: ``robots`` in label order on an intact ``cfg`` the rule
    admits. It trusts ``dynamism`` to be valid (``Dynamism.check``).

    ``looks``, if given, is a look table that the caller keeps over rounds
    of this one rule (see ``_look``); without it every round builds its
    own look. A look holds no label, so a stored one serves as a fresh one.
    ``decisions``, if given, is a decision memo that goes with ``looks``:
    it maps a listed robot's stored look, node, labels on that node, label,
    hand and memory to what ``Policy.decide`` answered for them (see
    ``_decide``). Its keys hold the stored looks, so it is kept and dropped
    with the look table.
    """
    n = cfg.n
    cfg_seen = dynamism.apply(cfg)
    analysis = ChainAnalysis(cfg_seen) if looks is None else _look(looks, cfg_seen)
    guarantees = policy.round_guarantees(analysis, robots)
    intents, decided, movers = _decide(policy, analysis, cfg_seen.slots, robots, decisions)

    cfg_after = move_robots(cfg_seen, movers)
    metrics_after = classify(cfg_after)
    # Only a rule with an after_move of its own reads the landed labels.
    landing = type(policy).after_move is not Policy.after_move
    landed = cfg_after.slots
    settled = list(robots)
    for label, (node, memory) in decided.items():
        robot = robots[label - 1]
        hand = robot.orientation
        if landing:
            # A robot is on its node unless it moved one step.
            mates = landed[(node + intents[label]) % n]
            if label not in mates:
                mates = landed[node]
            hand, memory = policy.after_move(robot, memory, mates)
        # A robot whose hand and memory are the ones it had is carried over.
        if hand is not robot.orientation or memory is not robot.memory:
            settled[label - 1] = RobotState(label, hand, memory)

    # The holes filled (``holes_filled_count``): only a mover's destination
    # can turn from empty to occupied, and it counts once.
    seen = analysis.mult
    filled = set()
    for _, node, action in movers:
        new = (node + action) % n
        if not seen[new] and landed[new]:
            filled.add(new)

    trace = RoundTrace(
        dynamism=dynamism,
        intents=intents,
        config_seen=cfg_seen,
        config_after=cfg_after,
        metrics_after=metrics_after,
        violations=tuple(check_round_lemmas(guarantees, analysis.metrics, metrics_after,
                                            len(filled))),
    )
    next_cfg = RingConfiguration(n, landed, None)
    return next_cfg, tuple(settled), trace


def initial_robots(cfg: RingConfiguration, orientations=None):
    """Robots for a fresh run, in label order; ``orientations`` maps label to
    Orientation."""
    return tuple(
        RobotState(label, Orientation.ALIGNED if orientations is None else orientations[label])
        for label in cfg.labels())


def validate_scenario(
    policy: Policy,
    adversary: Adversary | None,
    cfg: RingConfiguration,
    robots,
    mode: Mode,
) -> None:
    n = cfg.n
    check_intact(cfg)
    # A round reads robot ``label`` at index ``label - 1``.
    if [robot.label for robot in robots] != list(range(1, n + 1)):
        raise ScenarioError(f"robots must carry exactly the labels 1..{n}, in label order")
    policy.check_scenario(n, mode, cfg, robots)
    if adversary is not None:
        adversary.check_scenario(n, mode)
        if adversary.adaptive and policy.full_visibility:
            raise ScenarioError(
                f"adversary {adversary.adversary_id} counters zero-visibility rules; "
                f"policy {policy.policy_id} sees the whole ring")
        if not classify(cfg).dispersed:  # a dispersed start plays no round
            adversary.check_start(cfg)


def play_round(policy: Policy, adversary: Adversary, cfg: RingConfiguration, mode: Mode,
               robots, rng: random.Random | None = None):
    """One round of a run from ``cfg``, which must not be dispersed: the
    adversary's choice, then ``step``. An adaptive adversary reads the
    robots' predicted intents first, and the round must play exactly them."""
    predicted = predict_intents(policy, cfg, robots) if adversary.adaptive else None
    dynamism = adversary.choose(AdversaryContext(cfg, mode, rng, predicted))
    dynamism.check(cfg.n, mode)
    cfg, robots, trace = step(policy, cfg, robots, dynamism)
    intents = trace.intents
    if predicted is not None and predicted != intents:
        wrong = sorted(label for label in intents if predicted.get(label) is not intents[label])
        raise RuntimeError(f"predicted intents differ from the decisions of robots {wrong}")
    return cfg, robots, trace


def run_simulation(
    policy: Policy,
    adversary: Adversary,
    cfg: RingConfiguration,
    mode: Mode,
    robots=None,
    seed: int | None = None,
    max_rounds: int | None = None,
    on_round: Callable[[RingConfiguration | RoundTrace], object] | None = None,
) -> RunResult:
    """Drive rounds until one robot per node or the round budget runs out.

    This is the one run loop. It hands ``on_round`` the start once it is
    checked, then each round's trace as the round is played, and keeps no
    round, so a run holds one round whatever its length."""
    if robots is None:
        robots = initial_robots(cfg)
    robots = tuple(robots)
    if max_rounds is None:
        max_rounds = 4 * cfg.n
    validate_scenario(policy, adversary, cfg, robots, mode)
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be a non-negative integer, got {max_rounds!r}")

    if on_round is not None:
        on_round(cfg)
    rng = random.Random(seed)
    rounds = 0
    violations = []
    dispersed = classify(cfg).dispersed
    while not dispersed and rounds < max_rounds:
        cfg, robots, trace = play_round(policy, adversary, cfg, mode, robots, rng)
        rounds += 1
        violations += trace.violations
        if on_round is not None:
            on_round(trace)
        dispersed = trace.metrics_after.dispersed
    outcome = "dispersed" if dispersed else "round-limit"
    return RunResult(outcome, rounds, cfg, tuple(violations))
