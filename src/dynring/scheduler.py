"""Round execution: dynamism, look, compute, move, all fully deterministic.

A round starts from an intact ring. The adversary reshapes it (permute
then possibly remove one edge), every robot looks and decides at once,
and all moves resolve simultaneously; a move across the removed edge
leaves the robot where it is. The removed edge lasts only for the round.

The same ``step`` function serves simulation runs, impossibility runs and
the worst-case search, so there is exactly one implementation of round
semantics; ``play`` is the one loop that feeds it an adversary's choices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .adversaries import Adversary, AdversaryContext, Dynamism
from .policies import LemmaViolation, Policy, check_round_lemmas, holes_filled_count
from .ring import (
    Action,
    ChainAnalysis,
    Metrics,
    Mode,
    MoveIntent,
    Orientation,
    RingConfiguration,
    RobotState,
    ScenarioError,
    classify,
    convert_frame,
    resolve_moves,
)


@dataclass(frozen=True)
class RoundTrace:
    """Everything that happened in one round, sufficient to replay it."""

    index: int
    phase: str
    dynamism: Dynamism
    intents: tuple[MoveIntent, ...]
    config_seen: RingConfiguration
    config_after: RingConfiguration
    metrics_seen: Metrics
    metrics_after: Metrics
    holes_filled: int
    violations: tuple[LemmaViolation, ...]


@dataclass(frozen=True)
class RunResult:
    """Outcome of a full run."""

    outcome: str
    rounds: int
    final_config: RingConfiguration
    final_robots: tuple[RobotState, ...]
    traces: tuple[RoundTrace, ...]

    @property
    def dispersed(self) -> bool:
        return self.outcome == "dispersed"

    @property
    def violations(self) -> tuple[LemmaViolation, ...]:
        return tuple(v for t in self.traces for v in t.violations)


def _decide(policy: Policy, analysis: ChainAnalysis, robots):
    """Each robot's global-frame intent and the memory it decided with."""
    intents = []
    memories = []
    for robot in robots:
        own_action, memory = policy.decide(analysis.snapshot_for(robot), robot)
        intents.append(MoveIntent(robot.label, convert_frame(own_action, robot.orientation)))
        memories.append(memory)
    return intents, memories


def predict_intents(policy: Policy, cfg: RingConfiguration, robots) -> dict[int, Action]:
    """Global-frame actions the robots would take on this configuration."""
    intents, _ = _decide(policy, ChainAnalysis(cfg), robots)
    return {intent.label: intent.action for intent in intents}


def step(
    policy: Policy,
    cfg: RingConfiguration,
    robots: tuple[RobotState, ...],
    dynamism: Dynamism,
    index: int = 0,
    predicted: dict[int, Action] | None = None,
) -> tuple[RingConfiguration, tuple[RobotState, ...], RoundTrace]:
    """Run one round and return the intact next configuration.

    Robot states are rebuilt when the permutation carries them and when they
    settle. Only a rule that overrides ``Policy.after_move`` gets the
    post-move chain index; under any other rule a robot keeps its hand and
    the memory it decided with. ``predicted`` intents, if given, must be
    exactly the robots' decisions.
    """
    if cfg.missing_edge is not None:
        raise ValueError("a round must start from an intact ring")
    cfg_seen = dynamism.apply(cfg)
    perm = dynamism.permutation
    if perm is not None:
        robots = tuple(RobotState(r.label, perm[r.node], r.orientation, r.memory)
                       for r in robots)
    phase = policy.phase_of_round(robots, cfg_seen)

    analysis = ChainAnalysis(cfg_seen)
    intents, memories = _decide(policy, analysis, robots)
    if predicted is not None:
        for intent in intents:
            if predicted[intent.label] is not intent.action:
                raise RuntimeError(
                    f"predicted intent for robot {intent.label} was "
                    f"{predicted[intent.label].short}, but it chose {intent.action.short}")

    cfg_after = resolve_moves(cfg_seen, intents)
    landed = cfg_after.positions()
    settled = []
    if type(policy).after_move is Policy.after_move:
        metrics_after = classify(cfg_after)
        for robot, memory in zip(robots, memories):
            settled.append(
                RobotState(robot.label, landed[robot.label], robot.orientation, memory))
    else:
        post_analysis = ChainAnalysis(cfg_after)
        metrics_after = post_analysis.metrics
        for robot, memory in zip(robots, memories):
            node = landed[robot.label]
            moved = RobotState(robot.label, node, robot.orientation, memory)
            orientation, memory = policy.after_move(moved, post_analysis.snapshot_for(moved))
            settled.append(RobotState(robot.label, node, orientation, memory))

    filled = holes_filled_count(cfg_seen, cfg_after)
    trace = RoundTrace(
        index=index,
        phase=phase,
        dynamism=dynamism,
        intents=tuple(sorted(intents, key=lambda i: i.label)),
        config_seen=cfg_seen,
        config_after=cfg_after,
        metrics_seen=analysis.metrics,
        metrics_after=metrics_after,
        holes_filled=filled,
        violations=tuple(check_round_lemmas(policy, phase, analysis.metrics, metrics_after,
                                            filled)),
    )
    next_cfg = RingConfiguration._trusted(cfg.n, cfg_after.slots, None)
    return next_cfg, tuple(settled), trace


def initial_robots(cfg: RingConfiguration, policy: Policy, orientations=None):
    """Robots for a fresh run; ``orientations`` maps label to Orientation."""
    robots = []
    for label, node in sorted(cfg.positions().items()):
        orientation = Orientation.ALIGNED
        if orientations is not None:
            orientation = orientations[label]
        robots.append(RobotState(label, node, orientation, policy.initial_memory()))
    return tuple(robots)


def validate_scenario(
    policy: Policy,
    adversary: Adversary | None,
    cfg: RingConfiguration,
    robots,
    mode: Mode,
    k: int,
) -> None:
    n = cfg.n
    policy.check_scenario(n, mode, cfg, robots)
    if not 0 <= k <= n:
        raise ScenarioError(f"visibility k={k} must lie in 0..{n}")
    needed = policy.min_visibility(n)
    if k < needed:
        raise ScenarioError(
            f"policy {policy.policy_id} needs visibility k >= {needed} on n={n}, got k={k}")
    if adversary is not None:
        adversary.check_scenario(n, mode)
        if adversary.adaptive and policy.full_visibility:
            raise ScenarioError(
                f"adversary {adversary.adversary_id} counters zero-visibility rules; "
                f"policy {policy.policy_id} sees the whole ring")
    for robot in robots:
        if robot.label not in cfg.slots[robot.node]:
            raise ScenarioError(f"robot {robot.label} is not at its recorded node")


def play(policy: Policy, adversary: Adversary, cfg: RingConfiguration, mode: Mode, robots,
         rng: random.Random | None = None):
    """Yield ``(cfg, robots, trace)`` per round until the ring is dispersed.
    An adaptive adversary reads the robots' intents first; ``step`` checks them."""
    if classify(cfg).dispersed:
        return
    for index in itertools.count():
        predicted = predict_intents(policy, cfg, robots) if adversary.adaptive else None
        dynamism = adversary.choose(AdversaryContext(cfg, mode, index, rng, predicted))
        dynamism.check_mode(mode)
        cfg, robots, trace = step(policy, cfg, robots, dynamism, index, predicted)
        yield cfg, robots, trace
        if trace.metrics_after.dispersed:
            return


def run_simulation(
    policy: Policy,
    adversary: Adversary,
    cfg: RingConfiguration,
    mode: Mode,
    robots=None,
    k: int | None = None,
    seed: int | None = None,
    max_rounds: int | None = None,
) -> RunResult:
    """Drive rounds until one robot per node or the round budget runs out."""
    if robots is None:
        robots = initial_robots(cfg, policy)
    robots = tuple(robots)
    if k is None:
        k = policy.min_visibility(cfg.n)
    if max_rounds is None:
        max_rounds = 4 * cfg.n
    validate_scenario(policy, adversary, cfg, robots, mode, k)

    rounds = play(policy, adversary, cfg, mode, robots, random.Random(seed))
    traces = []
    for cfg, robots, trace in itertools.islice(rounds, max_rounds):
        traces.append(trace)
    outcome = "dispersed" if classify(cfg).dispersed else "round-limit"
    return RunResult(outcome, len(traces), cfg, robots, tuple(traces))
