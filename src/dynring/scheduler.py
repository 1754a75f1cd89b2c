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
    Orientation,
    RingConfiguration,
    RobotState,
    ScenarioError,
    Snapshot,
    classify,
    convert_frame,
    resolve_moves,
)


@dataclass(frozen=True, slots=True)
class RoundTrace:
    """Everything that happened in one round, sufficient to replay it. Its
    round number is its place in the run."""

    phase: str
    dynamism: Dynamism
    intents: dict[int, Action]
    config_seen: RingConfiguration
    config_after: RingConfiguration
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
    """Each robot's global-frame action, by label, and the memory it decided
    with."""
    at = analysis.cfg.positions()
    intents, memories = {}, []
    for robot in robots:
        own_action, memory = policy.decide(Snapshot(analysis, at[robot.label], robot), robot)
        intents[robot.label] = convert_frame(own_action, robot.orientation)
        memories.append(memory)
    return intents, memories


def predict_intents(policy: Policy, cfg: RingConfiguration, robots) -> dict[int, Action]:
    """Global-frame actions the robots would take on this configuration."""
    return _decide(policy, ChainAnalysis(cfg, chains=policy.full_visibility), robots)[0]


def step(
    policy: Policy,
    cfg: RingConfiguration,
    robots: tuple[RobotState, ...],
    dynamism: Dynamism,
    predicted: dict[int, Action] | None = None,
) -> tuple[RingConfiguration, tuple[RobotState, ...], RoundTrace]:
    """Run one round and return the intact next configuration.

    A robot looks at the ring once, before it moves. It settles with the
    hand and memory ``Policy.after_move`` gives it from the labels on the
    node it ended the round on. ``predicted`` intents, if given, must be
    exactly the robots' decisions.
    """
    if cfg.missing_edge is not None:
        raise ValueError("a round must start from an intact ring")
    cfg_seen = dynamism.apply(cfg)
    phase = policy.phase_of_round(robots, cfg_seen)

    analysis = ChainAnalysis(cfg_seen, chains=policy.full_visibility)
    intents, memories = _decide(policy, analysis, robots)
    if predicted is not None and predicted != intents:
        wrong = sorted(label for label in intents if predicted.get(label) is not intents[label])
        raise RuntimeError(f"predicted intents differ from the decisions of robots {wrong}")

    cfg_after = resolve_moves(cfg_seen, intents)
    metrics_after = classify(cfg_after)
    mates = {label: slot for slot in cfg_after.slots for label in slot}
    settled = []
    for robot, memory in zip(robots, memories):
        hand, memory = policy.after_move(robot, memory, mates[robot.label])
        # A robot whose hand and memory are the ones it had is carried over.
        if hand is not robot.orientation or memory is not robot.memory:
            robot = RobotState(robot.label, hand, memory)
        settled.append(robot)

    filled = holes_filled_count(cfg_seen, cfg_after)
    trace = RoundTrace(
        phase=phase,
        dynamism=dynamism,
        intents=intents,
        config_seen=cfg_seen,
        config_after=cfg_after,
        metrics_after=metrics_after,
        holes_filled=filled,
        violations=tuple(check_round_lemmas(policy, phase, analysis.metrics, metrics_after,
                                            filled)),
    )
    next_cfg = RingConfiguration._trusted(cfg.n, cfg_after.slots, None)
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
    if sorted(robot.label for robot in robots) != list(cfg.labels()):
        raise ScenarioError(f"robots must carry exactly the labels 1..{n}")


def play(policy: Policy, adversary: Adversary, cfg: RingConfiguration, mode: Mode, robots,
         rng: random.Random | None = None):
    """Yield ``(cfg, robots, trace)`` for every round until the ring is
    dispersed: the one loop that runs ``choose`` and ``step`` for a run. An
    adaptive adversary reads the robots' intents first; ``step`` checks them."""
    if classify(cfg).dispersed:
        return
    while True:
        predicted = predict_intents(policy, cfg, robots) if adversary.adaptive else None
        dynamism = adversary.choose(AdversaryContext(cfg, mode, rng, predicted))
        dynamism.check_mode(mode)
        cfg, robots, trace = step(policy, cfg, robots, dynamism, predicted)
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
        robots = initial_robots(cfg)
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
