"""Worst-case verification by exhaustive game search.

The adversary is treated as a player that, each round, picks any allowed
permutation class and edge removal. The value of a configuration is the
number of rounds the adversary can force before every node holds exactly
one robot; a reachable cycle means it can stall forever. The search
memoizes on states up to rotation, which is sound because robot decisions
and move resolution only read relative structure.

The module also enumerates starting configurations, certifies per-round
guarantees along every explored edge, checks the adaptive adversaries
against every possible intent vector, and runs the zero-visibility rule
class against those adversaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .adversaries import (
    Adversary,
    AdversaryContext,
    Dynamism,
    exhaustive_branches,
)
from .policies import LemmaViolation, NoVisibilityPolicy, Policy, all_no_visibility_policies
from .ring import (
    Action,
    Mode,
    MoveIntent,
    Orientation,
    RingConfiguration,
    RobotState,
    ScenarioError,
    all_on_one,
    canonical_rotation,
    classify,
    resolve_moves,
    ring_from_multiplicities,
)
from .scheduler import RoundTrace, initial_robots, play, step, validate_scenario
from .scheduler import predict_intents  # unused here; perfbench/tracing.py wraps it by name

ENUMERATION_LIMIT = 8
LABELED_ENUMERATION_LIMIT = 6


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _rotations(vec: tuple[int, ...]):
    n = len(vec)
    for r in range(n):
        yield vec[n - r:] + vec[:n - r]


def canonical_profile(vec: tuple[int, ...], up_to_reflection: bool = True) -> tuple[int, ...]:
    candidates = list(_rotations(vec))
    if up_to_reflection:
        candidates.extend(_rotations(tuple(reversed(vec))))
    return min(candidates)


def enumerate_multiplicity_profiles(n: int, up_to_reflection: bool = True):
    """Distinct per-node robot counts, one representative per symmetry class."""
    if n < 1:
        raise ScenarioError(f"ring size n must be a positive integer, got {n!r}")
    if n > ENUMERATION_LIMIT:
        raise ScenarioError(f"profile enumeration is limited to n <= {ENUMERATION_LIMIT}")
    seen = {canonical_profile(vec, up_to_reflection) for vec in _compositions(n, n)}
    return tuple(sorted(seen))


def enumerate_initial_configs(n: int, labeled: bool = False,
                              up_to_reflection: bool = True):
    """Starting configurations, deduplicated by ring symmetry.

    Unlabeled enumeration keeps one occupancy profile per rotation class
    (plus reflection unless disabled) and deals labels 1..n clockwise.
    Labeled enumeration distinguishes robot placements and deduplicates by
    rotation only, since reflections change which labels are clockwise of
    which.
    """
    if not labeled:
        return tuple(
            ring_from_multiplicities(profile)
            for profile in enumerate_multiplicity_profiles(n, up_to_reflection)
        )
    if n > LABELED_ENUMERATION_LIMIT:
        raise ScenarioError(f"labeled enumeration is limited to n <= {LABELED_ENUMERATION_LIMIT}")
    seen = {}
    for assignment in itertools.product(range(n), repeat=n):
        slots = [[] for _ in range(n)]
        for label0, node in enumerate(assignment):
            slots[node].append(label0 + 1)
        cfg = RingConfiguration(n, tuple(tuple(s) for s in slots))
        key = canonical_rotation(cfg).slots
        if key not in seen:
            seen[key] = RingConfiguration(n, key)
    return tuple(seen[key] for key in sorted(seen))


def _totient(m: int) -> int:
    count = 0
    for b in range(1, m + 1):
        if math.gcd(b, m) == 1:
            count += 1
    return count


def profile_necklace_count(n: int) -> int:
    """Closed-form count of occupancy profiles up to rotation only.

    Averages, over the cyclic group, the number of profiles fixed by each
    rotation; a rotation of order n/g fixes the profiles constant on its
    g orbits, and distributing n robots over g orbit classes has
    C(2g-1, g-1) outcomes once weighted by orbit size.
    """
    total = 0
    for g in range(1, n + 1):
        if n % g == 0:
            total += _totient(n // g) * math.comb(2 * g - 1, g - 1)
    return total // n


def _aux(robots) -> tuple:
    return tuple(sorted((r.label, r.orientation.value, r.memory) for r in robots))


_PENDING = object()


@dataclass
class BoundReport:
    """Outcome of an exhaustive worst-case search for one policy."""

    policy_id: str
    n: int
    mode: Mode
    bound: int | None
    worst_rounds: float
    holds: bool
    states_explored: int
    root_values: dict
    worst_root: tuple | None
    witness: tuple[RoundTrace, ...]
    lemma_violations: tuple
    decision_mismatches: tuple
    has_cycle: bool


class WorstCaseSearcher:
    """Depth-first game evaluation with memoization up to rotation.

    The memo holds only values. A best branch found in one rotation of a
    state need not be best in another, so ``witness`` picks its branch
    afresh in the frame it is replaying.
    """

    def __init__(self, policy: Policy, mode: Mode, oracle=None):
        self.policy = policy
        self.mode = mode
        self.oracle = oracle
        self.memo: dict = {}
        self.lemma_violations: list = []
        self.decision_mismatches: list = []
        self.decision_cache: set = set()
        self.cycle_hit = False

    def _key(self, cfg: RingConfiguration, robots) -> tuple:
        return canonical_rotation(cfg).slots, _aux(robots)

    def _check_decisions(self, dynamism: Dynamism, trace: RoundTrace, robots) -> None:
        # The oracle is any callable (cfg, robots) -> {label: global Action};
        # it is consulted once per distinct decision point.
        if self.oracle is None:
            return
        perm = dynamism.permutation
        if perm is not None:
            robots = tuple(RobotState(r.label, perm[r.node], r.orientation, r.memory)
                           for r in robots)
        key = (trace.config_seen.slots, trace.config_seen.missing_edge, _aux(robots))
        if key in self.decision_cache:
            return
        self.decision_cache.add(key)
        mine = {intent.label: intent.action for intent in trace.intents}
        theirs = self.oracle(trace.config_seen, robots)
        if mine != theirs:
            self.decision_mismatches.append((key, mine, theirs))

    def value(self, cfg: RingConfiguration, robots) -> float:
        """Rounds the adversary can force from here; inf if it can stall."""
        if classify(cfg).dispersed:
            return 0
        key = self._key(cfg, robots)
        entry = self.memo.get(key)
        if entry is _PENDING:
            self.cycle_hit = True
            return math.inf
        if entry is not None:
            return entry
        self.memo[key] = _PENDING
        best = -1.0
        for dynamism in exhaustive_branches(cfg, self.mode):
            next_cfg, next_robots, trace = step(self.policy, cfg, robots, dynamism)
            for violation in trace.violations:
                self.lemma_violations.append((key, dynamism, violation))
            self._check_decisions(dynamism, trace, robots)
            best = max(best, 1 + self.value(next_cfg, next_robots))
        self.memo[key] = best
        return best

    def _settled_value(self, cfg: RingConfiguration, robots) -> float:
        """The memoized value of an explored state; 0 once dispersed."""
        if classify(cfg).dispersed:
            return 0
        return self.memo[self._key(cfg, robots)]

    def witness(self, cfg: RingConfiguration, robots) -> tuple[RoundTrace, ...]:
        """One adversary line realising the memoized value of this state.

        Each round takes the first branch whose successor's value is one
        less than the current value, so every round is on an optimal line
        whatever rotation of the memoized state ``cfg`` is.
        """
        traces = []
        value = self._settled_value(cfg, robots)
        while value not in (0, math.inf):
            for dynamism in exhaustive_branches(cfg, self.mode):
                next_cfg, next_robots, trace = step(self.policy, cfg, robots, dynamism,
                                                    index=len(traces))
                if self._settled_value(next_cfg, next_robots) == value - 1:
                    break
            else:
                raise RuntimeError(f"no branch from {cfg} lowers the value {value}")
            cfg, robots, value = next_cfg, next_robots, value - 1
            traces.append(trace)
        return tuple(traces)


def default_verification_roots(policy: Policy, n: int):
    """Sensible exhaustive roots for a policy: starts plus orientations.

    A policy that needs a gathered start is rooted there only; one that
    assumes a shared clockwise is checked with aligned robots, which
    covers the mirrored choice by symmetry. Orientation-free policies get
    every orientation assignment.
    """
    if policy.policy_id == "no-chir-1i":
        return (all_on_one(n),), "all"
    starts = enumerate_initial_configs(n)
    return starts, ("aligned" if policy.requires_chirality else "all")


def _orientation_assignments(n: int, spec) -> list[tuple[Orientation, ...]]:
    if spec == "aligned":
        return [tuple(Orientation.ALIGNED for _ in range(n))]
    if spec == "all":
        return [tuple(combo) for combo in itertools.product(
            (Orientation.ALIGNED, Orientation.REVERSED), repeat=n)]
    return [tuple(item) for item in spec]


def verify_worst_case(
    policy: Policy,
    n: int,
    mode: Mode,
    starts=None,
    orientations=None,
    oracle=None,
    bound="auto",
) -> BoundReport:
    """Search every start, every orientation choice, every adversary line.

    Starts and orientations not given are those of
    ``default_verification_roots``.
    """
    if starts is None or orientations is None:
        default_starts, default_orientations = default_verification_roots(policy, n)
        starts = default_starts if starts is None else starts
        orientations = default_orientations if orientations is None else orientations
    if bound == "auto":
        bound = policy.proven_bound(n)

    searcher = WorstCaseSearcher(policy, mode, oracle=oracle)
    root_values = {}
    worst = 0.0
    worst_root = None
    for cfg in starts:
        for orients in _orientation_assignments(n, orientations):
            robots = initial_robots(cfg, policy, dict(enumerate(orients, start=1)))
            validate_scenario(policy, None, cfg, robots, mode, policy.min_visibility(n))
            value = searcher.value(cfg, robots)
            root_key = (cfg.slots, "".join(o.value for o in orients))
            root_values[root_key] = value
            if value > worst:
                worst = value
                worst_root = (cfg, robots)

    witness = ()
    if worst_root is not None and worst != math.inf:
        witness = searcher.witness(*worst_root)
    holds = (
        worst != math.inf
        and (bound is None or worst <= bound)
        and not searcher.lemma_violations
        and not searcher.decision_mismatches
    )
    return BoundReport(
        policy_id=policy.policy_id,
        n=n,
        mode=mode,
        bound=bound,
        worst_rounds=worst,
        holds=holds,
        states_explored=len(searcher.memo),
        root_values=root_values,
        worst_root=None if worst_root is None else worst_root[0].slots,
        witness=witness,
        lemma_violations=tuple(searcher.lemma_violations),
        decision_mismatches=tuple(searcher.decision_mismatches),
        has_cycle=searcher.cycle_hit,
    )


@dataclass(frozen=True)
class Dispersal:
    """A zero-visibility rule that escaped an adversary, with the run."""

    policy_id: str
    start: tuple
    round_index: int


@dataclass
class ImpossibilityReport:
    """Result of running a rule class against an adaptive adversary."""

    adversary_id: str
    n: int
    mode: Mode
    policies_checked: int
    starts_checked: int
    dispersals: tuple[Dispersal, ...]
    proven_infinite: int
    horizon_hits: int

    @property
    def all_blocked(self) -> bool:
        return not self.dispersals


def adversary_start_filter(adversary: Adversary, cfg: RingConfiguration) -> bool:
    """Whether this adversary maintains its invariant from this start."""
    mult = sorted(cfg.multiplicities())
    if classify(cfg).dispersed:
        return False
    if adversary.adversary_id == "vp-killer-n3":
        return mult == [0, 1, 2]
    return True


def verify_impossibility(
    adversary: Adversary,
    n: int,
    mode: Mode,
    policies=None,
    starts=None,
    horizon: int = 200,
) -> ImpossibilityReport:
    """Run every zero-visibility rule against the adversary from every start.

    A repeated raw state proves an infinite stall, since rule and
    adversary are both deterministic functions of the state. Runs that
    reach the horizon without repeating are counted separately; either
    way what matters is that no run ever reaches one robot per node.
    """
    if policies is None:
        policies = list(all_no_visibility_policies())
    if starts is None:
        starts = [cfg for cfg in enumerate_initial_configs(n, up_to_reflection=False)
                  if adversary_start_filter(adversary, cfg)]
    adversary.check_scenario(n, mode)

    dispersals = []
    proven_infinite = 0
    horizon_hits = 0
    for policy in policies:
        if policy.full_visibility:
            raise ScenarioError("impossibility runs are for zero-visibility rules")
        for start in starts:
            robots = initial_robots(start, policy)
            cfg, rounds, seen = start, 0, {(start.slots, _aux(robots))}
            for cfg, robots, _ in itertools.islice(
                    play(policy, adversary, start, mode, robots), horizon):
                rounds += 1
                state = (cfg.slots, _aux(robots))
                # A state first repeated after exactly ``horizon`` rounds is a horizon hit.
                if rounds < horizon and state in seen:
                    proven_infinite += 1
                    break
                seen.add(state)
            else:
                if classify(cfg).dispersed:
                    dispersals.append(Dispersal(policy.policy_id, start.slots, rounds))
                else:
                    horizon_hits += 1
    return ImpossibilityReport(
        adversary_id=adversary.adversary_id,
        n=n,
        mode=mode,
        policies_checked=len(policies),
        starts_checked=len(starts),
        dispersals=tuple(dispersals),
        proven_infinite=proven_infinite,
        horizon_hits=horizon_hits,
    )


def check_adaptive_soundness(
    adversary: Adversary,
    cfg: RingConfiguration,
    mode: Mode,
    neutral_required: bool = False,
) -> list[str]:
    """Try every intent vector and confirm the adversary's counter works.

    For zero-visibility robots any combination of per-robot actions could
    occur, so the adversary must keep every single one from producing a
    dispersed successor. With ``neutral_required`` the successor must also
    keep the pair/single/hole shape of the 3-ring.
    """
    problems = []
    labels = cfg.labels()
    for combo in itertools.product(
            (Action.STAY, Action.CLOCKWISE, Action.ANTICLOCKWISE), repeat=cfg.n):
        intents = dict(zip(labels, combo))
        ctx = AdversaryContext(cfg, mode, 0, None, intents)
        dynamism = adversary.choose(ctx)
        dynamism.check_mode(mode)
        shaped = dynamism.apply(cfg)
        successor = resolve_moves(
            shaped, [MoveIntent(label, action) for label, action in intents.items()])
        metrics = classify(successor)
        described = ",".join(a.short for a in combo)
        if metrics.dispersed:
            problems.append(f"intents [{described}] from {cfg} dispersed via {dynamism}")
        elif neutral_required and sorted(successor.multiplicities()) != [0, 1, 2]:
            problems.append(f"intents [{described}] from {cfg} left shape "
                            f"{successor.multiplicities()} via {dynamism}")
    return problems
