"""Worst-case verification by exhaustive game search.

The adversary is treated as a player that, each round, picks any allowed
permutation class and edge removal. The value of a configuration is the
number of rounds the adversary can force before every node holds exactly
one robot; a reachable cycle means it can stall forever.

The search memoizes values on states up to symmetry. Without vertex
permutations (modes ``none`` and ``1i``) the key is the rotation class,
which is sound because robot decisions and move resolution only read
relative structure. With them (``vp`` and ``combined``) the key is the
multiset of slots, because every round opens with a permutation:

- the branches from a state do not depend on how its slots are arranged,
  since ``exhaustive_branches`` offers every arrangement of the multiset
  up to rotation whatever arrangement it starts from;
- the rest of the key, ``_aux``, holds labels, hands and memories and
  reads no node;
- a cycle under the coarser key is a real stall: the adversary reaches
  the repeated multiset in another arrangement, and it can fold that
  rearrangement into its next permutation.

In those modes the key also merges a state with its mirror twin: the
ring reflected and every hand flipped, which has the same slot multiset.
The key keeps the lesser of ``_aux`` and the twin's ``_aux``, that is the
one in which robot 1's hand is ``A``. Twins have one value:

- a rule sees only its own frame, so in the twin every robot decides the
  same own-frame action and every global action is inverted; each move
  lands on the reflection of its node in the original;
- ``Policy.after_move`` flips a hand relative to the hand it had, so it
  flips the twin's hand too, and memories hold no direction;
- ``Policy.round_guarantees`` reads memories and the census, and the
  checks it lists read censuses, so none of them reads a direction;
- ``exhaustive_branches`` offers every arrangement of the multiset and
  every edge, a set closed under reflection, so each branch of a state
  has a mirrored branch of its twin and the successors are twins again;
- a cycle through a twin is a real stall: mirroring the path from a
  state to its twin leads back to the state.

Without permutations the arrangement is real state, and flipping hands
without reflecting it would be unsound, so modes ``none`` and ``1i`` keep
the plain rotation key.

A search also keeps a look table for its own length: every round it
plays passes it to ``step``, which builds a ``ChainAnalysis`` only for a
seen ring whose node counts and removed edge the table lacks and reuses
the stored one otherwise; a look holds no label. The table holds at most
C(2n-1, n)*(n+1) entries (175 at n=4, 13,728 at n=7). Runs and
impossibility sweeps pass none: large rings do not repeat.

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
    exhaustive_branches,
)
from .policies import NoVisibilityPolicy, Policy, all_no_visibility_policies, census_classes
from .ring import (
    Action,
    Mode,
    Orientation,
    RingConfiguration,
    ScenarioError,
    all_on_one,
    canonical_rotation,
    check_intact,
    classify,
    moved_counts,
    resolve_moves,  # unused here; perfbench/tracing.py wraps verifier.resolve_moves by name
    ring_from_multiplicities,
)
from .scheduler import RoundTrace, initial_robots, play_round, step, validate_scenario
from .scheduler import predict_intents  # unused here; perfbench/tracing.py wraps it by name

ENUMERATION_LIMIT = 8
DEFAULT_HORIZON = 200  # rounds an impossibility run may take


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


def enumerate_initial_configs(n: int, up_to_reflection: bool = True):
    """Starting configurations: one occupancy profile per rotation class
    (plus reflection unless disabled), labels 1..n dealt clockwise."""
    return tuple(
        ring_from_multiplicities(profile)
        for profile in enumerate_multiplicity_profiles(n, up_to_reflection)
    )


def _aux(robots) -> tuple:
    """Every robot's label, hand and memory, in label order: with the slots,
    the state of a run."""
    # No sort: ``initial_robots`` deals robots in label order, ``step`` keeps
    # it and ``validate_scenario`` checks it. ``_value_`` is
    # ``Orientation.value`` without the slow Enum descriptor.
    return tuple([(r.label, r.orientation._value_, r.memory) for r in robots])


_FLIP = {"A": "R", "R": "A"}
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
    has_cycle: bool


class WorstCaseSearcher:
    """Depth-first game evaluation with memoization up to symmetry.

    ``_key`` is a state's rotation class, or its slot multiset when the
    mode permutes vertices. The coarser key is sound: every arrangement of
    the multiset has the same branches, ``_aux`` reads no node, and a
    cycle under it is a real stall, because the adversary can fold the
    rearrangement into its next permutation. The multiset key also merges
    a state with its mirror twin, the ring reflected and every hand
    flipped, by keying with the hands in which robot 1 reads ``A``; the
    module docstring shows that twins have one value. The memo holds only
    values.
    ``looks`` is the search's look table, one label-free look per seen
    ring's node counts and removed edge (``scheduler._look``). It goes
    with the searcher, as the memo does.
    A best branch found in one frame of a state need not be best in
    another, so ``witness`` picks its branch afresh in the frame it is
    replaying.
    """

    def __init__(self, policy: Policy, mode: Mode):
        self.policy = policy
        self.mode = mode
        self.memo: dict = {}
        self.looks: dict = {}
        self.lemma_violations: list = []

    def _key(self, cfg: RingConfiguration, robots) -> tuple:
        aux = _aux(robots)
        if not self.mode.allows_permutation:
            return canonical_rotation(cfg).slots, aux
        if aux[0][1] == "R":
            # The mirror twin's hands; every hand differs, so it is the lesser.
            aux = tuple([(label, _FLIP[hand], memory) for label, hand, memory in aux])
        return tuple(sorted(cfg.slots)), aux

    def value(self, cfg: RingConfiguration, robots) -> float:
        """Rounds the adversary can force from here; inf if it can stall."""
        return 0 if classify(cfg).dispersed else self._value(cfg, robots)

    def _value(self, cfg: RingConfiguration, robots) -> float:
        """``value`` of a state that is not dispersed. A successor's census
        is read from the round's trace."""
        key = self._key(cfg, robots)
        entry = self.memo.get(key)
        if entry is _PENDING:
            return math.inf
        if entry is not None:
            return entry
        self.memo[key] = _PENDING
        best = -1.0
        for dynamism in exhaustive_branches(cfg, self.mode):
            next_cfg, next_robots, trace = step(self.policy, cfg, robots, dynamism,
                                                 looks=self.looks)
            for violation in trace.violations:
                self.lemma_violations.append((key, dynamism, violation))
            rest = 0 if trace.metrics_after.dispersed else self._value(next_cfg, next_robots)
            best = max(best, 1 + rest)
        self.memo[key] = best
        return best

    def _settled_value(self, cfg: RingConfiguration, robots,
                       dispersed: bool | None = None) -> float:
        """The memoized value of an explored state; 0 once dispersed, which
        is read from ``cfg`` unless the caller knows it."""
        if dispersed is None:
            dispersed = classify(cfg).dispersed
        return 0 if dispersed else self.memo[self._key(cfg, robots)]

    def witness(self, cfg: RingConfiguration, robots) -> tuple[RoundTrace, ...]:
        """One adversary line realising the memoized value of this state.

        Each round takes the first branch whose successor's value is one
        less than the current value, so every round is on an optimal line
        whichever rotation of the memoized state ``cfg`` is, or whichever
        arrangement of its slots when the mode permutes vertices.
        """
        traces = []
        value = self._settled_value(cfg, robots)
        while value not in (0, math.inf):
            for dynamism in exhaustive_branches(cfg, self.mode):
                next_cfg, next_robots, trace = step(self.policy, cfg, robots, dynamism,
                                                     looks=self.looks)
                settled = self._settled_value(next_cfg, next_robots, trace.metrics_after.dispersed)
                if settled == value - 1:
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
    starts = (all_on_one(n),) if policy.gathered_start else enumerate_initial_configs(n)
    return starts, ("aligned" if policy.requires_chirality else "all")


def _orientation_assignments(n: int, spec: str) -> list[tuple[Orientation, ...]]:
    if spec == "aligned":
        return [tuple(Orientation.ALIGNED for _ in range(n))]
    if spec == "all":
        return [tuple(combo) for combo in itertools.product(
            (Orientation.ALIGNED, Orientation.REVERSED), repeat=n)]
    raise ScenarioError(f"orientations must be 'aligned' or 'all', got {spec!r}")


def verify_worst_case(
    policy: Policy,
    n: int,
    mode: Mode,
    starts=None,
    orientations=None,
    bound: int | None = None,
) -> BoundReport:
    """Search every start, every orientation choice, every adversary line.

    ``orientations`` is "aligned" or "all"; starts and orientations not
    given are those of ``default_verification_roots``. ``bound`` defaults
    to the policy's proven bound.
    """
    if starts is None or orientations is None:
        default_starts, default_orientations = default_verification_roots(policy, n)
        starts = default_starts if starts is None else starts
        orientations = default_orientations if orientations is None else orientations
    if bound is None:
        bound = policy.proven_bound(n)
    if bound is not None and bound < 0:
        raise ScenarioError(f"bound must be at least 0 rounds, got {bound}")
    starts = tuple(starts)  # read twice: checked, then searched
    if not starts:
        raise ScenarioError(f"no start to check for policy {policy.policy_id} on n={n}")
    if any(start.n != n for start in starts):
        raise ScenarioError(f"every start of a bound search must have n={n} nodes")

    searcher = WorstCaseSearcher(policy, mode)
    root_values = {}
    worst = 0.0
    worst_root = None
    for cfg in starts:
        for orients in _orientation_assignments(n, orientations):
            robots = initial_robots(cfg, dict(enumerate(orients, start=1)))
            validate_scenario(policy, None, cfg, robots, mode)
            value = searcher.value(cfg, robots)
            root_key = (cfg.slots, "".join(o.value for o in orients))
            root_values[root_key] = value
            if value > worst:
                worst = value
                worst_root = (cfg, robots)

    witness = ()
    if worst_root is not None and worst != math.inf:
        witness = searcher.witness(*worst_root)
    holds = (worst != math.inf and (bound is None or worst <= bound)
             and not searcher.lemma_violations)
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
        has_cycle=worst == math.inf,  # only a cycle makes a value infinite
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
    return adversary.invariant(cfg.multiplicities())


class _States:
    """The states one ``verify_impossibility`` call meets, each interned once:
    ``ids`` maps a state, its ``cfg.slots``, to a small int, and ``rows[id]``
    is its ``(cfg, dispersed, classes)``, where ``classes`` are its
    ``census_classes``."""

    def __init__(self):
        self.ids: dict = {}
        self.rows: list = []

    def intern(self, cfg: RingConfiguration, dispersed: bool) -> int:
        sid = self.ids.get(cfg.slots)
        if sid is None:
            sid = self.ids[cfg.slots] = len(self.rows)
            self.rows.append((cfg, dispersed, census_classes(cfg)))
        return sid


def _orbit_fate(policy: NoVisibilityPolicy, adversary: Adversary, start: int, robots,
                mode: Mode, horizon: int, fates: dict, memo: dict, states: _States):
    """``(disperses, rounds)`` of the run from the state with id ``start``,
    or None if it hits the horizon.

    ``rounds`` counts until the orbit disperses or first repeats a state.
    The run stops at the first state ``fates`` holds. Unless it hit the
    horizon, each state it walked enters ``fates``: after ``m`` rounds,
    walked state ``k`` gets ``m + rest - min(k, cap)``. A join into a known
    ``(d, rest)`` has ``cap = m``; a repeat of walked state ``i`` has
    ``rest = 0`` and ``cap = i``, as the states from ``i`` on form a cycle
    ``m - i`` long; a dispersal has ``rest = 0`` and ``cap = m``.

    ``fates``, the walk and the round memo ``memo`` are keyed by the ids of
    ``states``. The memo maps a state's id and the table's ``letters`` for
    the state's classes to the successor's id. A round it lacks is played
    by ``play_round``, the only place that decides (it predicts, and
    checks the prediction, only against an adaptive adversary), and its
    successor is interned there; a round the memo holds decides nothing.
    The walk knows a state it plays is not dispersed, so it takes no
    census before a round. Every state has the call's ``robots``; a played
    round that returns other robots raises ``RuntimeError``.
    """
    rows = states.rows
    letters = policy.letters
    sid = start
    walk: dict = {}
    while True:
        m = len(walk)
        if sid in fates:
            disperses, rest = fates[sid]
            cap = m
            break
        if sid in walk:
            disperses, rest, cap = False, 0, walk[sid]
            break
        cfg, dispersed, classes = rows[sid]
        if dispersed:
            disperses, rest, cap = True, 0, m
            break
        if m >= horizon:
            return None
        walk[sid] = m
        key = (sid, letters(classes))
        sid = memo.get(key)
        if sid is None:
            cfg, settled, trace = play_round(policy, adversary, cfg, mode, robots)
            if settled != robots:
                raise RuntimeError(f"{policy.policy_id} changed a robot's hand or memory")
            sid = memo[key] = states.intern(cfg, trace.metrics_after.dispersed)
    for k, walked in enumerate(walk):
        fates[walked] = (disperses, m + rest - min(k, cap))
    return disperses, m + rest


def verify_impossibility(
    adversary: Adversary,
    n: int,
    mode: Mode,
    policies=None,
    starts=None,
    horizon: int = DEFAULT_HORIZON,
) -> ImpossibilityReport:
    """Run every zero-visibility table against the adversary from every start.

    A state is the ring's slots: every run starts with ``initial_robots``,
    and a plain table never changes a robot (its ``decide`` keeps the
    memory and its ``after_move`` is ``Policy``'s), which ``_orbit_fate``
    checks on every round it plays. The rule and the adversary are
    deterministic functions of the state, so a state has one orbit per
    table. A repeated state therefore proves an infinite stall, and a run
    that reaches a state an earlier start of the same table resolved shares
    that state's fate from there on: it is read off ``fates`` instead of
    being run again (see ``_orbit_fate``). Each table gets a fresh
    ``fates``, as another table gives the state another orbit.

    The call interns every state it meets once (``_States``): a state gets
    a small int id and one row, its configuration, whether it is dispersed
    and its census classes (``census_classes``). Each start's row is built
    once per call, and a played round's successor is interned when the
    round is played. ``fates``, the walk and the round memo hold ids.

    One round memo serves every table of the call: a round is played once
    per (state, letters), whichever table reaches it, where ``letters`` are
    the table's letters for the state's census classes
    (``NoVisibilityPolicy.letters``), and the memo maps the state's id and
    those letters to the successor's id. Each later table that reaches the
    round reads the successor off the memo and decides nothing. This is
    sound because, against a deterministic adversary, a table's round is a
    function of the state and those letters:

    - a robot decides its class's letter in its own frame, and the state
      and the call's robots fix every robot's class and hand, so the state
      and the letters fix the intents; every class present is in the key;
    - the adversary reads only the ring, the mode and the intents;
    - dynamism moves whole slots, so no robot's class changes before it
      decides, and the decisions on the reshaped ring are the intents
      ``play_round`` predicts. ``play_round`` checks this on every round it
      plays against an adaptive adversary; against any other adversary
      ``play_round`` predicts nothing, and the letters key rests on
      ``test_a_tables_letters_on_a_state_fix_its_intents``, not on a
      check at run time;
    - a table's ``decide`` keeps the robot's memory, and its ``actors``,
      ``after_move``, ``round_guarantees`` and ``guarantees`` are
      ``Policy``'s, so they read no table entry.

    Only plain ``NoVisibilityPolicy`` tables are run: a subclass, which may
    decide or settle otherwise, and any other rule are refused before any
    round is played, as is a start the adversary cannot play from
    (``Adversary.check_start``). ``tests/test_verifier.py`` checks these
    premises and checks every report against runs that share nothing.

    A start's run disperses if its orbit does within ``horizon`` rounds,
    and is a proven stall if its orbit first repeats a state before the
    ``horizon``-th round; anything else is a horizon hit. What matters is
    that no run ever reaches one robot per node, so an empty set of starts
    is refused.
    """
    if policies is None:
        policies = list(all_no_visibility_policies())
    if starts is None:
        starts = [cfg for cfg in enumerate_initial_configs(n, up_to_reflection=False)
                  if adversary_start_filter(adversary, cfg)]
    adversary.check_scenario(n, mode)
    if horizon < 0:
        raise ScenarioError(f"horizon must be at least 0 rounds, got {horizon}")
    if not starts:
        raise ScenarioError(f"no start to check for adversary {adversary.adversary_id} on n={n}")
    if any(start.n != n for start in starts):
        raise ScenarioError(f"every start of an impossibility run must have n={n} nodes")
    for start in starts:
        check_intact(start)
        adversary.check_start(start)
    for policy in policies:
        if type(policy) is not NoVisibilityPolicy:
            raise ScenarioError(f"impossibility runs are for zero-visibility tables, "
                                f"not {type(policy).__name__} {policy.policy_id!r}")

    states = _States()
    robots = initial_robots(starts[0])
    start_ids = [states.intern(start, classify(start).dispersed) for start in starts]
    dispersals = []
    proven_infinite = 0
    horizon_hits = 0
    memo: dict = {}
    for policy in policies:
        fates: dict = {}
        for start, sid in zip(starts, start_ids):
            match _orbit_fate(policy, adversary, sid, robots, mode, horizon, fates, memo, states):
                case (True, rounds) if rounds <= horizon:
                    dispersals.append(Dispersal(policy.policy_id, start.slots, rounds))
                case (False, rounds) if rounds < horizon:
                    proven_infinite += 1
                case _:
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
    keep the adversary's invariant, such as the 3-ring's pair/single/hole.

    The adversary is asked once per labelled intent vector. Each distinct
    dynamism it answers is checked (``Dynamism.check``) and applied once per
    call, and every vector is judged by its own successor's node counts
    (``moved_counts``) on the ring its answer shapes. A scenario or start the
    adversary refuses (``check_start``), and a ring with a removed edge, from
    which no round starts, raise ``ScenarioError`` before any vector is tried.
    """
    adversary.check_scenario(cfg.n, mode)
    check_intact(cfg)
    adversary.check_start(cfg)
    problems = []
    labels = cfg.labels()
    shaped: dict = {}
    for combo in itertools.product(
            (Action.STAY, Action.CLOCKWISE, Action.ANTICLOCKWISE), repeat=cfg.n):
        intents = dict(zip(labels, combo))
        dynamism = adversary.choose(AdversaryContext(cfg, mode, None, intents))
        perm, edge = dynamism.permutation, dynamism.edge_removal
        # A list and a tuple of one permutation shape one ring. The types of
        # its entries and of the edge are in the key, as True and 1.0 equal
        # 1 but are refused.
        key = (None if perm is None else (*perm, *map(type, perm)), edge, type(edge))
        ring = shaped.get(key)
        if ring is None:
            dynamism.check(cfg.n, mode)
            ring = shaped[key] = dynamism.apply(cfg)
        counts = moved_counts(ring, intents)
        if counts.count(1) == cfg.n:
            outcome = "dispersed"
        elif neutral_required and not adversary.invariant(counts):
            outcome = f"left shape {counts}"
        else:
            continue
        described = ",".join(a.short for a in combo)
        problems.append(f"intents [{described}] from {cfg} {outcome} via {dynamism}")
    return problems
