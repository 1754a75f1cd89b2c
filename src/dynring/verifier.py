"""Worst-case verification by exhaustive game search.

The adversary is treated as a player that, each round, picks any allowed
permutation class and edge removal. The value of a configuration is the
number of rounds the adversary can force before every node holds exactly
one robot: the least fixpoint, over 0..inf, of v(s) = 0 for a dispersed
state and v(s) = 1 + max v(t) over the successors t of any other. It is
inf exactly where a cycle is reachable, as the adversary can then stall
forever. The search settles it backward from dispersal, as retrograde
analysis does (K. Thompson, ICCA Journal 9(3), 1986), by the attractor of
W. Zielonka (TCS 200, 1998): a state is valued once all its successors
are, and a state never valued reaches a cycle.

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
C(2n-1, n)*(n+1) entries (175 at n=4, 13,728 at n=7). Beside it the
search keeps a decision memo, which ``step`` hands to the decision
helper: a robot the rule lists decides by ``Policy.decide`` only if the
memo lacks its key, the stored look, its node, the labels on that node,
its label, hand and memory, and otherwise takes the stored answer. That
is exact, because a rule reads only its ``Snapshot`` and the robot, and a
snapshot is built from the look, the node, its labels and the robot; a
stored look is one object per node counts and removed edge, so the look
is keyed by identity. Runs and impossibility sweeps pass neither: large
rings do not repeat.

The module also enumerates starting configurations, certifies per-round
guarantees along every explored edge, checks the adaptive adversaries
against every possible intent vector, and runs the zero-visibility rule
class against those adversaries.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from types import MappingProxyType
from typing import NamedTuple

from .adversaries import (
    Adversary,
    AdversaryContext,
    exhaustive_branches,
    refuse_uncovered,
)
from .policies import NoVisibilityPolicy, Policy
from .policies import all_no_visibility_policies, census_classes
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
    moved_counts_table,
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


class BoundReport(NamedTuple):
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
    """Game evaluation settled backward from dispersal, memoized up to
    symmetry. ``value`` solves (``_solve``) each state the memo lacks, and
    the solve values every state that state reaches.

    ``_key`` is a state's rotation class, or its slot multiset when the
    mode permutes vertices. The coarser key is sound: every arrangement of
    the multiset has the same branches, ``_aux`` reads no node, and a
    cycle under it is a real stall, because the adversary can fold the
    rearrangement into its next permutation. The multiset key also merges
    a state with its mirror twin, the ring reflected and every hand
    flipped, by keying with the hands in which robot 1 reads ``A``; the
    module docstring shows that twins have one value. The memo holds only
    settled values.
    ``looks`` is the search's look table, one label-free look per seen
    ring's node counts and removed edge (``scheduler._look``), and
    ``decisions`` its decision memo, keyed by those stored looks
    (``scheduler._decide``). Both go with the searcher, as the memo does.
    A best branch found in one frame of a state need not be best in
    another, so ``witness`` picks its branch afresh in the frame it is
    replaying.
    """

    def __init__(self, policy: Policy, mode: Mode):
        self.policy = policy
        self.mode = mode
        self.memo: dict = {}
        self.looks: dict = {}
        self.decisions: dict = {}
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
        if classify(cfg).dispersed:
            return 0
        key = self._key(cfg, robots)
        return self.memo.get(key) or self._solve(cfg, robots, key)  # a stored value is >= 1

    def _solve(self, cfg: RingConfiguration, robots, root) -> float:
        """The value of the unvalued state ``root``, having valued every
        unvalued state it reaches.

        The forward pass steps each new state along every branch once, in
        FIFO order, numbering the successors that are neither dispersed nor
        valued and keeping each one's predecessors, once per branch. The
        backward pass counts each state's branches to those successors
        down, and values a state at 1 plus the largest value among its
        successors (0 for a dispersed one) once each has one, so it is
        linear in edges. A state it never values has a successor it never
        values, so it reaches a cycle and is inf.
        """
        # ``best`` holds, per id, the largest value among the state's valued
        # successors (0 if none), and once the state is valued, its value.
        ids, best = {root: 0}, []
        preds = collections.defaultdict(list)  # per id: its predecessors' ids, once per branch
        queue = collections.deque([(cfg, robots, root)])
        while queue:
            cfg, robots, key = queue.popleft()
            here, known = len(best), 0
            for dynamism in exhaustive_branches(cfg, self.mode):
                next_cfg, next_robots, trace = step(self.policy, cfg, robots, dynamism,
                                                     self.looks, self.decisions)
                for violation in trace.violations:
                    self.lemma_violations.append((key, dynamism, violation))
                if trace.metrics_after.dispersed:
                    continue
                next_key = self._key(next_cfg, next_robots)
                next_id = ids.get(next_key)
                if next_id is None:
                    if next_key in self.memo:
                        known = max(known, self.memo[next_key])
                        continue
                    next_id = ids[next_key] = len(ids)
                    queue.append((next_cfg, next_robots, next_key))
                preds[next_id].append(here)
            best.append(known)
        waiting = collections.Counter(itertools.chain.from_iterable(preds.values()))
        ready = [state for state in range(len(best)) if not waiting[state]]
        for state in ready:  # grows as states are valued
            best[state] += 1
            for pred in preds[state]:
                best[pred] = max(best[pred], best[state])
                waiting[pred] -= 1
                if not waiting[pred]:
                    ready.append(pred)
        self.memo.update(zip(ids, [math.inf if waiting[s] else v for s, v in enumerate(best)]))
        return self.memo[root]

    def witness(self, cfg: RingConfiguration, robots) -> tuple[RoundTrace, ...]:
        """One adversary line realising the memoized value of this state.

        Each round takes the first branch whose successor's value is one
        less than the current value, so every round is on an optimal line
        whichever rotation of the memoized state ``cfg`` is, or whichever
        arrangement of its slots when the mode permutes vertices.
        """
        traces = []
        value = self.value(cfg, robots)
        while value not in (0, math.inf):
            for dynamism in exhaustive_branches(cfg, self.mode):
                next_cfg, next_robots, trace = step(self.policy, cfg, robots, dynamism,
                                                     self.looks, self.decisions)
                if self.value(next_cfg, next_robots) == value - 1:
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
    starts = tuple(starts)  # read twice: checked, then rooted
    if not starts:
        raise ScenarioError(f"no start to check for policy {policy.policy_id} on n={n}")
    if any(start.n != n for start in starts):
        raise ScenarioError(f"every start of a bound search must have n={n} nodes")

    # Every root is checked before the first is searched.
    roots = []
    for cfg in starts:
        for orients in _orientation_assignments(n, orientations):
            robots = initial_robots(cfg, dict(enumerate(orients, start=1)))
            validate_scenario(policy, None, cfg, robots, mode)
            roots.append((cfg, robots, (cfg.slots, "".join(o.value for o in orients))))

    searcher = WorstCaseSearcher(policy, mode)
    root_values = {}
    worst = 0.0
    worst_root = None
    for cfg, robots, root_key in roots:
        value = searcher.value(cfg, robots)
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


class Dispersal(NamedTuple):
    """A zero-visibility rule that escaped an adversary, with the run."""

    policy_id: str
    start: tuple
    round_index: int


class ImpossibilityReport(NamedTuple):
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
    is its ``(cfg, dispersed, mask)``: ``mask`` sets two bits per class of its
    ``census_classes``, the class's field in a letter code."""

    def __init__(self):
        self.ids: dict = {}
        self.rows: list = []

    def intern(self, cfg: RingConfiguration, dispersed: bool) -> int:
        sid = self.ids.get(cfg.slots)
        if sid is None:
            sid = self.ids[cfg.slots] = len(self.rows)
            self.rows.append((cfg, dispersed, sum(3 << 2 * c for c in census_classes(cfg))))
        return sid


def _letter_tree(policies: tuple, by_letter: list, adversary: Adversary, start: int, robots,
                 mode: Mode, horizon: int, memo: dict, states: _States):
    """``(stalls, hits, escapes)`` of every table's run from the state with id
    ``start``, where ``escapes`` holds ``(tables, round)`` per dispersal.

    A branch holds the tables that agree on every letter read so far, as a
    bit mask over ``policies``, and the letters it has fixed as ``code``:
    bits 2c and 2c + 1 hold class c's letter, its index in ``by_letter[c]``,
    and are set in ``fixed``. Where the state's ``mask`` has a class not in
    ``fixed``, the branch splits by its letter into the non-empty masks of
    ``by_letter``. A branch ends where each of its tables' runs would: at
    dispersal, at a repeat of a state of its walk (ids to rounds, undone on
    backtrack, so each leaf holds its cycle), or at the horizon. ``memo``
    maps (id, ``code & mask``) to the successor's id; a round it lacks is
    played by ``play_round`` with the least table, which must keep ``robots``.
    """
    rows = states.rows
    stalls = hits = 0
    escapes = []
    walk: dict = {}  # the branch's walk: id -> round, in round order
    branches = [(start, 0, (1 << len(policies)) - 1, 0, 0)]
    while branches:
        sid, m, tables, fixed, code = branches.pop()
        while len(walk) > m:
            walk.popitem()
        while True:
            cfg, dispersed, mask = rows[sid]
            if dispersed:
                escapes.append((tables, m))
                break
            if m >= horizon:
                hits += tables.bit_count()
                break
            if sid in walk:
                stalls += tables.bit_count()
                break
            opened = mask & ~fixed
            if opened:
                c = opened.bit_length() - 2  # bits c and c + 1: the last class not fixed
                for letter, agree in enumerate(by_letter[c >> 1]):
                    if tables & agree:
                        branches.append((sid, m, tables & agree, fixed | 3 << c,
                                         code | letter << c))
                break
            walk[sid] = m
            key = (sid, code & mask)
            sid = memo.get(key)
            if sid is None:
                policy = policies[(tables & -tables).bit_length() - 1]
                cfg, settled, trace = play_round(policy, adversary, cfg, mode, robots)
                if settled != robots:
                    raise RuntimeError(f"{policy.policy_id} changed a robot's hand or memory")
                sid = memo[key] = states.intern(cfg, trace.metrics_after.dispersed)
            m += 1
    return stalls, hits, escapes


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
    memory and its ``after_move`` is ``Policy``'s), which ``_letter_tree``
    checks on every round it plays. The rule and the adversary are
    deterministic functions of the state, so a state has one orbit per
    table, and a repeated state proves an infinite stall. Each start is
    walked once for all tables (``_letter_tree``), a walk splitting by a
    class's letter where it first meets the class; states are interned.

    One round memo serves every table of the call: a round is played once
    per (state, letters), whichever table reaches it, where ``letters`` are
    the table's letters for the state's census classes, coded as indices in
    ``by_letter`` (built from each table's ``table``), and the memo
    maps the state's id and that code to the successor's id. This is sound
    because, against a deterministic adversary, a table's round is a
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

    A run disperses if it does within ``horizon`` rounds, is a proven stall
    if it first repeats a state before the ``horizon``-th round, and is a
    horizon hit otherwise; dispersals are listed by table, then by start.
    A sweep over no start or no table proves nothing, so either is refused,
    and so is a horizon below 1 round, at which every start is a hit.
    """
    policies = tuple(all_no_visibility_policies() if policies is None else policies)
    if starts is None:
        starts = [cfg for cfg in enumerate_initial_configs(n, up_to_reflection=False)
                  if adversary_start_filter(adversary, cfg)]
    starts = tuple(starts)
    adversary.check_scenario(n, mode)
    if type(horizon) is not int or horizon < 1:
        raise ScenarioError(f"horizon must be an int of at least 1 round, got {horizon!r}")
    if not starts:
        raise ScenarioError(f"no start to check for adversary {adversary.adversary_id} on n={n}")
    if not policies:
        raise ScenarioError(f"no table to check against adversary {adversary.adversary_id}")
    if any(start.n != n for start in starts):
        raise ScenarioError(f"every start of an impossibility run must have n={n} nodes")
    for start in starts:
        check_intact(start)
        adversary.check_start(start)
    for policy in policies:
        if type(policy) is not NoVisibilityPolicy:
            raise ScenarioError(f"impossibility runs are for zero-visibility tables, "
                                f"not {type(policy).__name__} {policy.policy_id!r}")

    # by_letter[c]: the tables' mask per letter of class c; a letter's code is its index.
    by_letter = []
    for column in zip(*[policy.table for policy in policies]):
        masks: dict = {}
        for bit, letter in enumerate(column):
            masks[letter] = masks.get(letter, 0) | 1 << bit
        by_letter.append(tuple(masks.values()))
    states = _States()
    robots = initial_robots(starts[0])
    memo: dict = {}
    dispersals = []
    proven_infinite = horizon_hits = 0
    start_ids = [states.intern(start, classify(start).dispersed) for start in starts]
    for index, sid in enumerate(start_ids):
        stalls, hits, escapes = _letter_tree(policies, by_letter, adversary, sid, robots,
                                             mode, horizon, memo, states)
        proven_infinite += stalls
        horizon_hits += hits
        dispersals += [(table, index, rounds) for tables, rounds in escapes
                       for table in range(tables.bit_length()) if tables >> table & 1]
    return ImpossibilityReport(
        adversary_id=adversary.adversary_id,
        n=n,
        mode=mode,
        policies_checked=len(policies),
        starts_checked=len(starts),
        dispersals=tuple(Dispersal(policies[table].policy_id, starts[index].slots, rounds)
                         for table, index, rounds in sorted(dispersals)),
        proven_infinite=proven_infinite,
        horizon_hits=horizon_hits,
    )


@functools.lru_cache(maxsize=8)  # the last few ring sizes, as every per-size cache
def _intent_vectors(n: int) -> tuple:
    """``(combo, read-only map of labels 1..n to it)`` per intent vector."""
    combos = itertools.product((Action.STAY, Action.CLOCKWISE, Action.ANTICLOCKWISE), repeat=n)
    return tuple([(combo, MappingProxyType(dict(enumerate(combo, 1)))) for combo in combos])


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

    The adversary is asked once per labelled intent vector, by a read-only
    map of labels 1..n (those of every ring that enters the program) shared
    by every call at one size, so it cannot rewrite the vector it is judged
    by, and is shown the vector's node counts from the start's
    ``moved_counts_table``. Each distinct dynamism it answers is checked
    (``Dynamism.check``), applied and tabled once per call, and vector i is
    judged by entry i of its answer's table: its successor's node counts on
    the ring the answer shapes. A scenario or start the adversary refuses
    (``check_start``), a removed edge, or a ring whose labels are not 1..n
    raises ``ScenarioError`` before any vector is tried.
    """
    adversary.check_scenario(cfg.n, mode)
    check_intact(cfg)
    adversary.check_start(cfg)
    start = refuse_uncovered(moved_counts_table, cfg)
    problems = []
    n = cfg.n
    shaped: dict = {}
    for i, (combo, intents) in enumerate(_intent_vectors(n)):
        dynamism = adversary.choose(AdversaryContext(cfg, mode, None, intents, start[i]))
        perm, edge = dynamism
        # A list and a tuple of one permutation shape one ring. The types of
        # its entries and of the edge are in the key, as True and 1.0 equal
        # 1 but are refused.
        key = (None if perm is None else (*perm, *map(type, perm)), edge, type(edge))
        table = shaped.get(key)
        if table is None:
            dynamism.check(n, mode)
            table = shaped[key] = moved_counts_table(dynamism.apply(cfg))
        counts = table[i]
        if counts.count(1) == n:
            outcome = "dispersed"
        elif neutral_required and not adversary.invariant(counts):
            outcome = f"left shape {counts}"
        else:
            continue
        described = ",".join(a.short for a in combo)
        problems.append(f"intents [{described}] from {cfg} {outcome} via {dynamism}")
    return problems
