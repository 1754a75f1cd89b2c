"""Command line front end: run, sweep, verify and replay experiments."""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import random
import sys
import typing
from dataclasses import asdict, dataclass, fields

from .adversaries import ADVERSARIES, Dynamism, get_adversary
from .policies import POLICIES, get_policy
from .ring import (
    _SHORT,
    ACTION_FROM_SHORT,
    Mode,
    Orientation,
    RingConfiguration,
    ScenarioError,
    all_on_one,
    classify,
    random_configuration,
    resolve_moves,
    ring_from_multiplicities,
    ring_from_slots,
)
from .scheduler import RoundTrace, RunResult, initial_robots, run_simulation
from .verifier import DEFAULT_HORIZON, verify_impossibility, verify_worst_case

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


@dataclass
class ExperimentSpec:
    """One runnable scenario, serialisable for repeatable experiments."""

    n: int
    policy: str
    adversary: str = "benign"
    mode: str = "none"
    k: int | None = None
    config: str = "all-on-one"
    orientations: str | None = None
    seed: int | None = None
    max_rounds: int | None = None

    def __post_init__(self) -> None:
        # A spec file is the trust boundary: every field must have its
        # declared type (a bool is not an int).
        for name, kind in typing.get_type_hints(ExperimentSpec).items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                expected = kind.__name__ if isinstance(kind, type) else kind
                raise ScenarioError(f"spec field {name} must be {expected}, got {value!r}")
        if self.n < 1:
            raise ScenarioError(f"ring size n must be a positive integer, got {self.n!r}")
        if self.max_rounds is not None and self.max_rounds < 0:
            raise ScenarioError(
                f"max_rounds must be a non-negative integer, got {self.max_rounds!r}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        try:
            return cls(**_parse_json(text, "spec"))
        except TypeError as exc:
            raise ScenarioError(f"bad experiment spec: {exc}") from None


def parse_int_range(text: str) -> list[int]:
    """Sizes like "4", "2,3,5" or "3..17:2" (inclusive, optional step)."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            span, _, step = part.partition(":")
            lo, hi = span.split("..")
            out.extend(range(int(lo), int(hi) + 1, int(step) if step else 1))
        else:
            out.append(int(part))
    return out


def build_config(spec: ExperimentSpec, rng: random.Random) -> RingConfiguration:
    if spec.config == "all-on-one":
        return all_on_one(spec.n)
    if spec.config == "random":
        return random_configuration(spec.n, rng)
    try:
        counts = [int(x) for x in spec.config.split(",")]
    except ValueError:
        raise ScenarioError(f"--config must be 'all-on-one', 'random' or per-node counts, "
                            f"got {spec.config!r}") from None
    if len(counts) != spec.n:
        raise ScenarioError(f"--config lists {len(counts)} nodes but --n is {spec.n}")
    if min(counts) < 0 or sum(counts) != spec.n:
        raise ScenarioError(f"--config counts must be non-negative and sum to {spec.n}")
    return ring_from_multiplicities(counts)


def build_orientations(spec: ExperimentSpec, rng: random.Random) -> dict[int, Orientation]:
    if spec.orientations is None:
        return {label: Orientation.ALIGNED for label in range(1, spec.n + 1)}
    if spec.orientations == "random":
        return {label: rng.choice((Orientation.ALIGNED, Orientation.REVERSED))
                for label in range(1, spec.n + 1)}
    text = spec.orientations
    if len(text) != spec.n or any(ch not in "AR" for ch in text):
        raise ScenarioError(
            f"--orientations needs {spec.n} letters over A/R or 'random', got {text!r}")
    return {label: Orientation(text[label - 1]) for label in range(1, spec.n + 1)}


def execute(spec: ExperimentSpec, on_round=None) -> RunResult:
    """Run ``spec``. ``on_round`` gets the checked start, then each round's
    trace as the round is played (see ``run_simulation``)."""
    try:
        mode = Mode.from_string(spec.mode)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from None
    policy = get_policy(spec.policy)
    adversary = get_adversary(spec.adversary)
    rng = random.Random(spec.seed)
    cfg = build_config(spec, rng)
    robots = initial_robots(cfg, build_orientations(spec, rng))
    if spec.k is not None:  # no rule reads k, but it must fit the ring and the rule
        n, needed = spec.n, policy.min_visibility(spec.n)
        if not 0 <= spec.k <= n:
            raise ScenarioError(f"visibility k={spec.k} must lie in 0..{n}")
        if spec.k < needed:
            raise ScenarioError(f"policy {policy.policy_id} needs visibility k >= {needed} "
                                f"on n={n}, got k={spec.k}")
    return run_simulation(
        policy, adversary, cfg, mode, robots=robots, seed=rng.randrange(2 ** 32),
        max_rounds=spec.max_rounds, on_round=on_round)


# The fields of a round record, in the order a CSV trace gives them.
_ROUND_FIELDS = ("round", "perm", "edge", "intents", "config", "holes", "multinodes")


def trace_record(index: int, played: RingConfiguration | RoundTrace) -> dict:
    """The trace record of round ``index``: round 0's is the start ring, a
    later round's is its trace. A config is its slot tuples, which ``json``
    writes as it writes lists."""
    if isinstance(played, RingConfiguration):
        metrics = classify(played)
        return {"round": index, "perm": None, "edge": None, "intents": None,
                "config": played.slots, "holes": metrics.holes,
                "multinodes": metrics.multinodes}
    perm = played.dynamism.permutation
    intents = played.intents
    return {
        "round": index,
        "perm": None if perm is None else list(perm),
        "edge": played.dynamism.edge_removal,
        "intents": dict(zip(map(str, intents), map(_SHORT.__getitem__, intents.values()))),
        "config": played.config_after.slots,
        "holes": played.metrics_after.holes,
        "multinodes": played.metrics_after.multinodes,
    }


def write_jsonl(record: dict, fh) -> None:
    """One line of a JSONL trace: a round record or the summary."""
    fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_run_csv(record: dict, fh) -> None:
    """One row of a CSV trace, after the header for round 0."""
    writer = csv.writer(fh)
    if record["round"] == 0:
        writer.writerow(_ROUND_FIELDS)
    intents = record["intents"]
    writer.writerow([
        record["round"],
        "" if record["perm"] is None else ";".join(map(str, record["perm"])),
        "" if record["edge"] is None else record["edge"],
        "" if intents is None else "|".join(f"{k}:{v}" for k, v in sorted(intents.items())),
        "|".join(",".join(map(str, cell)) if cell else "." for cell in record["config"]),
        record["holes"],
        record["multinodes"],
    ])


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _parse_json(text: str, where: str):
    """A spec's or trace line's JSON value; input too deep or with an integer
    too long for the parser is a ``ScenarioError`` like other bad JSON."""
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ScenarioError(f"{where} is not valid JSON: {exc}") from None


def cmd_run(args) -> int:
    # ``run``'s scenario flags are the spec's fields and default to None, so
    # a flag given is one that is not None; the spec owns the defaults.
    given = {field.name: getattr(args, field.name) for field in fields(ExperimentSpec)
             if getattr(args, field.name) is not None}
    if args.spec is not None:
        if given:
            flags = ", ".join(f"--{name.replace('_', '-')}" for name in given)
            raise ScenarioError(f"run --spec does not read {flags}")
        spec = ExperimentSpec.from_json(_read_text(args.spec))
    else:
        if args.n is None or args.policy is None:
            raise ScenarioError("run needs --n and --policy (or --spec)")
        spec = ExperimentSpec(**given)
    write = write_jsonl if args.format == "jsonl" else write_run_csv
    sink = None
    index = itertools.count()

    def on_round(played: RingConfiguration | RoundTrace) -> None:
        # The output is opened for the start's record, handed on once the
        # start is checked, so a refused start prints nothing, opens no file.
        nonlocal sink
        if sink is None:
            sink = open(args.out, "w", encoding="utf-8", newline="") if args.out \
                else sys.stdout
        write(trace_record(next(index), played), sink)

    try:
        result = execute(spec, on_round)
        if args.format == "jsonl":
            write({"summary": True, "outcome": result.outcome, "rounds": result.rounds,
                   "violations": len(result.violations), "spec": asdict(spec)}, sink)
    finally:
        if sink is not None and sink is not sys.stdout:
            sink.close()
    if result.violations:
        print(f"error: {len(result.violations)} per-round guarantee violations",
              file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK if result.dispersed else EXIT_FAIL


def _sweep_cell(args, n: int, seed: int) -> tuple:
    spec = ExperimentSpec(
        n=n, policy=args.policy, adversary=args.adversary, mode=args.mode,
        config=args.config, seed=seed, max_rounds=args.max_rounds)
    bound = get_policy(args.policy).proven_bound(n)
    result = execute(spec)
    budget = bound if bound is not None else (args.max_rounds or 4 * n)
    passed = result.dispersed and result.rounds <= budget and not result.violations
    return (n, args.policy, args.adversary, seed, result.rounds,
            "" if bound is None else bound, "yes" if passed else "no")


def cmd_sweep(args) -> int:
    try:
        sizes = parse_int_range(args.n)
    except ValueError as exc:
        raise ScenarioError(f"--n {args.n!r} is not a list of sizes: {exc}") from None
    rows = sorted(_sweep_cell(args, n, seed) for n in sizes for seed in range(args.trials))
    if not rows:
        raise ScenarioError(
            f"sweep has no cells: --n {args.n!r} with --trials {args.trials}")
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["n", "policy", "adversary", "seed", "rounds", "bound", "pass"])
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(row[-1] == "yes" for row in rows) else EXIT_FAIL


# The flags of ``verify`` that each check does not read.
_UNREAD_FLAGS = {"bound": ("adversary", "horizon"), "impossibility": ("policy", "bound")}


def cmd_verify(args) -> int:
    mode = Mode.from_string(args.mode)
    if args.n < 1:
        raise ScenarioError(f"--n must be a positive ring size, got {args.n}")
    ignored = [f"--{name}" for name in _UNREAD_FLAGS[args.check]
               if getattr(args, name) is not None]
    if ignored:
        raise ScenarioError(f"verify --check {args.check} does not read {', '.join(ignored)}")
    if args.check == "bound":
        if args.policy is None:
            raise ScenarioError("verify --check bound needs --policy")
        report = verify_worst_case(get_policy(args.policy), args.n, mode, bound=args.bound)
        print(f"bound-check policy={report.policy_id} n={report.n} mode={mode.value} "
              f"bound={report.bound} worst={report.worst_rounds} "
              f"states={report.states_explored} holds={'yes' if report.holds else 'no'}")
        for key, dynamism, violation in report.lemma_violations[:5]:
            print(f"  guarantee broken: {violation.guarantee}: {violation.detail}")
        if report.worst_root is not None and not report.holds:
            print(f"  worst start: {report.worst_root}")
        return EXIT_OK if report.holds else EXIT_FAIL
    if args.adversary is None:
        raise ScenarioError("verify --check impossibility needs --adversary")
    horizon = DEFAULT_HORIZON if args.horizon is None else args.horizon
    if horizon < 1:
        raise ScenarioError(f"--horizon must be at least 1 round, got {horizon}")
    adversary = get_adversary(args.adversary)
    report = verify_impossibility(adversary, args.n, mode, horizon=horizon)
    print(f"impossibility adversary={report.adversary_id} n={report.n} mode={mode.value} "
          f"policies={report.policies_checked} starts={report.starts_checked} "
          f"stalled-forever={report.proven_infinite} horizon-hits={report.horizon_hits} "
          f"dispersals={len(report.dispersals)}")
    for item in report.dispersals[:5]:
        print(f"  escaped: policy={item.policy_id} start={item.start} round={item.round_index}")
    return EXIT_OK if report.all_blocked else EXIT_FAIL


def _trace_lines(path: str):
    """Each non-blank line of a JSONL trace, parsed, with its number among
    the non-blank lines from 1. A line read is dropped once it is parsed.
    A byte that is not UTF-8 anywhere in the file is reported before a line
    that is not JSON, so after a bad line the rest of the file is decoded."""
    with open(path, encoding="utf-8") as fh:
        try:
            for number, text in enumerate(filter(str.strip, fh), start=1):
                try:
                    line = _parse_json(text.removesuffix("\n"), f"trace line {number}")
                except ScenarioError:
                    for _ in fh:
                        pass
                    raise
                yield number, line
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _check_record(number: int, line, index: int) -> None:
    """That trace line ``number``, which is not the last line, is the record
    of round ``index``: its round, holes and multinodes are plain integers,
    as ``run`` writes them."""
    if not isinstance(line, dict):
        raise ScenarioError(f"trace line {number} is not a JSON object")
    if line.get("summary"):
        raise ScenarioError(f"trace line {number} is a summary, but not the last line")
    missing = [name for name in _ROUND_FIELDS if name not in line]
    if missing:
        raise ScenarioError(f"trace line {number} lacks {', '.join(missing)}")
    for name in ("round", "holes", "multinodes"):
        if type(line[name]) is not int:
            raise ScenarioError(f"trace line {number}: {name} {line[name]!r} is not an int")
    if line["round"] != index:
        raise ScenarioError(f"trace line {number} is round {line['round']}, expected {index}")


def _check_summary(number: int, line) -> None:
    """That trace line ``number``, the last line, is the run's one summary."""
    if not (isinstance(line, dict) and line.get("summary")):
        raise ScenarioError(f"trace line {number} is not a summary; a trace ends with one")
    if line.get("outcome") not in ("dispersed", "round-limit"):
        raise ScenarioError(f"trace summary: outcome {line.get('outcome')!r} is not "
                            "dispersed or round-limit")
    if type(line.get("rounds")) is not int:
        raise ScenarioError(f"trace summary: rounds {line.get('rounds')!r} is not an int")


def _only_ints(values) -> bool:
    """Whether every value is a plain int: a bool or a float passes a range
    or equality test."""
    return set(map(type, values)) <= {int}


def _record_slots(config) -> tuple:
    """A record's config, an array of arrays of int labels, as slot tuples."""
    if not (isinstance(config, list) and all(isinstance(slot, list) for slot in config)):
        raise ValueError(f"config must be an array of arrays, got {config!r}")
    slots = tuple(map(tuple, config))
    if not _only_ints(itertools.chain.from_iterable(slots)):
        raise ValueError(f"config {config!r} must hold integer labels")
    return slots


def _replay_round(cfg: RingConfiguration, record: dict):
    """The configuration a record's dynamism and intents lead to from ``cfg``,
    and the slots the record says they lead to."""
    try:
        perm, edge, labels = record["perm"], record["edge"], record["intents"]
        if not (perm is None or isinstance(perm, list)):
            raise ValueError(f"perm must be an array or null, got {perm!r}")
        expected = _record_slots(record["config"])
        if not isinstance(labels, dict):
            raise ValueError(f"intents must be an object, got {labels!r}")
        dynamism = Dynamism(None if perm is None else tuple(perm), edge)
        dynamism.check(cfg.n, Mode.COMBINED)  # replay reads no mode from the trace
        shaped = dynamism.apply(cfg)
        # Plain decimal labels only: int() also reads "+1", " 4 ", "1_0" and
        # other scripts' digits.
        if not (all(map(str.isdigit, labels)) and "".join(labels).isascii()):
            raise ValueError(f"intent labels {list(labels)!r} must be plain decimals")
        try:
            intents = dict(zip(map(int, labels),
                               map(ACTION_FROM_SHORT.__getitem__, labels.values())))
        except (KeyError, TypeError):
            label, short = next(item for item in labels.items() if type(item[1]) is not str
                                or item[1] not in ACTION_FROM_SHORT)
            raise ValueError(f"intent of robot {label} must be one of "
                             f"{', '.join(ACTION_FROM_SHORT)}, got {short!r}") from None
        if len(intents) != len(labels):
            raise ValueError("two intents name the same robot")
        return resolve_moves(shaped, intents), expected
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"round {record['round']} cannot be replayed: {exc!r}") from None


class _Mismatch(Exception):
    """A trace that replays, but not to the rings and outcome it records."""


def _replay_record(cfg: RingConfiguration | None, record: dict) -> RingConfiguration:
    """The ring after ``record``'s round, replayed from ``cfg``. Round 0 is
    the start itself, with no round played."""
    if record["round"]:
        landed, expected = _replay_round(cfg, record)
    else:
        for name in ("perm", "edge", "intents"):
            if record[name] is not None:
                raise ScenarioError(f"round 0 {name} must be null, got {record[name]!r}")
        try:
            landed = ring_from_slots(_record_slots(record["config"]))
        except ValueError as exc:
            raise ScenarioError(f"round 0 config is not a valid ring: {exc}") from None
        expected = landed.slots
    metrics = classify(landed)
    if (landed.slots != expected or metrics.holes != record["holes"]
            or metrics.multinodes != record["multinodes"]):
        raise _Mismatch(f"replay mismatch at round {record['round']}: "
                        f"reconstructed {landed.slots}, trace says {expected}")
    # ``landed`` came from a checked ring by a checked permutation, a
    # checked edge and an exact intent map.
    return RingConfiguration._trusted(landed.n, landed.slots, None)


def cmd_replay(args) -> int:
    """Replay a trace as it is read, holding only the current record, the
    line after it (the last line is the summary) and the ring. Every line
    is read and checked. A defect ends the replay but not the reading, as
    the report is the first of, in this order: a byte that is not UTF-8 or
    a line that is not JSON; a first line that is no round 0 record; a
    record of the wrong shape; a bad summary; the first round that cannot
    be replayed (exit 1) or replays to another ring (exit 2); a round count
    or outcome the summary gets wrong (exit 2)."""
    lines = _trace_lines(args.trace)
    pending = next(lines, None)
    if pending is None or not isinstance(pending[1], dict) or pending[1].get("round") != 0:
        for _ in lines:  # a line that is not JSON is reported first
            pass
        raise ScenarioError("trace must start with a round 0 record")
    failure = cfg = None
    count = 0  # round records read, round 0 included
    for line in lines:
        (number, record), pending = pending, line
        try:
            _check_record(number, record, count)
        except ScenarioError:
            for _ in lines:
                pass
            raise
        count += 1
        if failure is None:
            try:
                cfg = _replay_record(cfg, record)
            except (ScenarioError, _Mismatch) as exc:
                failure = exc
    number, summary = pending
    _check_summary(number, summary)
    if not count:  # the one line is a summary
        raise ScenarioError("trace must start with a round 0 record")
    try:
        if failure is not None:
            raise failure
        if summary["rounds"] != count - 1:
            raise _Mismatch(f"replay mismatch: trace has {count - 1} rounds after round 0, "
                            f"summary says {summary['rounds']}")
        dispersed = classify(cfg).dispersed
        if dispersed != (summary["outcome"] == "dispersed"):
            raise _Mismatch(f"replay mismatch: final config dispersed={dispersed}, "
                            f"summary says {summary['outcome']}")
    except _Mismatch as exc:
        print(exc)
        return EXIT_FAIL
    print(f"replayed {count - 1} rounds, consistent")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as a ``ScenarioError`` (exit 1, one line), since
    exit 2 means a failed check."""

    def error(self, message):
        raise ScenarioError(message)


@functools.cache  # one parser per process: each build leaves reference cycles
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dynring",
        description="Simulate and verify robot dispersion on dynamic rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_flags(p):
        p.add_argument("--n", type=int, help="ring size (= robot count)")
        p.add_argument("--policy",
                       help=f"decision rule: one of {', '.join(sorted(POLICIES))}, "
                            "or k0:<6 letters over s/c/a> for zero-visibility tables")
        p.add_argument("--adversary", choices=sorted(ADVERSARIES))
        p.add_argument("--mode", choices=[m.value for m in Mode])
        p.add_argument("--k", type=int, help="visibility radius")
        p.add_argument("--config", help="'all-on-one', 'random', or per-node counts like 2,1,0")
        p.add_argument("--orientations", help="one letter (A/R) per label, or 'random'")
        p.add_argument("--seed", type=int)
        p.add_argument("--max-rounds", type=int)

    run = sub.add_parser("run", help="run one scenario and write its trace")
    scenario_flags(run)
    run.add_argument("--spec", default=None, help="JSON experiment spec file")
    run.add_argument("--out", default=None)
    run.add_argument("--format", default="jsonl", choices=["jsonl", "csv"])

    sweep = sub.add_parser("sweep", help="run many seeds across ring sizes")
    sweep.add_argument("--n", required=True,
                       help="sizes: 4 or 2,3,4 or 3..17:2")
    sweep.add_argument("--policy", required=True)
    sweep.add_argument("--adversary", default="random", choices=sorted(ADVERSARIES))
    sweep.add_argument("--mode", default="none", choices=[m.value for m in Mode])
    sweep.add_argument("--config", default="random")
    sweep.add_argument("--trials", type=int, default=10)
    sweep.add_argument("--max-rounds", type=int, default=None)
    sweep.add_argument("--out", default=None)
    sweep.add_argument("--format", default="csv", choices=["csv"])

    verify = sub.add_parser("verify", help="exhaustive bound or impossibility check")
    verify.add_argument("--check", required=True, choices=["bound", "impossibility"])
    verify.add_argument("--n", type=int, required=True)
    verify.add_argument("--policy", default=None)
    verify.add_argument("--adversary", default=None)
    verify.add_argument("--mode", default="none", choices=[m.value for m in Mode])
    verify.add_argument("--bound", type=int, default=None,
                        help="override the bound to check against")
    verify.add_argument("--horizon", type=int, default=None,
                        help=f"rounds a run may take (default {DEFAULT_HORIZON})")

    replay = sub.add_parser("replay", help="re-derive every round of a saved trace")
    replay.add_argument("trace", help="JSONL trace produced by run")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        # Looked up at each call, not kept in the cached parser: the
        # benchmark's tracer wraps ``cmd_run`` and ``cmd_replay`` by name.
        return globals()[f"cmd_{args.command}"](args)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
