"""End-to-end tests of the command line front end."""
from __future__ import annotations

import csv
import gc
import io
import json
import tracemalloc
from dataclasses import asdict

import pytest

from dynring import Dynamism, Mode, get_policy, initial_robots, ring_from_slots, step
from dynring.adversaries import _identity, _indices
from dynring.cli import (
    ExperimentSpec,
    _label_keys,
    _record_slots,
    main,
    parse_int_range,
    trace_record,
    write_jsonl,
)
from dynring.scheduler import _all_stay


def run_cli(*argv):
    return main(list(argv))


# ----------------------------------------------------------------- plumbing


def test_spec_survives_json_round_trip():
    spec = ExperimentSpec(n=6, policy="vp-1i", adversary="random", mode="combined",
                          k=3, config="random", orientations="random", seed=42,
                          max_rounds=11)
    assert ExperimentSpec.from_json(spec.to_json()) == spec


def test_size_ranges_parse():
    assert parse_int_range("4") == [4]
    assert parse_int_range("2,3,5") == [2, 3, 5]
    assert parse_int_range("3..9:2") == [3, 5, 7, 9]
    assert parse_int_range("2..4") == [2, 3, 4]
    with pytest.raises(ValueError):
        parse_int_range("x")


# --------------------------------------------------------------------- runs


def test_run_writes_a_replayable_trace(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    code = run_cli("run", "--n", "5", "--policy", "vp-chain", "--mode", "vp",
                   "--adversary", "random", "--seed", "5", "--out", str(out))
    assert code == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["round"] == 0 and lines[0]["config"] == [[1, 2, 3, 4, 5], [], [], [], []]
    assert lines[-1]["summary"] and lines[-1]["outcome"] == "dispersed"
    body = lines[1:-1]
    assert [r["round"] for r in body] == list(range(1, len(body) + 1))
    assert all(len(r["perm"]) == 5 for r in body)

    assert run_cli("replay", str(out)) == 0
    assert "consistent" in capsys.readouterr().out


def test_a_jsonl_line_is_what_json_dumps_writes():
    """``write_jsonl`` keeps one encoder that skips the cycle check, and
    writes each record as ``json.dumps(record, sort_keys=True)`` does."""
    cfg = ring_from_slots(((1, 2), (3,), (), (4,)))
    _, _, trace = step(get_policy("vp-1i"), cfg, initial_robots(cfg), Dynamism((2, 3, 0, 1), 0))
    played = trace_record(1, trace)
    assert played["perm"] == [2, 3, 0, 1] and played["edge"] == 0
    assert set(played["intents"].values()) == {"stay", "cw"}
    spec = ExperimentSpec(n=4, policy="vp-1i", adversary="random", mode="combined", seed=7)
    summary = {"summary": True, "outcome": "dispersed", "rounds": 1, "violations": 0,
               "spec": asdict(spec)}
    for record in (trace_record(0, cfg), played, summary):
        line = io.StringIO()
        write_jsonl(record, line)
        assert line.getvalue() == json.dumps(record, sort_keys=True) + "\n"


@pytest.mark.parametrize("config", [None, [1, 2], [[1], "x"], [[1], {}]])
def test_a_record_config_must_be_an_array_of_arrays(config):
    with pytest.raises(ValueError) as refused:
        _record_slots(config)
    assert str(refused.value) == f"config must be an array of arrays, got {config!r}"


def test_run_is_byte_deterministic(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    argv = ("run", "--n", "6", "--policy", "vp-1i", "--mode", "combined",
            "--adversary", "random", "--config", "random", "--seed", "123")
    assert run_cli(*argv, "--out", str(first)) == 0
    assert run_cli(*argv, "--out", str(second)) == 0
    assert first.read_bytes() == second.read_bytes()


def test_run_reports_round_limit_with_failure_code(tmp_path):
    out = tmp_path / "stall.jsonl"
    code = run_cli("run", "--n", "3", "--policy", "k0:ssssss", "--max-rounds", "4",
                   "--out", str(out))
    assert code == 2
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["outcome"] == "round-limit" and summary["rounds"] == 4


def test_run_rejects_unknown_policy(capsys):
    assert run_cli("run", "--n", "4", "--policy", "mystery") == 1
    assert "error:" in capsys.readouterr().err


def test_run_accepts_a_spec_file(tmp_path):
    spec = ExperimentSpec(n=4, policy="even4", mode="combined",
                          adversary="random", seed=3)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    out = tmp_path / "run.jsonl"
    assert run_cli("run", "--spec", str(spec_path), "--out", str(out)) == 0
    summary = json.loads(out.read_text().splitlines()[-1])
    assert summary["spec"]["policy"] == "even4" and summary["spec"]["seed"] == 3


def test_run_refuses_scenario_flags_beside_a_spec(tmp_path, capsys):
    """A spec file is the whole scenario: a scenario flag given beside it,
    even at its default, is refused by name rather than silently ignored,
    while ``--out`` and ``--format`` still apply."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(ExperimentSpec(n=4, policy="vp-1i", seed=3).to_json())
    capsys.readouterr()
    assert run_cli("run", "--spec", str(spec_path), "--n", "9", "--policy", "vp-chain",
                   "--seed", "11", "--adversary", "benign") == 1
    assert capsys.readouterr().err == \
        "error: run --spec does not read --n, --policy, --adversary, --seed\n"
    out = tmp_path / "run.csv"
    assert run_cli("run", "--spec", str(spec_path), "--format", "csv", "--out", str(out)) == 0
    assert out.read_text().splitlines()[1].startswith("0,,,,")


def test_run_csv_format(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli("run", "--n", "4", "--policy", "vp-chain", "--seed", "1",
                   "--format", "csv", "--out", str(out)) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["round", "perm", "edge", "intents", "config", "holes", "multinodes"]
    assert rows[1][0] == "0" and rows[1][4] == "1,2,3,4|.|.|."


def test_replay_catches_tampered_traces(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    run_cli("run", "--n", "4", "--policy", "vp-chain", "--mode", "vp",
            "--adversary", "random", "--seed", "2", "--out", str(out))
    lines = out.read_text().splitlines()
    doctored = json.loads(lines[1])
    doctored["config"] = [[1, 2, 3, 4], [], [], []]
    lines[1] = json.dumps(doctored, sort_keys=True)
    out.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(out)) == 2
    assert "mismatch" in capsys.readouterr().out


def test_replay_checks_the_start_census(tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    run_cli("run", "--n", "3", "--policy", "vp-chain", "--seed", "1", "--out", str(out))
    lines = out.read_text().splitlines()
    start = json.loads(lines[0])
    start["holes"] += 1
    lines[0] = json.dumps(start, sort_keys=True)
    out.write_text("\n".join(lines) + "\n")
    assert run_cli("replay", str(out)) == 2
    assert "mismatch at round 0" in capsys.readouterr().out


def test_replay_refuses_a_truncated_trace(tmp_path, capsys):
    """A trace that lost a round record is a mismatch against its summary's
    round count, though every record left replays."""
    out = tmp_path / "run.jsonl"
    assert run_cli("run", "--n", "6", "--policy", "vp-1i", "--adversary", "random",
                   "--mode", "combined", "--config", "random", "--seed", "5",
                   "--max-rounds", "1", "--out", str(out)) == 2
    start, _, summary = out.read_text().splitlines()
    assert json.loads(summary)["outcome"] == "round-limit"
    assert json.loads(summary)["rounds"] == 1
    out.write_text(start + "\n" + summary + "\n")
    capsys.readouterr()
    assert run_cli("replay", str(out)) == 2
    assert capsys.readouterr().out.startswith("replay mismatch")


@pytest.mark.parametrize("flags,error", [
    (("--n", "4", "--policy", "no-chir-1i", "--config", "2,2,0,0"),
     "error: policy no-chir-1i must start with all robots on one node\n"),
    (("--n", "3", "--policy", "k0:ssssss", "--adversary", "vp-killer-n3", "--mode", "vp"),
     "error: vp-killer-n3 cannot keep its invariant from <ring 1,2,3 . .>\n"),
], ids=["preprocess-start", "killer-invariant"])
def test_a_start_refused_in_round_1_writes_nothing(tmp_path, capsys, flags, error):
    """These starts pass every check of the spec, and the run refuses them
    where the start enters, before it hands on the start's record: ``run``
    prints only the error, creates no file and leaves a file already at
    ``--out`` as it was."""
    fresh, kept = tmp_path / "fresh.jsonl", tmp_path / "kept.jsonl"
    kept.write_bytes(b"earlier bytes\n")
    for out in (None, fresh, kept):
        argv = ("run", *flags) if out is None else ("run", *flags, "--out", str(out))
        assert run_cli(*argv) == 1
        assert capsys.readouterr() == ("", error)
    assert not fresh.exists()
    assert kept.read_bytes() == b"earlier bytes\n"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("flags,shown", [
    (("--n", "5", "--policy", "vp-chain", "--mode", "vp", "--adversary", "random",
      "--seed", "2"), "perm"),
    (("--n", "6", "--policy", "vp-1i", "--mode", "1i", "--adversary", "random",
      "--config", "random", "--seed", "3"), "edge"),
    (("--n", "4", "--policy", "k0:ssssss", "--config", "random", "--seed", "1",
      "--max-rounds", "4"), "round-limit"),
])
def test_run_writes_the_same_bytes_to_stdout_and_to_out(tmp_path, capsys, flags, shown, fmt):
    out = tmp_path / f"run.{fmt}"
    code = run_cli("run", *flags, "--format", fmt)
    printed = capsys.readouterr()
    assert run_cli("run", *flags, "--format", fmt, "--out", str(out)) == code
    assert printed.err == "" and printed.out.encode() == out.read_bytes()
    # Each run shows what it stands for: a permutation, a removed edge, or
    # a summary of a run that used up its rounds.
    run_cli("run", *flags, "--format", "jsonl", "--out", str(tmp_path / "check.jsonl"))
    lines = [json.loads(line) for line in (tmp_path / "check.jsonl").read_text().splitlines()]
    if shown == "round-limit":
        assert code == 2 and lines[-1]["outcome"] == "round-limit"
    else:
        assert code == 0 and any(line.get(shown) is not None for line in lines[1:-1])


def _run_peak(argv) -> int:
    """Peak bytes allocated by Python while ``dynring`` runs ``argv``. The
    cycle collector is off meanwhile: when it happens to run moves the peak
    by a third, and garbage a round left in cycles would count as kept."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        assert main(argv) == 2
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_run_memory_does_not_grow_with_the_round_count(tmp_path):
    """``run`` writes each round's record as the round is played and keeps
    no round after it."""
    def argv(rounds):
        return ["run", "--policy", "k0:ssssss", "--adversary", "benign", "--mode", "none",
                "--config", "random", "--n", "64", "--seed", "1",
                "--max-rounds", str(rounds), "--out", str(tmp_path / f"{rounds}.jsonl")]
    _run_peak(argv(40))  # first calls fill caches that later runs share
    short, long = _run_peak(argv(40)), _run_peak(argv(400))
    assert (tmp_path / "400.jsonl").stat().st_size > 9 * (tmp_path / "40.jsonl").stat().st_size
    assert long < 1.5 * short, (short, long)


def test_a_run_leaves_no_garbage_for_the_cycle_collector(tmp_path):
    """A second in-process ``run`` frees all it made by reference counting:
    the parser is built once, not once per call, since an ``argparse``
    parser holds reference cycles."""
    argv = ["run", "--n", "8", "--policy", "vp-chain", "--mode", "vp", "--adversary", "random",
            "--seed", "3", "--out", str(tmp_path / "run.jsonl")]
    assert main(argv) == 0  # first calls fill caches that later runs share
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------------- sweeps


def test_sweep_reports_every_cell(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--n", "3,4", "--policy", "vp-1i", "--mode", "combined",
                   "--adversary", "random", "--trials", "2", "--out", str(out))
    assert code == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    assert {r["n"] for r in rows} == {"3", "4"}
    assert all(r["pass"] == "yes" for r in rows)
    assert all(int(r["rounds"]) <= int(r["bound"]) for r in rows)


def test_sweep_writes_the_same_csv_to_stdout_and_to_out(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ("sweep", "--n", "3,4", "--policy", "vp-1i", "--mode", "combined", "--trials", "2")
    assert run_cli(*argv) == 0
    shown = capsys.readouterr().out
    assert run_cli(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert shown.splitlines()[0] == "n,policy,adversary,seed,rounds,bound,pass"
    assert shown.encode() == out.read_bytes()


def _size_caches_retain(sizes) -> int:
    """Bytes the per-ring-size caches hold, from empty, once a process has
    played rings of ``sizes`` in turn: a round's all-stay intents, the
    identity answer, a permutation check's node set and a record's keys."""
    for cache in (_all_stay, _identity, _indices, _label_keys):
        cache.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for n in sizes:
            _all_stay(n), _identity(n), _label_keys(n)
            Dynamism(tuple(range(n))).check(n, Mode.VP)  # reads _indices(n)
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_sweep_over_many_sizes_keeps_only_the_last_sizes_cached():
    """The sizes of ``sweep --n 8..1024:8`` leave the caches holding no more
    than the last eight of them alone do; unbounded caches held all 128."""
    sizes = range(8, 1025, 8)
    last, every = _size_caches_retain(sizes[-8:]), _size_caches_retain(sizes)
    assert every < 1.25 * last, (every, last)


# ---------------------------------------------------------------- bad input


def _spec_file(tmp_path, **fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 4, "policy": "vp-chain", **fields}))
    return ["run", "--spec", str(path)]


def _edited_trace(tmp_path, change, *run_flags):
    """``replay`` of a ``run`` trace whose list of lines, parsed, ``change``
    edits in place."""
    path = tmp_path / "run.jsonl"
    assert run_cli("run", *run_flags, "--out", str(path)) == 0
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    change(lines)
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return ["replay", str(path)]


def _tampered_trace(tmp_path, change, *run_flags, round_index=1):
    """``replay`` of a ``run`` trace whose line ``round_index`` (the record
    of that round, or -1 for the summary) ``change`` edits."""
    return _edited_trace(tmp_path, lambda lines: change(lines[round_index]), *run_flags)


PERMUTING_RUN = ("--n", "4", "--policy", "vp-chain", "--mode", "vp",
                 "--adversary", "random", "--seed", "2")
EDGE_FREE_RUN = ("--n", "3", "--policy", "vp-1i", "--mode", "1i", "--config", "2,1,0")
GATHERED_RUN = ("--n", "3", "--policy", "vp-chain", "--seed", "1")
ONE_ROUND_RUN = ("--n", "2", "--policy", "vp-chain")
LONG_RUN = ("--n", "10", "--policy", "vp-chain", "--mode", "vp",
            "--adversary", "random", "--seed", "2")


def _raw_file(tmp_path, data: bytes, *argv):
    path = tmp_path / "raw.txt"
    path.write_bytes(data)
    return [*argv, str(path)]


def _relabel_robot_1(label):
    """A record change that writes robot 1's label as ``label``."""
    def change(record):
        record["config"] = [[label if lab == 1 else lab for lab in cell]
                            for cell in record["config"]]
    return change


def _rename_intent(label, written):
    """A record change that writes the intent key of robot ``label`` as ``written``."""
    def change(record):
        record["intents"][written] = record["intents"].pop(label)
    return change


START_RECORD = (b'{"round": 0, "perm": null, "edge": null, "intents": null, '
                b'"config": [[1, 2], []], "holes": 1, "multinodes": 1}\n')
NOT_UTF8 = '{"n": 4, "policy": "vp-chain", "config": "ä"}'.encode("latin-1")
TOO_DEEP = b"[" * 200_000 + b"]" * 200_000
TOO_LONG = b'{"round": 0, "n": ' + b"1" * 5000 + b', "policy": "vp-chain"}'


@pytest.mark.parametrize("make_argv", [
    lambda tmp_path: ["run", "--n", "0", "--policy", "vp-chain"],
    lambda tmp_path: ["run", "--n", "-2", "--policy", "vp-chain"],
    lambda tmp_path: ["sweep", "--n", "x", "--policy", "vp-1i"],
    lambda tmp_path: ["sweep", "--n", "4..2", "--policy", "vp-1i"],
    lambda tmp_path: ["run", "--n", "3", "--policy", "vp-chain", "--config", "1,x,1"],
    lambda tmp_path: ["run", "--n", "2", "--policy", "vp-chain", "--config", "2,2"],
    lambda tmp_path: _spec_file(tmp_path, colour="red"),
    lambda tmp_path: _spec_file(tmp_path, mode="bogus"),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.pop("perm"), *PERMUTING_RUN),
    lambda tmp_path: ["run", "--n", "4", "--policy", "vp-chain", "--max-rounds", "-3"],
    lambda tmp_path: ["verify", "--check", "bound", "--n", "0", "--policy", "vp-chain"],
    lambda tmp_path: ["verify", "--check", "bound", "--n", "-1", "--policy", "vp-chain"],
    lambda tmp_path: ["verify", "--check", "impossibility", "--n", "0",
                      "--adversary", "1i-killer", "--mode", "1i"],
    lambda tmp_path: ["verify", "--check", "impossibility", "--n", "3",
                      "--adversary", "1i-killer", "--mode", "1i", "--horizon", "-1"],
    lambda tmp_path: ["verify", "--check", "impossibility", "--n", "3",
                      "--adversary", "1i-killer", "--mode", "1i", "--horizon", "0"],
    lambda tmp_path: ["run", "--n", "x", "--policy", "vp-chain"],
    lambda tmp_path: ["verify", "--check", "bound", "--n", "3", "--policy", "vp-chain",
                      "--mode", "bogus"],
    lambda tmp_path: ["run", "--n", "4", "--policy", "vp-chain", "--record-views"],
    lambda tmp_path: _spec_file(tmp_path, policy=5),
    lambda tmp_path: _spec_file(tmp_path, config=5),
    lambda tmp_path: _spec_file(tmp_path, orientations=5),
    lambda tmp_path: _spec_file(tmp_path, k="x"),
    lambda tmp_path: _spec_file(tmp_path, adversary=["x"]),
    lambda tmp_path: _spec_file(tmp_path, seed=[1]),
    lambda tmp_path: _spec_file(tmp_path, n=True),
    lambda tmp_path: _raw_file(tmp_path, NOT_UTF8, "run", "--spec"),
    lambda tmp_path: _raw_file(tmp_path, NOT_UTF8, "replay"),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(edge=1.5), *EDGE_FREE_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(edge=True), *EDGE_FREE_RUN),
    lambda tmp_path: _tampered_trace(
        tmp_path, lambda r: r.update(perm=[False if p == 0 else p for p in r["perm"]]),
        *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(
        tmp_path, lambda r: r["intents"].update({"01": r["intents"]["1"]}), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, _rename_intent("1", "+1"), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, _rename_intent("4", " 4 "), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, _rename_intent("10", "1_0"), *LONG_RUN),
    lambda tmp_path: _tampered_trace(
        tmp_path, lambda r: r.update(holes=float(r["holes"])), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(round=17), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, _relabel_robot_1(1.0), *GATHERED_RUN,
                                     round_index=0),
    lambda tmp_path: _tampered_trace(tmp_path, _relabel_robot_1(True), *GATHERED_RUN,
                                     round_index=0),
    lambda tmp_path: _tampered_trace(tmp_path, _relabel_robot_1(1.0), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, _relabel_robot_1(True), *PERMUTING_RUN),
    lambda tmp_path: _raw_file(tmp_path, TOO_DEEP, "run", "--spec"),
    lambda tmp_path: _raw_file(tmp_path, TOO_DEEP, "replay"),
    lambda tmp_path: _raw_file(tmp_path, TOO_LONG, "run", "--spec"),
    lambda tmp_path: _raw_file(tmp_path, TOO_LONG, "replay"),
    lambda tmp_path: ["verify", "--check", "bound", "--n", "3", "--policy", "vp-chain",
                      "--mode", "vp", "--bound", "-1"],
    lambda tmp_path: ["verify", "--check", "impossibility", "--n", "1",
                      "--adversary", "benign"],
    lambda tmp_path: ["verify", "--check", "impossibility", "--n", "3",
                      "--adversary", "1i-killer", "--mode", "1i", "--policy", "vp-1i"],
    lambda tmp_path: ["verify", "--check", "impossibility", "--n", "3",
                      "--adversary", "1i-killer", "--mode", "1i", "--bound", "3"],
    lambda tmp_path: ["verify", "--check", "bound", "--n", "3", "--policy", "vp-chain",
                      "--mode", "vp", "--adversary", "random"],
    lambda tmp_path: ["verify", "--check", "bound", "--n", "3", "--policy", "vp-chain",
                      "--mode", "vp", "--horizon", "5"],
    lambda tmp_path: ["run", "--n", "4", "--policy", "vp-chain", "--k", "1"],
    lambda tmp_path: ["run", "--n", "4", "--policy", "vp-chain", "--k", "9"],
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(rounds=True), *GATHERED_RUN,
                                     round_index=-1),
    lambda tmp_path: _tampered_trace(tmp_path, _rename_intent("1", "\u0661"), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(
        tmp_path, lambda r: r.update(perm=[0.0 if p == 0 else p for p in r["perm"]]),
        *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(intents=[1, 2]),
                                     *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(intents=7), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(perm=7), *PERMUTING_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(config=7), *PERMUTING_RUN),
    lambda tmp_path: ["run", "--n", "3", "--policy", "vp-chain", "--config", "1,1,1,0"],
    lambda tmp_path: ["run", "--policy", "vp-chain"],
    lambda tmp_path: ["run", "--n", "3"],
    lambda tmp_path: ["run", "--n", "3", "--policy", "achiral-odd", "--orientations", "AXR"],
    lambda tmp_path: _raw_file(tmp_path, START_RECORD.replace(b'"round": 0', b'"round": 1'),
                               "replay"),
    lambda tmp_path: _raw_file(tmp_path, START_RECORD + b"[1]\n", "replay"),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.pop("outcome"), *GATHERED_RUN,
                                     round_index=-1),
    lambda tmp_path: _edited_trace(tmp_path, lambda lines: lines.insert(1, lines.pop()),
                                   *ONE_ROUND_RUN),
    lambda tmp_path: _edited_trace(tmp_path, lambda lines: lines.append(
        {**lines[-1], "rounds": 7}), *ONE_ROUND_RUN),
    lambda tmp_path: _tampered_trace(tmp_path, lambda r: r.update(outcome="banana"),
                                     *ONE_ROUND_RUN, round_index=-1),
    lambda tmp_path: _edited_trace(tmp_path, lambda lines: lines.pop(), *ONE_ROUND_RUN),
    lambda tmp_path: _spec_file(tmp_path) + ["--n", "9"],
    lambda tmp_path: _spec_file(tmp_path) + ["--seed", "11"],
    lambda tmp_path: _spec_file(tmp_path) + ["--mode", "none"],
], ids=["run-n-0", "run-n-negative", "sweep-n-not-a-number", "sweep-n-empty-range",
        "config-not-a-number", "config-wrong-total", "spec-unknown-key", "spec-unknown-mode",
        "replay-missing-perm", "run-max-rounds-negative", "verify-bound-n-0",
        "verify-bound-n-negative", "verify-impossibility-n-0", "verify-horizon-negative",
        "verify-horizon-0", "run-n-not-a-number", "verify-mode-unknown",
        "run-unknown-flag", "spec-policy-not-a-string", "spec-config-not-a-string",
        "spec-orientations-not-a-string", "spec-k-not-an-integer", "spec-adversary-a-list",
        "spec-seed-a-list", "spec-n-a-bool", "spec-not-utf8", "replay-not-utf8",
        "replay-edge-not-an-integer", "replay-edge-a-bool", "replay-perm-entry-a-bool",
        "replay-intent-label-repeated", "replay-intent-label-signed",
        "replay-intent-label-spaced", "replay-intent-label-underscored",
        "replay-holes-a-float", "replay-round-skipped",
        "replay-start-label-a-float", "replay-start-label-a-bool", "replay-label-a-float",
        "replay-label-a-bool", "spec-nested-too-deep", "replay-nested-too-deep",
        "spec-integer-too-long", "replay-integer-too-long", "verify-bound-negative",
        "verify-impossibility-no-start", "verify-impossibility-with-policy",
        "verify-impossibility-with-bound", "verify-bound-with-adversary",
        "verify-bound-with-horizon", "run-k-below-rule", "run-k-above-n",
        "replay-summary-rounds-a-bool", "replay-intent-label-non-ascii-digit",
        "replay-perm-entry-a-float", "replay-intents-an-array", "replay-intents-a-number",
        "replay-perm-a-number", "replay-config-a-number", "config-wrong-node-count",
        "run-without-n", "run-without-policy", "run-orientations-bad-letters",
        "replay-first-line-not-round-0", "replay-line-not-an-object",
        "replay-summary-without-outcome", "replay-summary-before-a-round",
        "replay-second-summary", "replay-summary-outcome-unknown", "replay-summary-missing",
        "run-spec-with-n", "run-spec-with-seed", "run-spec-with-default-mode"])
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


@pytest.mark.parametrize("field,value", [
    ("intents", [1, 2]), ("intents", ["1", "2"]), ("intents", 7), ("intents", "12"),
    ("perm", 7), ("perm", {"0": 1}), ("config", 7), ("config", [1, 2, 1, 0]),
    ("intents", {"1": 5, "2": "stay", "3": "stay", "4": "stay"}),
    ("intents", {"1": [1], "2": "stay", "3": "stay", "4": "stay"}),
])
def test_replay_names_a_field_of_the_wrong_shape(tmp_path, capsys, field, value):
    """A round record whose intents are no object, or whose perm or config
    is no array, is refused with a line that names the field; an intent that
    is no action letter, with a line that names its robot."""
    argv = _tampered_trace(tmp_path, lambda r: r.update({field: value}), *PERMUTING_RUN)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: round 1 cannot be replayed: ") and err.count("\n") == 1
    if field == "intents" and isinstance(value, dict):
        named = f"intent of robot 1 must be one of stay, cw, acw, got {value['1']!r}"
    else:
        named = f"{field} must be an"
    assert named in err, err


@pytest.mark.parametrize("field,value,named", [
    ("config", [1, 2, 3, 4], "round 0 config is not a valid ring: config must be an array"),
    ("perm", [1, 0, 2, 3], "round 0 perm must be null, got [1, 0, 2, 3]"),
    ("edge", 1, "round 0 edge must be null, got 1"),
    ("intents", {"1": "stay"}, "round 0 intents must be null"),
])
def test_replay_checks_round_0_as_run_writes_it(tmp_path, capsys, field, value, named):
    """Round 0 is the start: its config is an array of arrays of labels, and
    it has no perm, edge or intents."""
    argv = _tampered_trace(tmp_path, lambda r: r.update({field: value}), *PERMUTING_RUN,
                           round_index=0)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}") and err.count("\n") == 1, err


def test_replay_checks_the_final_outcome(tmp_path, capsys):
    """A trace whose summary calls a dispersed run a round-limit run is a
    mismatch."""
    argv = _tampered_trace(tmp_path, lambda r: r.update(outcome="round-limit"), *GATHERED_RUN,
                           round_index=-1)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().out == (
        "replay mismatch: final config dispersed=True, summary says round-limit\n")


def test_run_reads_one_hand_letter_per_robot(tmp_path):
    """``--orientations`` letters give robot i the hand of letter i: the
    trace records them, and each assignment plays other rounds."""
    rounds = set()
    for hands in ("AAA", "ARA", "ARR"):
        path = tmp_path / f"{hands}.jsonl"
        assert run_cli("run", "--n", "3", "--policy", "no-chir-1i",
                       "--orientations", hands, "--out", str(path)) == 0
        lines = path.read_text().splitlines()
        assert json.loads(lines[-1])["spec"]["orientations"] == hands
        assert run_cli("replay", str(path)) == 0
        rounds.add(tuple(lines[1:-1]))
    assert len(rounds) == 3


def test_zero_visibility_rules_accept_k_zero(capsys):
    # The run is valid and stalls against the adaptive adversary: exit 2, not 1.
    assert run_cli("run", "--n", "3", "--policy", "k0:scascs", "--adversary", "vp-killer-n3",
                   "--mode", "vp", "--config", "2,1,0", "--k", "0", "--max-rounds", "5") == 2
    assert capsys.readouterr().err == ""


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert "--policy" in capsys.readouterr().out


# ------------------------------------------------------------ verification


def test_verify_bound_subcommand(capsys):
    assert run_cli("verify", "--check", "bound", "--policy", "vp-chain",
                   "--n", "3", "--mode", "vp") == 0
    assert "holds=yes" in capsys.readouterr().out
    assert run_cli("verify", "--check", "bound", "--policy", "vp-chain",
                   "--n", "3", "--mode", "vp", "--bound", "1") == 2
    assert "holds=no" in capsys.readouterr().out
    # Zero stays a valid bound: a one-node ring starts dispersed.
    assert run_cli("verify", "--check", "bound", "--policy", "vp-chain",
                   "--n", "1", "--mode", "vp", "--bound", "0") == 0
    assert "bound=0 worst=0.0 states=0 holds=yes" in capsys.readouterr().out


def test_verify_impossibility_subcommand(capsys):
    code = run_cli("verify", "--check", "impossibility", "--n", "3",
                   "--adversary", "vp-killer-n3", "--mode", "vp", "--horizon", "60")
    assert code == 0
    out = capsys.readouterr().out
    assert "dispersals=0" in out and "horizon-hits=0" in out


def test_verify_impossibility_exits_2_while_runs_are_undecided(capsys):
    """A run that reaches the horizon is neither a dispersal nor a proven
    stall, so the check proves nothing and fails; one line counts such runs.
    With the default horizon every 1i-killer run at n=3 is a proven stall."""
    verify = ("verify", "--check", "impossibility", "--n", "3", "--adversary", "1i-killer",
              "--mode", "1i")
    assert run_cli(*verify, "--horizon", "1") == 2
    out = capsys.readouterr().out
    assert "stalled-forever=0 horizon-hits=2187 dispersals=0\n" in out
    assert out.endswith("\n  undecided: horizon-hits=2187 horizon=1\n")
    assert run_cli(*verify, "--horizon", "2") == 2
    assert "stalled-forever=189 horizon-hits=1998 dispersals=0\n" in capsys.readouterr().out
    assert run_cli(*verify) == 0
    out = capsys.readouterr().out
    assert "stalled-forever=2187 horizon-hits=0 dispersals=0\n" in out and "undecided" not in out


def test_verify_requires_matching_flags(capsys):
    assert run_cli("verify", "--check", "bound", "--n", "3") == 1
    assert run_cli("verify", "--check", "impossibility", "--n", "3") == 1
    capsys.readouterr()
