"""``dynring replay`` reads a trace one line at a time.

Its reports must match the whole-file reader's (``whole_file_replay``) on
traces with one and with two defects, and its memory must not grow with
the number of rounds in the trace.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import tracemalloc

import pytest

from dynring.cli import main
from whole_file_replay import whole_file_replay

# Runs whose traces the corpus is cut from: dispersed runs in every mode,
# a round-limit run, and one trace longer than a read buffer (8 KiB).
BASE_RUNS = {
    "vp": ("--n", "4", "--policy", "vp-chain", "--mode", "vp", "--adversary", "random",
           "--seed", "2"),
    "combined": ("--n", "6", "--policy", "no-chir-1i", "--mode", "combined",
                 "--adversary", "random", "--orientations", "random", "--seed", "7"),
    "1i": ("--n", "5", "--policy", "vp-1i", "--mode", "1i", "--adversary", "random",
           "--config", "random", "--seed", "3"),
    "round-limit": ("--n", "4", "--policy", "k0:ssssss", "--config", "random", "--seed", "1",
                    "--max-rounds", "4"),
    "long": ("--n", "20", "--policy", "vp-1i", "--mode", "combined", "--adversary", "random",
             "--seed", "11"),
}


def _outcome(replay, path) -> tuple:
    """Exit code, standard output and standard error of one replay."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = replay(path)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def base_traces(tmp_path_factory) -> dict[str, list[bytes]]:
    """Each base run's trace as its lines, without line ends."""
    folder = tmp_path_factory.mktemp("base")
    traces = {}
    for name, flags in BASE_RUNS.items():
        path = folder / f"{name}.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", *flags, "--out", str(path)]) in (0, 2)
        traces[name] = path.read_bytes().splitlines()
    assert len(b"\n".join(traces["long"])) > 8192
    return traces


def _edit(line: bytes, change) -> bytes:
    """``line`` with its record edited by ``change``; a line an earlier
    defect made into something ``change`` cannot edit is left as it is."""
    try:
        record = json.loads(line)
        change(record)
    except (AttributeError, IndexError, KeyError, StopIteration, TypeError, ValueError):
        return line
    return json.dumps(record, sort_keys=True).encode()


def _move_robot(record):
    """Moves the first robot of the first occupied slot one node on."""
    config = record["config"]
    node = next(i for i, slot in enumerate(config) if slot)
    config[(node + 1) % len(config)].append(config[node].pop(0))


def _turn_intent(record):
    intents = record["intents"] or {"1": "stay"}
    label = sorted(intents)[0]
    intents[label] = {"stay": "cw", "cw": "acw", "acw": "stay"}.get(intents[label], "stay")
    record["intents"] = intents


def _tamper_round_0(rng):
    return rng.choice([
        lambda r: r.update(perm=list(range(len(r["config"])))),
        lambda r: r.update(edge=0),
        lambda r: r.update(intents={"1": "stay"}),
        lambda r: r.update(config=[len(r["config"])]),
        lambda r: r.update(holes=r["holes"] + 1),
    ])


DEFECTS = (
    "bad-json", "bad-utf8-late", "bad-byte-anywhere", "truncated-utf8-at-end", "drop", "swap",
    "duplicate", "move-summary", "double-summary", "round-0-field", "tamper-config",
    "tamper-intent", "tamper-round", "tamper-summary", "blank-line", "crlf", "not-an-object",
    "unreplayable",
)


def _defect(rng: random.Random, lines: list[bytes]) -> tuple[str, list[bytes]]:
    """One defect, drawn by ``rng``, and the lines it leaves."""
    lines = list(lines)
    last = len(lines) - 1
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    body = rng.randrange(1, last) if last > 1 else 0
    kind = rng.choice(DEFECTS)
    if kind == "bad-json":
        lines[i] = lines[i][:rng.randrange(len(lines[i]))]
    elif kind == "bad-utf8-late":
        late = rng.randrange(len(lines) // 2, len(lines))
        cut = rng.randrange(len(lines[late]) + 1)
        bad = rng.choice([b"\xff", b"\xe4", b"\xc3(", b"\xed\xa0\x80"])
        lines[late] = lines[late][:cut] + bad + lines[late][cut:]
    elif kind == "bad-byte-anywhere":
        data = b"\n".join(lines)
        at = rng.randrange(len(data))
        lines = (data[:at] + b"\x80" + data[at:]).split(b"\n")
    elif kind == "truncated-utf8-at-end":
        lines[last] += b"\xe2\x82"
    elif kind == "drop":
        del lines[i]
    elif kind == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "move-summary":
        lines.insert(i, lines.pop())
    elif kind == "double-summary":
        lines.insert(i, lines[-1])
    elif kind == "round-0-field":
        lines[0] = _edit(lines[0], _tamper_round_0(rng))
    elif kind == "tamper-config":
        lines[body] = _edit(lines[body], _move_robot)
    elif kind == "tamper-intent":
        lines[body] = _edit(lines[body], _turn_intent)
    elif kind == "tamper-round":
        lines[body] = _edit(lines[body], lambda r: r.update(round=r["round"] + 1))
    elif kind == "tamper-summary":
        lines[last] = _edit(lines[last], rng.choice([
            lambda r: r.update(rounds=r["rounds"] + 1),
            lambda r: r.update(outcome="round-limit" if r["outcome"] == "dispersed"
                               else "dispersed"),
            lambda r: r.update(outcome="banana"),
            lambda r: r.pop("rounds"),
        ]))
    elif kind == "blank-line":
        lines.insert(i, rng.choice([b"", b"   ", b"\t"]))
    elif kind == "crlf":
        lines = [line + b"\r" for line in lines]
    elif kind == "not-an-object":
        lines[i] = rng.choice([b"[1]", b"7", b"null", b'"round"'])
    else:
        lines[body] = _edit(lines[body], rng.choice([
            lambda r: r.update(perm=[0] * len(r["config"])),
            lambda r: r.update(edge="x"),
            lambda r: r["intents"].update({"1": "up"}),
        ]))
    return kind, lines


def test_streaming_replay_reports_what_the_whole_file_reader_reports(tmp_path, base_traces):
    """400 seeded traces, half with one defect and half with two."""
    rng = random.Random(2026)
    path = tmp_path / "trace.jsonl"
    seen_codes, kinds = set(), set()
    for index in range(400):
        name = rng.choice(sorted(base_traces))
        lines, applied = base_traces[name], []
        for _ in range(1 + index % 2):
            kind, lines = _defect(rng, lines)
            applied.append(kind)
        path.write_bytes(b"\n".join(lines) + rng.choice([b"\n", b""]))
        expected = _outcome(whole_file_replay, str(path))
        assert _outcome(lambda p: main(["replay", p]), str(path)) == expected, (
            index, name, applied)
        seen_codes.add(expected[0])
        kinds.update(applied)
    assert seen_codes == {0, 1, 2}
    assert kinds == set(DEFECTS)


def test_clean_traces_replay_alike(tmp_path, base_traces):
    path = tmp_path / "trace.jsonl"
    for name, lines in base_traces.items():
        path.write_bytes(b"\n".join(lines) + b"\n")
        expected = _outcome(whole_file_replay, str(path))
        assert expected[0] == 0, name
        assert _outcome(lambda p: main(["replay", p]), str(path)) == expected


@pytest.mark.parametrize("lines,message", [
    # A bad line late in the file outranks a round that failed before it.
    (lambda t: [t[0], _edit(t[1], _move_robot), *t[2:-1], b"{", t[-1]],
     "trace line {last} is not valid JSON"),
    # A byte that is not UTF-8 late in the file outranks a bad line early on.
    (lambda t: [b"{", *t[1:-1], t[-1] + b"\xff"], "is not UTF-8 text: invalid start byte"),
    # A record of the wrong shape after a failed round outranks it.
    (lambda t: [t[0], _edit(t[1], _move_robot), *t[2:-1], b"[1]", t[-1]],
     "trace line {last} is not a JSON object"),
    # A bad summary outranks a failed round.
    (lambda t: [t[0], _edit(t[1], _move_robot), *t[2:-1],
                _edit(t[-1], lambda r: r.update(outcome="banana"))],
     "trace summary: outcome 'banana' is not dispersed or round-limit"),
])
def test_a_bad_line_anywhere_outranks_a_failed_round(tmp_path, base_traces, lines, message):
    trace = base_traces["long"]
    edited = lines(trace)
    path = tmp_path / "trace.jsonl"
    path.write_bytes(b"\n".join(edited) + b"\n")
    code, out, err = _outcome(lambda p: main(["replay", p]), str(path))
    assert (code, out) == (1, "")
    assert message.format(last=len(edited) - 1) in err and err.count("\n") == 1, err


def test_a_trace_whose_only_line_is_a_summary_is_refused(tmp_path, base_traces):
    """The whole-file reader took such a line for both the round 0 record and
    the summary, and failed with an ``IndexError``."""
    start = json.loads(base_traces["vp"][0])
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps({**start, "summary": True, "outcome": "dispersed",
                                "rounds": 0}) + "\n")
    assert _outcome(lambda p: main(["replay", p]), str(path)) == (
        1, "", "error: trace must start with a round 0 record\n")


def _replay_peak(path) -> int:
    """Peak bytes allocated by Python while ``dynring replay`` reads ``path``."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["replay", str(path)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_replay_memory_does_not_grow_with_the_round_count(tmp_path):
    paths = {}
    for rounds in (40, 400):
        paths[rounds] = tmp_path / f"{rounds}.jsonl"
        assert main(["run", "--policy", "k0:ssssss", "--adversary", "benign", "--mode", "none",
                     "--config", "random", "--n", "64", "--seed", "1",
                     "--max-rounds", str(rounds),
                     "--out", str(paths[rounds])]) == 2
    assert paths[400].stat().st_size > 9 * paths[40].stat().st_size
    _replay_peak(paths[40])  # first calls fill caches that later replays share
    short, long = _replay_peak(paths[40]), _replay_peak(paths[400])
    assert long < 1.5 * short, (short, long)
