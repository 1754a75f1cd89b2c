"""The whole-file replay: the tests' oracle for ``dynring replay``.

The trace is decoded in one piece, split into lines and every line parsed
before any round is replayed; then the records are checked in line order,
then the summary, then round 0, and the rounds are replayed. ``cmd_replay``
reads one line at a time and must report exactly what this does: the same
exit code, the same standard output and the same error line.
"""
from __future__ import annotations

import sys

from dynring import RingConfiguration, ScenarioError, classify, ring_from_slots
from dynring.cli import (
    _ROUND_FIELDS,
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_OK,
    _parse_json,
    _record_slots,
    _replay_round,
)


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path} is not UTF-8 text: {exc.reason}") from None


def _read_trace(path: str) -> tuple[list[dict], dict]:
    lines = [_parse_json(text, f"trace line {number}") for number, text
             in enumerate(filter(str.strip, _read_text(path).split("\n")), start=1)]
    if not lines or not isinstance(lines[0], dict) or lines[0].get("round") != 0:
        raise ScenarioError("trace must start with a round 0 record")
    *rounds, summary = lines
    records = []
    for number, line in enumerate(rounds, start=1):
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
        if line["round"] != len(records):
            raise ScenarioError(
                f"trace line {number} is round {line['round']}, expected {len(records)}")
        records.append(line)
    if not (isinstance(summary, dict) and summary.get("summary")):
        raise ScenarioError(f"trace line {len(lines)} is not a summary; a trace ends with one")
    if summary.get("outcome") not in ("dispersed", "round-limit"):
        raise ScenarioError(f"trace summary: outcome {summary.get('outcome')!r} is not "
                            "dispersed or round-limit")
    if type(summary.get("rounds")) is not int:
        raise ScenarioError(f"trace summary: rounds {summary.get('rounds')!r} is not an int")
    return records, summary


def _replay(path: str) -> int:
    records, summary = _read_trace(path)
    for name in ("perm", "edge", "intents"):
        if records[0][name] is not None:
            raise ScenarioError(f"round 0 {name} must be null, got {records[0][name]!r}")
    try:
        cfg = ring_from_slots(_record_slots(records[0]["config"]))
    except ValueError as exc:
        raise ScenarioError(f"round 0 config is not a valid ring: {exc}") from None
    for record in records:
        landed, expected = _replay_round(cfg, record) if record["round"] else (cfg, cfg.slots)
        metrics = classify(landed)
        if (landed.slots != expected or metrics.holes != record["holes"]
                or metrics.multinodes != record["multinodes"]):
            print(f"replay mismatch at round {record['round']}: "
                  f"reconstructed {landed.slots}, trace says {expected}")
            return EXIT_FAIL
        cfg = RingConfiguration(landed.n, landed.slots, None)
    if summary["rounds"] != len(records) - 1:
        print(f"replay mismatch: trace has {len(records) - 1} rounds after round 0, "
              f"summary says {summary['rounds']}")
        return EXIT_FAIL
    dispersed = classify(cfg).dispersed
    if dispersed != (summary["outcome"] == "dispersed"):
        print(f"replay mismatch: final config dispersed={dispersed}, "
              f"summary says {summary['outcome']}")
        return EXIT_FAIL
    print(f"replayed {len(records) - 1} rounds, consistent")
    return EXIT_OK


def whole_file_replay(path: str) -> int:
    """``dynring replay path`` as the whole-file reader runs it."""
    try:
        return _replay(path)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
