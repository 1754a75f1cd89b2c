"""End-to-end tests of the command line front end."""
from __future__ import annotations

import csv
import json

import pytest

from dynring.cli import ExperimentSpec, main, parse_int_range


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
    assert run_cli("replay", str(out)) != 0
    assert "mismatch" in capsys.readouterr().out


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


# ---------------------------------------------------------------- bad input


def _spec_file(tmp_path, **fields):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 4, "policy": "vp-chain", **fields}))
    return ["run", "--spec", str(path)]


def _trace_without_perm(tmp_path):
    path = tmp_path / "run.jsonl"
    assert run_cli("run", "--n", "4", "--policy", "vp-chain", "--mode", "vp",
                   "--adversary", "random", "--seed", "2", "--out", str(path)) == 0
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    del record["perm"]
    lines[1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return ["replay", str(path)]


@pytest.mark.parametrize("make_argv", [
    lambda tmp_path: ["run", "--n", "0", "--policy", "vp-chain"],
    lambda tmp_path: ["run", "--n", "-2", "--policy", "vp-chain"],
    lambda tmp_path: ["sweep", "--n", "x", "--policy", "vp-1i"],
    lambda tmp_path: ["sweep", "--n", "4..2", "--policy", "vp-1i"],
    lambda tmp_path: ["run", "--n", "3", "--policy", "vp-chain", "--config", "1,x,1"],
    lambda tmp_path: ["run", "--n", "2", "--policy", "vp-chain", "--config", "2,2"],
    lambda tmp_path: _spec_file(tmp_path, colour="red"),
    lambda tmp_path: _spec_file(tmp_path, mode="bogus"),
    _trace_without_perm,
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
], ids=["run-n-0", "run-n-negative", "sweep-n-not-a-number", "sweep-n-empty-range",
        "config-not-a-number", "config-wrong-total", "spec-unknown-key", "spec-unknown-mode",
        "replay-missing-perm", "run-max-rounds-negative", "verify-bound-n-0",
        "verify-bound-n-negative", "verify-impossibility-n-0", "verify-horizon-negative",
        "verify-horizon-0", "run-n-not-a-number", "verify-mode-unknown",
        "run-unknown-flag"])
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err


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


def test_verify_impossibility_subcommand(capsys):
    code = run_cli("verify", "--check", "impossibility", "--n", "3",
                   "--adversary", "vp-killer-n3", "--mode", "vp", "--horizon", "60")
    assert code == 0
    out = capsys.readouterr().out
    assert "dispersals=0" in out and "horizon-hits=0" in out


def test_verify_requires_matching_flags(capsys):
    assert run_cli("verify", "--check", "bound", "--n", "3") == 1
    assert run_cli("verify", "--check", "impossibility", "--n", "3") == 1
    capsys.readouterr()
