"""Tests for the command-line interface."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import SCENARIOS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.scenario == "dynamic_rgg"
        assert args.seed == 1
        assert args.path_encoding == "explicit"

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "mystery"])

    def test_compare_methods_default(self):
        args = build_parser().parse_args(["compare"])
        assert "dophy" in args.methods


class TestCommands:
    def test_list_scenarios(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_run_small(self, capsys):
        rc = main(
            ["run", "--scenario", "line", "--nodes", "4", "--duration", "40",
             "--seed", "2", "--min-samples", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "decode failures" in out
        assert "1->0" in out

    def test_run_compressed_path(self, capsys):
        rc = main(
            ["run", "--scenario", "line", "--nodes", "4", "--duration", "30",
             "--path-encoding", "compressed", "--min-samples", "5"]
        )
        assert rc == 0
        assert "bits/pkt" in capsys.readouterr().out

    def test_compare_small(self, capsys):
        rc = main(
            ["compare", "--scenario", "line", "--nodes", "4", "--duration", "60",
             "--methods", "dophy,tree_ratio", "--min-samples", "5"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "dophy" in out and "tree_ratio" in out

    def test_compare_unknown_method(self, capsys):
        rc = main(
            ["compare", "--scenario", "line", "--methods", "dophy,telepathy"]
        )
        assert rc == 2
        assert "unknown methods" in capsys.readouterr().err

    def test_nodes_flag_applies(self, capsys):
        rc = main(
            ["run", "--scenario", "static_rgg", "--nodes", "12",
             "--duration", "30", "--min-samples", "1"]
        )
        assert rc == 0
        assert "12 nodes" in capsys.readouterr().out


def _set_first_hop_field(field, value):
    def edit(record, max_attempts):
        record["hops"][0][field] = value(max_attempts)
        return record

    return edit


def _drop(key):
    return lambda record, max_attempts: {k: v for k, v in record.items() if k != key}


#: Packet-line edits the sink cannot use, each as (name, edit(record,
#: max_attempts) -> record or raw line).
_UNUSABLE_LINES = [
    ("attempts-past-range", _set_first_hop_field(2, lambda max_attempts: max_attempts + 2)),
    ("str-sender", _set_first_hop_field(0, lambda max_attempts: "x")),
    ("no-seqno", _drop("seqno")),
    ("json-list", lambda record, max_attempts: "[1, 2]"),
    ("truncated-json", lambda record, max_attempts: '{"type": "packet",'),
]


class TestServe:
    def test_trace_with_an_impossible_hop_leaves_no_state(self, tmp_path):
        """A packet line the sink cannot use (a delivered hop past the
        MAC's attempt range, a non-integer sender, a missing key, a line
        that is not a JSON object) is refused while the trace loads: the
        process exits non-zero naming the line, before it creates the
        state directory that every later --resume would replay the bad
        record from."""
        trace = tmp_path / "run.jsonl"
        rc = main(
            ["run", "--scenario", "line", "--nodes", "6", "--duration", "120",
             "--seed", "1", "--save-trace", str(trace)]
        )
        assert rc == 0
        recorded = trace.read_text().splitlines()
        max_attempts = json.loads(recorded[0])["max_attempts"]
        index = max(
            i for i, line in enumerate(recorded[1:], start=1)
            if json.loads(line)["delivered_at"] is not None
        )
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        for name, edit in _UNUSABLE_LINES:
            lines = list(recorded)
            edited = edit(json.loads(lines[index]), max_attempts)
            lines[index] = edited if isinstance(edited, str) else json.dumps(edited)
            trace.write_text("\n".join(lines) + "\n")
            state = tmp_path / f"state-{name}"
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "serve", "--trace", str(trace),
                 "--state-dir", str(state), "--merge-every", "1"],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode != 0, name
            assert not state.exists(), name
            assert f"line {index + 1}:" in proc.stderr, (name, proc.stderr)
