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


class TestServe:
    def test_trace_with_an_impossible_hop_leaves_no_state(self, tmp_path):
        """A delivered hop past the MAC's attempt range is refused while
        the trace loads: the process exits non-zero naming the line, and
        no manifest is written that every later --resume would replay
        the bad record from."""
        trace = tmp_path / "run.jsonl"
        rc = main(
            ["run", "--scenario", "line", "--nodes", "6", "--duration", "120",
             "--seed", "1", "--save-trace", str(trace)]
        )
        assert rc == 0
        lines = trace.read_text().splitlines()
        max_attempts = json.loads(lines[0])["max_attempts"]
        index = max(
            i for i, line in enumerate(lines[1:], start=1)
            if json.loads(line)["delivered_at"] is not None
        )
        record = json.loads(lines[index])
        record["hops"][0][2] = max_attempts + 2
        lines[index] = json.dumps(record)
        trace.write_text("\n".join(lines) + "\n")

        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        state = tmp_path / "state"
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--trace", str(trace),
             "--state-dir", str(state), "--merge-every", "1"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode != 0
        assert not (state / "sink.manifest").exists()
        assert f"line {index + 1}:" in proc.stderr
