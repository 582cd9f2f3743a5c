"""CLI contract: exit codes, JSON/text output, --list-rules."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import main
from repro.lint.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"

#: The stable machine-readable schema CI consumes; adding keys is fine,
#: renaming or removing any of these is a breaking change.
REPORT_KEYS = {"violations", "files_scanned", "clean"}
VIOLATION_KEYS = {"path", "line", "col", "rule", "message"}


def test_clean_path_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "1 file(s) scanned, clean" in out


def test_violations_exit_one_with_locations(capsys):
    assert main([str(FIXTURES / "rpl001_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "RPL001" in out
    assert "rpl001_bad.py:" in out


def test_each_fixture_file_fails_individually():
    """Acceptance criterion: every violation fixture exits non-zero alone."""
    for fixture in (
        "rpl001_bad.py",
        "core/rpl002_bad.py",
        "rpl003_bad.py",
        "rpl004_bad.py",
        "rpl005_bad.py",
    ):
        assert main([str(FIXTURES / fixture)]) == 1, fixture


def test_json_format(capsys):
    assert main(["--format", "json", str(FIXTURES / "rpl004_bad.py")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is False
    assert report["files_scanned"] == 1
    assert {v["rule"] for v in report["violations"]} == {"RPL004"}
    assert {"path", "line", "col", "rule", "message"} <= set(
        report["violations"][0]
    )


def test_json_clean_report(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("x = 1\n")
    assert main(["--format", "json", str(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"violations": [], "files_scanned": 1, "clean": True}


def test_list_rules_covers_all(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.rule_id in out


def test_json_schema_is_stable(capsys):
    assert main(["--format", "json", str(FIXTURES / "rpl001_bad.py")]) == 1
    report = json.loads(capsys.readouterr().out)
    assert REPORT_KEYS <= set(report)
    for violation in report["violations"]:
        assert set(violation) == VIOLATION_KEYS
        assert isinstance(violation["line"], int)
        assert isinstance(violation["col"], int)
    # Deterministic ordering: (path, line, col, rule).
    keys = [
        (v["path"], v["line"], v["col"], v["rule"]) for v in report["violations"]
    ]
    assert keys == sorted(keys)


def test_no_paths_is_usage_error(capsys):
    assert main([]) == 2


def test_unreadable_path_is_exit_two(tmp_path, capsys):
    assert main([str(tmp_path / "missing")]) == 2
    assert "error" in capsys.readouterr().err

