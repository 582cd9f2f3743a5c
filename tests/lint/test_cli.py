"""CLI contract: exit codes, JSON/text output, --list-rules, baselines."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import main
from repro.lint.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"
BASELINE = Path(__file__).parent / "baseline.json"

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


# -- baselines -----------------------------------------------------------------------

def test_update_baseline_then_scan_is_clean(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.random()\n")
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--update-baseline", str(baseline)]) == 0
    assert main([str(bad), "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "(1 baselined)" in out


def test_new_violation_beyond_baseline_fails(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.random()\n")
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--update-baseline", str(baseline)]) == 0
    capsys.readouterr()
    bad.write_text("import random\nrandom.random()\nrandom.random()\n")
    assert main([str(bad), "--baseline", str(baseline)]) == 1
    out = capsys.readouterr().out
    # Only the overflow is reported, and it names the later finding.
    assert out.count("RPL001") == 1
    assert "bad.py:3" in out


def test_fixed_violation_never_breaks_the_baseline(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.random()\nrandom.random()\n")
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--update-baseline", str(baseline)]) == 0
    bad.write_text("import random\nrandom.random()\n")
    assert main([str(bad), "--baseline", str(baseline)]) == 0


def test_baseline_json_report_carries_suppression_count(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.random()\n")
    baseline = tmp_path / "baseline.json"
    assert main([str(bad), "--update-baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert main(["--format", "json", str(bad), "--baseline", str(baseline)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["clean"] is True
    assert report["suppressed"] == 1
    assert report["baseline"] == str(baseline)


def test_malformed_baseline_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = 1\n")
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{\"version\": 99}\n")
    assert main([str(bad), "--baseline", str(baseline)]) == 2
    assert "baseline" in capsys.readouterr().err
    assert main([str(bad), "--baseline", str(tmp_path / "missing.json")]) == 2


def test_checked_in_tests_baseline_is_current():
    """`python -m repro.lint tests --baseline tests/lint/baseline.json`
    must pass from the repo root — i.e. the committed baseline matches
    the tree. Regenerate with --update-baseline after deliberate
    changes."""
    repo_root = Path(__file__).parent.parent.parent
    import os

    cwd = os.getcwd()
    os.chdir(repo_root)
    try:
        assert main(["tests", "--baseline", str(BASELINE)]) == 0
    finally:
        os.chdir(cwd)
