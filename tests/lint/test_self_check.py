"""The tree must satisfy its own determinism linter.

This is the gate CI runs (`python -m pytest tests/lint/test_self_check.py`):
the simulator sources, the lint package itself, the benches, the
examples and the tests must all be violation-free (inline suppressions
count as documented exemptions). The one exception is the rule fixture
corpus under `tests/lint/fixtures/`, which exists to fire and which
`test_fixture_corpus_matches_golden_json` pins finding by finding.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_src_tree_is_violation_free():
    violations, files_scanned = lint_paths([REPO_ROOT / "src"])
    assert files_scanned > 50  # the whole package, not a stray subdir
    assert violations == [], "\n" + "\n".join(v.render_text() for v in violations)


def test_benchmarks_are_violation_free():
    violations, files_scanned = lint_paths([REPO_ROOT / "benchmarks"])
    assert files_scanned >= 20
    assert violations == [], "\n" + "\n".join(v.render_text() for v in violations)


def test_examples_are_violation_free():
    violations, _ = lint_paths([REPO_ROOT / "examples"])
    assert violations == [], "\n" + "\n".join(v.render_text() for v in violations)


def test_tests_are_violation_free_outside_the_rule_fixtures():
    violations, files_scanned = lint_paths([REPO_ROOT / "tests"])
    assert files_scanned >= 50
    strays = [v for v in violations if FIXTURES not in Path(v.path).parents]
    assert strays == [], "\n" + "\n".join(v.render_text() for v in strays)
