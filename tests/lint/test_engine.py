"""Engine-level behaviour: suppressions, walking, error handling, golden JSON."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import LintError, lint_file, lint_paths, lint_source
from repro.lint.engine import iter_python_files

FIXTURES = Path(__file__).parent / "fixtures"


# -- suppressions --------------------------------------------------------------------

def test_same_line_suppression_is_rule_specific():
    src = "import random\nrandom.random()  # reprolint: disable=RPL001\n"
    assert lint_source(src) == []
    # Suppressing a different rule leaves the violation in place.
    src = "import random\nrandom.random()  # reprolint: disable=RPL004\n"
    assert [v.rule for v in lint_source(src)] == ["RPL001"]


def test_bare_disable_suppresses_everything():
    src = "import random\nx = list({1, 2}) or random.random()  # reprolint: disable\n"
    assert lint_source(src) == []


def rules_reported(pragma):
    """Rules still reported on a line that fires RPL001 and RPL004."""
    src = f"import random\nx = list({{1, 2}}) or random.random()  # reprolint: {pragma}\n"
    return sorted(v.rule for v in lint_source(src))


def test_misspelled_rule_list_suppresses_nothing():
    # Neither a lowercase id nor a list without `=` names a rule.
    assert rules_reported("disable=rpl004") == ["RPL001", "RPL004"]
    assert rules_reported("disable RPL004") == ["RPL001", "RPL004"]


def test_rule_list_suppresses_exactly_the_listed_ids():
    assert rules_reported("disable=RPL004") == ["RPL001"]
    assert rules_reported("disable=") == ["RPL001", "RPL004"]


def test_disable_next_line():
    # The retired next-line form suppresses nothing, above the finding
    # or on its line.
    src = (
        "import random\n"
        "# reprolint: disable-next-line=RPL001\n"
        "random.random()\n"
        "random.random()  # reprolint: disable-next-line=RPL001\n"
    )
    assert [v.line for v in lint_source(src)] == [3, 4]


def test_pragma_inside_string_is_not_a_suppression():
    src = (
        "import random\n"
        "note = '# reprolint: disable=RPL001'\n"
        "random.random()\n"
    )
    assert [v.rule for v in lint_source(src)] == ["RPL001"]


def test_multiple_rules_one_pragma():
    src = "import random\nx = list({random.random()})  # reprolint: disable=RPL001,RPL004\n"
    assert lint_source(src) == []


# -- walking & errors ----------------------------------------------------------------

def test_iter_python_files_skips_pycache_and_dedupes(tmp_path):
    (tmp_path / "a.py").write_text("x = 1\n")
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "a.cpython-311.py").write_text("x = 1\n")
    files = list(iter_python_files([tmp_path, tmp_path / "a.py"]))
    assert files == [tmp_path / "a.py"]


def test_lint_paths_counts_files(tmp_path):
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "bad.py").write_text("import random\nrandom.random()\n")
    violations, count = lint_paths([tmp_path])
    assert count == 2
    assert [v.rule for v in violations] == ["RPL001"]


def test_missing_path_raises():
    with pytest.raises(LintError):
        lint_paths([FIXTURES / "does_not_exist"])


def test_syntax_error_raises_lint_error(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    with pytest.raises(LintError):
        lint_file(broken)


# -- golden JSON over the fixture corpus ---------------------------------------------

def test_fixture_corpus_matches_golden_json(request):
    """Every fixture violation, as JSON, pinned against a golden file.

    Rebless after a deliberate rule change with::

        PYTHONPATH=src python -m pytest tests/lint -q --regen-golden
    """
    violations = []
    for path in sorted(FIXTURES.rglob("*.py")):
        rel = path.relative_to(FIXTURES).as_posix()
        violations.extend(v.as_json() for v in lint_file(path, display=rel))
    violations.sort(key=lambda v: (v["path"], v["line"], v["col"], v["rule"]))
    golden = FIXTURES / "golden.json"
    if request.config.getoption("--regen-golden"):
        golden.write_text(
            json.dumps({"violations": violations}, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {golden.name}")
    assert violations == json.loads(golden.read_text())["violations"]
