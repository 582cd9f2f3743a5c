"""Per-rule positive/negative coverage for reprolint.

Each RPL rule gets at least one fixture file full of violations and one
that must come back clean; a handful of inline-source cases pin down the
trickier resolution behaviour (aliases, scoping, seeded constructors).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import lint_file, lint_source

FIXTURES = Path(__file__).parent / "fixtures"


def rules_in(path: Path) -> set:
    return {v.rule for v in lint_file(path)}


# -- fixture files: one positive and one negative per rule ---------------------------

@pytest.mark.parametrize(
    "fixture, rule",
    [
        ("rpl001_bad.py", "RPL001"),
        ("core/rpl002_bad.py", "RPL002"),
        ("rpl003_bad.py", "RPL003"),
        ("rpl004_bad.py", "RPL004"),
        ("rpl005_bad.py", "RPL005"),
    ],
)
def test_positive_fixture_flags_only_its_rule(fixture, rule):
    found = rules_in(FIXTURES / fixture)
    assert found == {rule}


@pytest.mark.parametrize(
    "fixture",
    [
        "rpl001_ok.py",
        "rpl002_ok_bench.py",
        "rpl003_ok.py",
        "rpl004_ok.py",
        "rpl005_ok.py",
        "suppressed_ok.py",
    ],
)
def test_negative_fixture_is_clean(fixture):
    assert lint_file(FIXTURES / fixture) == []


# -- RPL001: alias resolution and seeding -------------------------------------------

def test_rpl001_numpy_alias_spellings():
    src = "import numpy\nnumpy.random.shuffle([1, 2])\n"
    assert [v.rule for v in lint_source(src)] == ["RPL001"]
    src = "import numpy.random as npr\nnpr.randint(3)\n"
    assert [v.rule for v in lint_source(src)] == ["RPL001"]


def test_rpl001_seeded_constructors_allowed():
    src = (
        "import numpy as np\n"
        "a = np.random.default_rng(7)\n"
        "b = np.random.default_rng(seed=7)\n"
        "c = np.random.PCG64(1)\n"
    )
    assert lint_source(src) == []


def test_rpl001_unseeded_random_instance():
    assert [v.rule for v in lint_source("import random\nr = random.Random()\n")] == [
        "RPL001"
    ]
    assert lint_source("import random\nr = random.Random(42)\n") == []


# -- RPL002: scope is sim paths only -------------------------------------------------

def test_rpl002_scoped_by_path():
    for src in ("import time\nt = time.time()\n", "import os\nos.urandom(4)\n"):
        for path in ("src/repro/net/sim.py", "src/repro/stream/x.py", "core/x.py"):
            assert [v.rule for v in lint_source(src, path)] == ["RPL002"], path
        assert lint_source(src, "benchmarks/bench_x.py") == []
        assert lint_source(src, "anywhere.py") == []


# -- RPL003: boundary-crossing callables ---------------------------------------------

def test_rpl003_lambda_keyword_into_boundary_call():
    src = "run_replicated(scenario, approaches, extract=lambda o, r: o)\n"
    assert [v.rule for v in lint_source(src)] == ["RPL003"]


def test_rpl003_event_callbacks_not_flagged():
    # Same-process scheduling callbacks are outside this rule's scope.
    src = "sim.after(0.0, lambda: None)\n"
    assert lint_source(src) == []


def test_rpl003_registry_subscript_assignment():
    src = "SCENARIOS = {}\nSCENARIOS['x'] = lambda: 1\n"
    assert [v.rule for v in lint_source(src)] == ["RPL003"]


# -- RPL004 --------------------------------------------------------------------------

def test_rpl004_sorted_wrapping_is_clean():
    assert lint_source("x = list(sorted({3, 1, 2}))\n") == []
    assert [v.rule for v in lint_source("x = list({3, 1, 2})\n")] == ["RPL004"]


# -- RPL005 --------------------------------------------------------------------------

def test_rpl005_lambda_defaults_flagged():
    assert [v.rule for v in lint_source("f = lambda x=[]: x\n")] == ["RPL005"]


def test_rpl005_unfrozen_dataclass_body_not_flagged():
    # Plain dataclasses already reject mutable defaults at runtime; the
    # class-attribute arm of RPL005 targets frozen specs specifically.
    src = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class C:\n"
        "    x: int = 0\n"
    )
    assert lint_source(src) == []


def test_violation_fields_and_ordering():
    src = "import random\nrandom.seed(1)\nrandom.random()\n"
    first, second = lint_source(src, "m.py")
    assert (first.path, first.line, first.rule) == ("m.py", 2, "RPL001")
    assert second.line == 3
    assert "m.py:2:" in first.render_text()
