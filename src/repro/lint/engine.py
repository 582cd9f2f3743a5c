"""File walking, suppression handling and rule dispatch for reprolint.

Every rule is per-file and syntactic, so linting is one pass per file:
parse, build the :class:`~repro.lint.rules.LintContext`, run each rule
and drop the findings a pragma suppresses.

A finding is reported on one line, and a pragma comment on that same
line suppresses it. Pragmas are parsed from real COMMENT tokens (via
:mod:`tokenize`) so the marker text inside a string literal never
disables anything:

* ``# reprolint: disable=RPL001,RPL004`` suppresses exactly the listed
  rule ids;
* a bare ``# reprolint: disable`` suppresses every rule.

A comment that is neither form (``disable RPL001``, a leftover
``disable-next-line=…``) suppresses nothing, and neither does a listed
id that names no rule, so a mistyped pragma leaves its finding reported.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.rules import ALL_RULES, SIM_PATH_SEGMENTS, LintContext
from repro.lint.violation import Violation

__all__ = ["LintError", "lint_source", "lint_file", "lint_paths", "iter_python_files"]

#: ``disable`` or ``disable=<ids>``, then at most a trailing comment.
_PRAGMA = re.compile(r"#\s*reprolint:\s*disable(?:\s*=(?P<rules>[^#]*))?\s*(?:#.*)?$")

#: Sentinel meaning "every rule" in a suppression set.
_ALL = "*"


class LintError(RuntimeError):
    """A file could not be linted (I/O or syntax error)."""


def _suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of suppressed rule ids (or ``{"*"}``)."""
    out: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - parse
        return out  # ast.parse will raise a proper error for the caller
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _PRAGMA.search(tok.string)
        if match is None:
            continue
        rules = match.group("rules")
        ids = {_ALL} if rules is None else {r.strip() for r in rules.split(",")}
        out.setdefault(tok.start[0], set()).update(ids)
    return out


def lint_source(source: str, path: str = "<string>") -> List[Violation]:
    """Lint one module's source text; returns sorted violations.

    RPL002 applies when ``core``, ``net``, ``workloads``, ``exec`` or
    ``stream`` is a segment of ``path``.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc.msg} (line {exc.lineno})") from exc
    in_sim_path = not SIM_PATH_SEGMENTS.isdisjoint(Path(path).parts)
    ctx = LintContext(path=path, in_sim_path=in_sim_path)
    suppressed = _suppressions(source)
    found: List[Violation] = []
    for rule_cls in ALL_RULES:
        for violation in rule_cls().check(tree, ctx):
            rules_off = suppressed.get(violation.line, ())
            if _ALL in rules_off or violation.rule in rules_off:
                continue
            found.append(violation)
    return sorted(found)


def lint_file(path: Union[str, Path], display: Optional[str] = None) -> List[Violation]:
    """Lint one file (``display`` overrides the reported path)."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise LintError(f"{p}: cannot read: {exc}") from exc
    return lint_source(source, display or str(p))


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterable[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates: Iterable[Path] = sorted(p.rglob("*.py"))
        elif p.is_file():
            candidates = [p]
        else:
            raise LintError(f"{p}: no such file or directory")
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(paths: Sequence[Union[str, Path]]) -> Tuple[List[Violation], int]:
    """Lint every ``.py`` under ``paths``; returns (violations, files seen)."""
    violations: List[Violation] = []
    files = 0
    for file_path in iter_python_files(paths):
        violations.extend(lint_file(file_path))
        files += 1
    return sorted(violations), files
