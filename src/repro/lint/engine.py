"""File walking, suppression handling and rule dispatch for reprolint.

Every rule is per-file and syntactic, so linting is one pass per file:
parse, build the :class:`~repro.lint.rules.LintContext`, run each rule
and drop the findings a pragma suppresses.

Suppressions are pragma comments, parsed from real COMMENT tokens (via
:mod:`tokenize`) so the marker text inside a string literal never
disables anything:

* ``# reprolint: disable=RPL001`` — suppress the listed rule(s) on this
  line (comma-separated; bare ``disable`` suppresses every rule);
* ``# reprolint: disable-next-line=RPL002`` — same, for the following
  *logical statement* (chains: a stack of ``disable-next-line`` comments
  all apply to the first statement after them).  For a decorated
  ``def``/``class`` the suppression covers the decorators and the
  signature; for a multi-line statement it covers every line of the
  statement.
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

_PRAGMA = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable(?:-next-line)?)\s*(?:=\s*(?P<rules>[A-Z0-9,\s]+))?"
)

#: Sentinel meaning "every rule" in a suppression set.
_ALL = "*"


class LintError(RuntimeError):
    """A file could not be linted (I/O or syntax error)."""


def _statement_extents(tree: ast.Module) -> List[Tuple[int, int]]:
    """``(start, end)`` line spans of every statement, decorators included.

    For function/class definitions the span stops at the signature (the
    line before the first body statement): a pragma on a ``def`` should
    cover its decorators, arguments and defaults, not the whole body.
    """
    extents: List[Tuple[int, int]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(start, min(d.lineno for d in decorators))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            end = node.body[0].lineno - 1 if node.body else node.lineno
            end = max(end, node.lineno)
        else:
            end = node.end_lineno or node.lineno
        extents.append((start, end))
    return extents


def _suppressions(source: str, tree: Optional[ast.Module] = None) -> Dict[int, Set[str]]:
    """Map line number -> set of suppressed rule ids (or ``{"*"}``)."""
    out: Dict[int, Set[str]] = {}
    pending: Set[str] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - parse
        return out  # ast.parse will raise a proper error for the caller
    anchors: Dict[int, Set[str]] = {}  # first-code-line -> pending rule ids
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            match = _PRAGMA.search(tok.string)
            if match is None:
                continue
            rules = match.group("rules")
            ids = (
                {r.strip() for r in rules.split(",") if r.strip()}
                if rules
                else {_ALL}
            )
            if match.group("kind") == "disable-next-line":
                pending |= ids
            else:
                out.setdefault(tok.start[0], set()).update(ids)
        elif tok.type in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                          tokenize.DEDENT):
            continue
        elif pending:
            # First code token after a disable-next-line stack.
            anchors.setdefault(tok.start[0], set()).update(pending)
            pending = set()
    if not anchors:
        return out
    extents = _statement_extents(tree) if tree is not None else []
    for anchor_line, ids in anchors.items():
        # Expand the anchor to the logical statement(s) starting there,
        # so the pragma covers decorated defs and multi-line statements.
        expanded = False
        for start, end in extents:
            if start == anchor_line:
                expanded = True
                for line in range(start, end + 1):
                    out.setdefault(line, set()).update(ids)
        if not expanded:
            out.setdefault(anchor_line, set()).update(ids)
    return out


def default_sim_path(path: Union[str, Path]) -> bool:
    """Is this file part of the simulation paths RPL002 protects?"""
    return not SIM_PATH_SEGMENTS.isdisjoint(Path(path).parts)


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    in_sim_path: Optional[bool] = None,
) -> List[Violation]:
    """Lint one module's source text; returns sorted violations.

    ``in_sim_path`` defaults to a path-segment check (``core``, ``net``,
    ``workloads``, ``exec`` or ``stream`` anywhere in the path).
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError(f"{path}: cannot parse: {exc.msg} (line {exc.lineno})") from exc
    if in_sim_path is None:
        in_sim_path = default_sim_path(path)
    ctx = LintContext(path=path, in_sim_path=in_sim_path)
    suppressed = _suppressions(source, tree)
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
