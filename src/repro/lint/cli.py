"""Command-line front end: ``python -m repro.lint [paths...]``.

Exit status: 0 — clean; 1 — violations reported; 2 — usage, I/O or
syntax error (a file the linter cannot even parse is a build problem,
not a determinism finding).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.lint.engine import LintError, lint_paths
from repro.lint.rules import RULE_DOCS

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="reprolint: static determinism/picklability checks "
        "(rules RPL001-RPL005; see DESIGN.md §'Static guarantees').",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (e.g. `src benchmarks`)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule_id, summary in sorted(RULE_DOCS.items()):
            print(f"{rule_id}  {summary}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (and --list-rules not requested)", file=sys.stderr)
        return 2
    try:
        violations, files_scanned = lint_paths(args.paths)
    except LintError as exc:
        print(f"reprolint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        report = {
            "violations": [v.as_json() for v in violations],
            "files_scanned": files_scanned,
            "clean": not violations,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for violation in violations:
            print(violation.render_text())
        status = "clean" if not violations else f"{len(violations)} violation(s)"
        print(f"reprolint: {files_scanned} file(s) scanned, {status}")
    return 1 if violations else 0
