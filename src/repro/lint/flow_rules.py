"""Flow-sensitive determinism rules RPL006–RPL010.

These rules run over the project-wide :class:`~repro.lint.callgraph.Project`
the engine attaches to :class:`~repro.lint.rules.LintContext`; with no
project attached (a rule invoked standalone on a bare tree) they emit
nothing rather than guess.

Each has a runtime twin: the fixture that trips the static rule also
produces a divergence or protocol violation under the
:mod:`repro.sanitize` sanitizer (``tests/sanitize/test_rule_runtime_pin.py``),
pinning the static analysis to observable misbehaviour.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

from repro.lint.callgraph import FunctionInfo
from repro.lint.dataflow import (
    APPLY,
    CACHE_FSYNC,
    CACHE_REPLACE,
    CHECKPOINT,
    MANIFEST,
    WAL_APPEND,
    _is_float_accumulation,
    _is_unordered_value,
    _local_unordered_names,
    _rng_names,
    cache_statement_effects,
    draw_calls,
    order_sensitive_params,
    rng_module_globals,
    statement_effects,
    unordered_iter_reason,
)
from repro.lint.rules import LintContext, Rule, _violation
from repro.lint.violation import Violation

__all__ = [
    "RngAliasRule",
    "UnorderedRngFlowRule",
    "EffectOrderRule",
    "SwallowedEvidenceRule",
    "CacheWriteDisciplineRule",
]


def _sequences(body: List[ast.stmt]) -> Iterator[List[ast.stmt]]:
    """Straight-line statement sequences: the body itself plus every
    compound-statement block, recursively (each loop/branch body is
    checked as its own sequence)."""
    yield body
    for stmt in body:
        for block in _blocks(stmt):
            yield from _sequences(block)


def _blocks(stmt: ast.stmt) -> Iterator[List[ast.stmt]]:
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for handler in getattr(stmt, "handlers", []):
        yield list(handler.body)


class RngAliasRule(Rule):
    """RPL006 — one RNG stream aliased across multiple consumers.

    A module-level RNG instance reachable from more than one function is
    a shared stream: whichever consumer draws first shifts every later
    draw of the others. When the consumers are an event-path and an
    array-path (or a fast path and its scalar fallback), draw-order
    parity between them is load-bearing and *cannot* hold — the exact
    failure the two-engine differential suite exists to catch. Thread a
    dedicated ``derive_rng`` substream into each consumer instead.
    """

    rule_id = "RPL006"
    summary = "module-level RNG stream consumed by multiple functions (aliasing)"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        if ctx.project is None or ctx.module is None:
            return
        module = ctx.module
        for name, value in rng_module_globals(module).items():
            consumers = ctx.project.global_consumers(module.name, name)
            if len(consumers) < 2:
                continue
            shown = ", ".join(f"`{f.qualname}`" for f in consumers[:4])
            extra = "" if len(consumers) <= 4 else f" (+{len(consumers) - 4} more)"
            yield _violation(
                ctx, value, self.rule_id,
                f"module-level RNG stream `{name}` is consumed by "
                f"{len(consumers)} functions ({shown}{extra}); a shared "
                "stream couples their draw orders, so engine/fallback "
                "parity cannot hold — derive one substream per consumer "
                "(repro.utils.rng.derive_rng)",
            )


class UnorderedRngFlowRule(Rule):
    """RPL007 — RNG draws / float accumulation under unordered iteration.

    Iterating a set, ``glob`` result or ``os.listdir`` listing fixes no
    order; drawing from an RNG (or accumulating floats, which do not
    reassociate) inside such a loop makes the result depend on hash
    layout or the filesystem. The flow-sensitive half: a function that
    iterates a *parameter* order-sensitively taints its call sites, so
    passing a set literal to it is flagged at the call.
    """

    rule_id = "RPL007"
    summary = "RNG draw or float accumulation inside unordered iteration"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        if ctx.project is None or ctx.module is None:
            return
        module = ctx.module
        for info in module.functions.values():
            yield from self._check_direct_loops(info, ctx)
            yield from self._check_call_sites(info, ctx)

    def _check_direct_loops(
        self, info: FunctionInfo, ctx: LintContext
    ) -> Iterator[Violation]:
        module = info.module
        rng = _rng_names(info)
        local_unordered = _local_unordered_names(info.node, module.imports)
        for node in ast.walk(info.node):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            reason = unordered_iter_reason(node.iter, module.imports, local_unordered)
            if reason is None:
                continue
            body = ast.Module(body=list(node.body), type_ignores=[])
            draw = next(draw_calls(body, rng), None)
            if draw is not None:
                yield _violation(
                    ctx, draw, self.rule_id,
                    f"RNG draw inside iteration over {reason}: the stream "
                    "is consumed in an unstable order, so identical seeds "
                    "yield different results; iterate `sorted(...)`",
                )
                continue
            accum = next(
                (n for n in ast.walk(body) if _is_float_accumulation(n)), None
            )
            if accum is not None:
                yield _violation(
                    ctx, accum, self.rule_id,
                    f"float accumulation inside iteration over {reason}: "
                    "float sums do not reassociate, so the total depends "
                    "on hash/filesystem order; iterate `sorted(...)`",
                )

    def _check_call_sites(
        self, info: FunctionInfo, ctx: LintContext
    ) -> Iterator[Violation]:
        assert ctx.project is not None
        module = info.module
        local_unordered = _local_unordered_names(info.node, module.imports)
        for site in info.calls:
            if site.target is None or site.target not in ctx.project.functions:
                continue
            callee = ctx.project.functions[site.target]
            if callee is info:
                continue
            sensitive = order_sensitive_params(callee)
            if not sensitive:
                continue
            for param, arg in self._bind_args(callee, site.node):
                if param not in sensitive:
                    continue
                if _is_unordered_value(arg, module.imports, local_unordered):
                    yield _violation(
                        ctx, site.node, self.rule_id,
                        f"unordered argument for parameter `{param}` of "
                        f"`{callee.qualname}`, which draws RNG values or "
                        "accumulates floats while iterating it; pass "
                        "`sorted(...)` so the draw order is fixed",
                    )

    @staticmethod
    def _bind_args(
        callee: FunctionInfo, call: ast.Call
    ) -> Iterator[Tuple[str, ast.expr]]:
        params = [
            a.arg
            for a in list(callee.node.args.posonlyargs) + list(callee.node.args.args)
        ]
        if callee.class_name is not None and params and params[0] == "self":
            params = params[1:]
        for i, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if i < len(params):
                yield params[i], arg
        for kw in call.keywords:
            if kw.arg is not None:
                yield kw.arg, kw.value


class EffectOrderRule(Rule):
    """RPL008 — stream effect ordering (must-precede edges).

    The crash-safety argument of ``repro.stream`` (DESIGN §11) rests on
    two dominance relations: a WAL append must precede the estimator
    apply it makes durable (or a crash between them double-counts
    evidence on replay), and the manifest write must precede the shard
    checkpoints it indexes (or resume sees checkpoints the manifest
    does not describe). The rule computes each statement's transitive
    effect set over the call graph and flags straight-line sequences
    that perform the dependent effect before its prerequisite.
    """

    rule_id = "RPL008"
    summary = "stream effect order: WAL append before apply; manifest before checkpoint"

    #: (late effect, required-earlier effect, explanation)
    _PAIRS: Tuple[Tuple[str, str, str], ...] = (
        (
            APPLY, WAL_APPEND,
            "estimator apply precedes the WAL append that makes the "
            "evidence durable; a crash between them double-counts on "
            "replay — log first, then apply",
        ),
        (
            CHECKPOINT, MANIFEST,
            "checkpoint write precedes the manifest write that indexes "
            "it; resume would see shard state the manifest does not "
            "describe — write the manifest first",
        ),
    )

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        if ctx.project is None or ctx.module is None:
            return
        if "stream" not in Path(ctx.path).parts:
            return
        for info in ctx.module.functions.values():
            for seq in _sequences(list(info.node.body)):
                yield from self._check_sequence(info, seq, ctx)

    def _check_sequence(
        self, info: FunctionInfo, seq: List[ast.stmt], ctx: LintContext
    ) -> Iterator[Violation]:
        assert ctx.project is not None
        effects = [statement_effects(ctx.project, info, stmt) for stmt in seq]
        if not any(effects):
            return
        for late, early, why in self._PAIRS:
            for i, eff_i in enumerate(effects):
                if late not in eff_i or early in eff_i:
                    continue
                if any(early in effects[j] for j in range(i + 1, len(effects))):
                    yield _violation(
                        ctx, seq[i], self.rule_id,
                        f"in `{info.qualname}`: {why}",
                    )
                    break


class SwallowedEvidenceRule(Rule):
    """RPL009 — handlers that swallow evidence without counting it.

    In the stream/exec layers every packet, record and task is
    *evidence*: the estimator's loss counts, the sink's drop stats and
    the supervisor's retry budget all assume nothing disappears
    silently. An ``except`` whose body neither re-raises nor does any
    real work (a bare ``pass``/``continue``) deletes evidence from the
    stats — crash-recovery accounting and the A8-style drop audits stop
    balancing. Count the failure or re-raise; genuinely benign cleanup
    races get a documented pragma.
    """

    rule_id = "RPL009"
    summary = "exception handler in stream/exec swallows evidence without counting"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        parts = set(Path(ctx.path).parts)
        if not parts & {"stream", "exec"}:
            return
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if self._is_silent(node.body):
                caught = (
                    ast.unparse(node.type) if node.type is not None else "Exception"
                )
                yield _violation(
                    ctx, node, self.rule_id,
                    f"`except {caught}` swallows the failure without "
                    "counting it; evidence accounting (drop stats, retry "
                    "budgets, WAL replay) must balance — increment a "
                    "counter, re-raise, or document the benign race with "
                    "a pragma",
                )

    @staticmethod
    def _is_silent(body: List[ast.stmt]) -> bool:
        """True when the handler does nothing observable.

        ``break`` is deliberately not silent: it transfers control to a
        fallback path after the loop, which is handling, not swallowing.
        ``continue`` *is* silent — it skips the record entirely.
        """
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
                continue  # docstring / ellipsis
            return False
        return True


class CacheWriteDisciplineRule(Rule):
    """RPL010 — cache-entry write discipline.

    The content-addressed result store (``exec/cache.py``) promises
    readers that every entry they can open is complete and immutable:
    loads never lock, racing writers converge on identical bytes, and a
    crash can only lose an entry, never corrupt one. Two code shapes break that promise:

    * publishing the entry (``os.replace``/``os.rename``) *before*
      fsyncing its bytes — a crash shortly after the rename can surface
      a truncated entry under the final name;
    * opening an entry for in-place update (``"r+"``, ``"a"``, ``"w"``
      on an existing path) — read-modify-write makes concurrent readers
      see half-rewritten files and breaks the racing-writers-converge
      argument. Entries are write-once: build a temp file, fsync it,
      then ``os.replace`` into place.

    The ordering half reuses the RPL008 machinery over cache-write
    effect summaries; the mode half is syntactic. Scoped to cache-layer
    files (any path segment containing ``cache``).
    """

    rule_id = "RPL010"
    summary = "cache write discipline: fsync before rename-publish; entries immutable"

    #: ``open``/``Path.open`` mode strings that update an entry in place.
    _INPLACE_MARKS = ("+", "a")

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        if not any("cache" in part.lower() for part in Path(ctx.path).parts):
            return
        yield from self._in_place_opens(tree, ctx)
        if ctx.project is None or ctx.module is None:
            return
        for info in ctx.module.functions.values():
            for seq in _sequences(list(info.node.body)):
                yield from self._check_sequence(info, seq, ctx)

    def _in_place_opens(
        self, tree: ast.Module, ctx: LintContext
    ) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            mode = self._open_mode(node)
            if mode is None:
                continue
            if any(mark in mode for mark in self._INPLACE_MARKS):
                yield _violation(
                    ctx, node, self.rule_id,
                    f"cache entry opened {mode!r} for in-place update; "
                    "entries are immutable once published (readers never "
                    "lock, racing writers must converge) — write a temp "
                    "file, fsync, then os.replace into place",
                )

    @staticmethod
    def _open_mode(call: ast.Call) -> "str | None":
        """The constant mode string of an ``open``-style call, if any."""
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            args, mode_pos = call.args, 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            args, mode_pos = call.args, 0
        else:
            return None
        mode: "ast.expr | None" = None
        if len(args) > mode_pos:
            mode = args[mode_pos]
        else:
            mode = next(
                (kw.value for kw in call.keywords if kw.arg == "mode"), None
            )
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return mode.value
        return None

    def _check_sequence(
        self, info: FunctionInfo, seq: List[ast.stmt], ctx: LintContext
    ) -> Iterator[Violation]:
        assert ctx.project is not None
        effects = [cache_statement_effects(ctx.project, info, stmt) for stmt in seq]
        if not any(effects):
            return
        for i, eff_i in enumerate(effects):
            if CACHE_REPLACE not in eff_i or CACHE_FSYNC in eff_i:
                continue
            if any(CACHE_FSYNC in effects[j] for j in range(i + 1, len(effects))):
                yield _violation(
                    ctx, seq[i], self.rule_id,
                    f"in `{info.qualname}`: entry publish (os.replace) "
                    "precedes the fsync that makes its bytes durable; a "
                    "crash in between surfaces a truncated entry under "
                    "the final name — fsync the temp file, then rename",
                )
                break
