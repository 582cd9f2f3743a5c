"""The RPL rule set: AST checks behind ``python -m repro.lint``.

Each rule is a module-level class with a ``rule_id``, a one-line
``summary`` and a ``check(tree, ctx)`` generator yielding
:class:`~repro.lint.violation.Violation`. Rules are deliberately
*syntactic*: they flag the patterns that have actually bitten this repo
(see DESIGN.md §"Static guarantees"), not everything a sound
whole-program analysis could prove. False positives are handled with
``# reprolint: disable=RPLxxx`` at the offending line.

The import-resolution helper tracks ``import x as y`` aliases and
``from x import y`` bindings per module, so ``np.random.seed`` is caught
under any spelling (``numpy.random.seed``, ``from numpy import random``,
``from numpy.random import seed``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type

from repro.lint.violation import Violation

__all__ = ["ALL_RULES", "RULE_DOCS", "LintContext", "Rule"]

#: Path segments that mark a file as simulation-path code for RPL002.
SIM_PATH_SEGMENTS = frozenset({"core", "net", "workloads", "exec", "stream"})

# ``random`` module functions that mutate/consume the hidden global stream.
_PY_RANDOM_GLOBAL = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gammavariate",
        "gauss", "getrandbits", "getstate", "lognormvariate", "normalvariate",
        "paretovariate", "randbytes", "randint", "random", "randrange",
        "sample", "seed", "setstate", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)

# Legacy ``numpy.random`` module-level functions backed by global state.
_NP_RANDOM_GLOBAL = frozenset(
    {
        "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
        "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
        "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
        "multinomial", "multivariate_normal", "negative_binomial",
        "noncentral_chisquare", "noncentral_f", "normal", "pareto",
        "permutation", "poisson", "power", "rand", "randint", "randn",
        "random", "random_integers", "random_sample", "ranf", "rayleigh",
        "sample", "seed", "set_state", "shuffle", "standard_cauchy",
        "standard_exponential", "standard_gamma", "standard_normal",
        "standard_t", "triangular", "uniform", "vonmises", "wald",
        "weibull", "zipf",
    }
)

# ``numpy.random`` constructors that are deterministic only when seeded.
_NP_SEEDED_CTORS = frozenset(
    {"default_rng", "RandomState", "SeedSequence", "MT19937", "PCG64",
     "PCG64DXSM", "Philox", "SFC64"}
)

# Host-clock callables (module -> banned attribute names) for RPL002.
_CLOCK_FNS: Dict[str, frozenset] = {
    "time": frozenset(
        {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
         "perf_counter_ns", "process_time", "process_time_ns",
         "clock_gettime", "clock_gettime_ns"}
    ),
    "os": frozenset({"urandom", "getrandom"}),
    "uuid": frozenset({"uuid1", "uuid4"}),
}

# Callees whose arguments cross the ParallelRunner process boundary (RPL003).
_BOUNDARY_CALLEES = frozenset(
    {
        "Scenario", "ApproachSpec", "ComparisonTask",
        "run_comparison", "run_replicated", "run_comparisons",
        "register_scenario", "register_approach",
    }
)

# Module-level names whose dict values are scenario/approach registries.
_REGISTRY_NAME_HINTS = ("scenario", "registr", "factor", "approach", "method")

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_CTORS = frozenset({"list", "dict", "set", "bytearray", "defaultdict",
                            "Counter", "OrderedDict", "deque"})


@dataclass
class LintContext:
    """Where a module lives, and what that implies for scoped rules."""

    path: str
    in_sim_path: bool = False


@dataclass
class _Imports:
    """Name-resolution snapshot for one module."""

    #: local alias -> fully dotted module name (``np`` -> ``numpy``).
    modules: Dict[str, str] = field(default_factory=dict)
    #: local name -> (source module, original name) for ``from`` imports.
    names: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    @classmethod
    def collect(cls, tree: ast.AST) -> "_Imports":
        imp = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imp.modules[local] = alias.name if alias.asname else alias.name.split(".")[0]
                    if alias.asname is None and "." in alias.name:
                        # ``import numpy.random`` binds ``numpy``.
                        imp.modules[local] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imp.names[local] = (node.module, alias.name)
        return imp

    def resolve_module(self, node: ast.expr) -> Optional[str]:
        """Dotted module path an expression refers to, if any.

        ``np`` -> ``numpy``; ``np.random`` -> ``numpy.random``; a name
        bound by ``from numpy import random`` -> ``numpy.random``.
        """
        if isinstance(node, ast.Name):
            if node.id in self.modules:
                return self.modules[node.id]
            if node.id in self.names:
                mod, orig = self.names[node.id]
                # Heuristic: ``from numpy import random`` imports a module.
                return f"{mod}.{orig}"
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve_module(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None


def _callee_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _violation(ctx: LintContext, node: ast.AST, rule: str, message: str) -> Violation:
    return Violation(
        path=ctx.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        rule=rule,
        message=message,
    )


class Rule:
    """Base class; subclasses define ``rule_id``/``summary``/``check``."""

    rule_id: str = "RPL000"
    summary: str = ""

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        raise NotImplementedError


class GlobalRngRule(Rule):
    """RPL001 — global or unseeded RNG use.

    Every stochastic draw must come from a ``numpy.random.Generator``
    threaded in as a parameter (``repro.utils.rng.derive_rng`` /
    ``RngRegistry``); hidden module-level streams make results depend on
    call order across the whole process, which breaks replicate
    independence and the jobs=N ≡ jobs=1 contract.
    """

    rule_id = "RPL001"
    summary = "global or unseeded RNG use (thread a seeded Generator instead)"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        imports = _Imports.collect(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # Module-attribute spellings: random.X(...), np.random.X(...).
            if isinstance(func, ast.Attribute):
                base = imports.resolve_module(func.value)
                if base == "random" and func.attr in _PY_RANDOM_GLOBAL:
                    yield _violation(
                        ctx, node, self.rule_id,
                        f"`random.{func.attr}` draws from the process-global "
                        "stream; accept a seeded `numpy.random.Generator` "
                        "parameter instead (see repro.utils.rng)",
                    )
                elif base == "random" and func.attr == "Random" and not node.args:
                    yield _violation(
                        ctx, node, self.rule_id,
                        "`random.Random()` without a seed is entropy-seeded; "
                        "pass an explicit seed or thread a Generator in",
                    )
                elif base == "numpy.random":
                    if func.attr in _NP_RANDOM_GLOBAL:
                        yield _violation(
                            ctx, node, self.rule_id,
                            f"`np.random.{func.attr}` uses numpy's legacy "
                            "global state; use a seeded Generator "
                            "(repro.utils.rng.derive_rng) instead",
                        )
                    elif (
                        func.attr in _NP_SEEDED_CTORS
                        and not node.args
                        and not node.keywords
                    ):
                        yield _violation(
                            ctx, node, self.rule_id,
                            f"`np.random.{func.attr}()` without a seed is "
                            "entropy-seeded and unreproducible; pass an "
                            "explicit seed",
                        )
            # ``from random import randint`` / ``from numpy.random import rand``.
            elif isinstance(func, ast.Name) and func.id in imports.names:
                mod, orig = imports.names[func.id]
                if mod == "random" and orig in _PY_RANDOM_GLOBAL:
                    yield _violation(
                        ctx, node, self.rule_id,
                        f"`{orig}` (from random) draws from the process-global "
                        "stream; thread a seeded Generator in instead",
                    )
                elif mod == "random" and orig == "Random" and not node.args:
                    yield _violation(
                        ctx, node, self.rule_id,
                        "`Random()` without a seed is entropy-seeded; pass an "
                        "explicit seed",
                    )
                elif mod == "numpy.random" and orig in _NP_RANDOM_GLOBAL:
                    yield _violation(
                        ctx, node, self.rule_id,
                        f"`{orig}` (from numpy.random) uses legacy global "
                        "state; use a seeded Generator instead",
                    )
                elif (
                    mod == "numpy.random"
                    and orig in _NP_SEEDED_CTORS
                    and not node.args
                    and not node.keywords
                ):
                    yield _violation(
                        ctx, node, self.rule_id,
                        f"`{orig}()` without a seed is entropy-seeded and "
                        "unreproducible; pass an explicit seed",
                    )


class WallClockRule(Rule):
    """RPL002 — host clocks / entropy inside the simulation paths.

    Simulated time is ``sim.now``; anything derived from the host clock
    (or OS entropy) differs run to run and poisons traces and golden
    outputs. Only enforced under ``core/``, ``net/``,
    ``workloads/``, ``exec/`` and ``stream/`` (:data:`SIM_PATH_SEGMENTS`)
    — benches may legitimately time themselves.
    """

    rule_id = "RPL002"
    summary = "wall-clock/entropy source in a simulation path (use sim.now / seeded rng)"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.in_sim_path:
            return
        imports = _Imports.collect(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                base = imports.resolve_module(func.value)
                banned = _CLOCK_FNS.get(base or "")
                if banned is not None and func.attr in banned:
                    yield _violation(
                        ctx, node, self.rule_id,
                        f"`{base}.{func.attr}` reads host wall-clock/entropy "
                        "inside a simulation path; use sim.now (event time) "
                        "or a seeded rng",
                    )
                    continue
                if base == "secrets" or (base or "").startswith("secrets."):
                    yield _violation(
                        ctx, node, self.rule_id,
                        "`secrets.*` is an OS-entropy source; simulation "
                        "paths must be deterministic",
                    )
                    continue
                if func.attr in {"now", "utcnow", "today"} and self._is_datetime(
                    func.value, imports
                ):
                    yield _violation(
                        ctx, node, self.rule_id,
                        f"`datetime …{func.attr}()` reads the host clock "
                        "inside a simulation path; pass timestamps in "
                        "explicitly or use sim.now",
                    )
            elif isinstance(func, ast.Name) and func.id in imports.names:
                mod, orig = imports.names[func.id]
                banned = _CLOCK_FNS.get(mod)
                if banned is not None and orig in banned:
                    yield _violation(
                        ctx, node, self.rule_id,
                        f"`{orig}` (from {mod}) reads host wall-clock/entropy "
                        "inside a simulation path; use sim.now or a seeded rng",
                    )
                elif mod == "secrets":
                    yield _violation(
                        ctx, node, self.rule_id,
                        "`secrets.*` is an OS-entropy source; simulation "
                        "paths must be deterministic",
                    )
                elif mod == "datetime" and orig in {"datetime", "date"}:
                    # Covered via the Attribute branch when methods are
                    # called on it; a bare ``datetime(...)`` call is fine.
                    pass

    @staticmethod
    def _is_datetime(value: ast.expr, imports: _Imports) -> bool:
        """Does ``value`` denote ``datetime.datetime`` / ``datetime.date``?"""
        if isinstance(value, ast.Name) and value.id in imports.names:
            mod, orig = imports.names[value.id]
            return mod == "datetime" and orig in {"datetime", "date"}
        if isinstance(value, ast.Attribute):
            base = imports.resolve_module(value.value)
            return base == "datetime" and value.attr in {"datetime", "date"}
        return False


class UnpicklableCallableRule(Rule):
    """RPL003 — lambdas/closures crossing the process boundary.

    ``ParallelRunner`` pickles every task to its workers, and pickle
    refers to a callable by its qualified name. A lambda or a function
    defined inside another function has no importable name, so
    pickling fails (or worse, silently resolves to the wrong object).
    Anything stored in a Scenario, ApproachSpec, ComparisonTask or a
    scenario/approach registry must be a module-level callable, a
    ``functools.partial`` of one, or a frozen dataclass instance.
    """

    rule_id = "RPL003"
    summary = "lambda/closure handed to a registry, factory or process boundary"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        yield from self._walk_scope(tree, ctx, local_defs=frozenset())

    def _walk_scope(
        self,
        scope: ast.AST,
        ctx: LintContext,
        local_defs: frozenset,
    ) -> Iterator[Violation]:
        body = getattr(scope, "body", [])
        is_function = isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_function:
            # Functions defined directly in this function's body are
            # closures from any caller's point of view.
            local_defs = local_defs | {
                stmt.name
                for stmt in body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk_scope(stmt, ctx, local_defs)
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._walk_scope(stmt, ctx, local_defs)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield from self._check_call(node, ctx, local_defs)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    yield from self._check_registry_assign(node, ctx, local_defs)

    def _check_call(
        self, node: ast.Call, ctx: LintContext, local_defs: frozenset
    ) -> Iterator[Violation]:
        callee = _callee_name(node.func)
        if callee == "partial":
            values: Sequence[ast.expr] = list(node.args) + [
                kw.value for kw in node.keywords
            ]
            for value in values:
                yield from self._flag_value(
                    value, ctx, local_defs,
                    where="inside functools.partial (the partial itself must "
                          "pickle)",
                )
            return
        if callee not in _BOUNDARY_CALLEES:
            return
        for value in list(node.args) + [kw.value for kw in node.keywords]:
            yield from self._flag_value(
                value, ctx, local_defs, where=f"passed to `{callee}`"
            )

    def _check_registry_assign(
        self,
        node: ast.stmt,
        ctx: LintContext,
        local_defs: frozenset,
    ) -> Iterator[Violation]:
        targets: List[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:
            assert isinstance(node, ast.AnnAssign)
            if node.value is None:
                return
            targets, value = [node.target], node.value
        names = []
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
            elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                names.append(target.value.id)
        if not any(self._is_registry_name(n) for n in names):
            return
        if isinstance(value, ast.Dict):
            for v in value.values:
                if v is not None:
                    yield from self._flag_value(
                        v, ctx, local_defs,
                        where=f"stored in registry `{names[0]}`",
                    )
        else:
            yield from self._flag_value(
                value, ctx, local_defs, where=f"stored in registry `{names[0]}`"
            )

    @staticmethod
    def _is_registry_name(name: str) -> bool:
        lowered = name.lower()
        return any(hint in lowered for hint in _REGISTRY_NAME_HINTS)

    @staticmethod
    def _flag_value(
        value: ast.expr,
        ctx: LintContext,
        local_defs: frozenset,
        *,
        where: str,
    ) -> Iterator[Violation]:
        if isinstance(value, ast.Lambda):
            yield _violation(
                ctx, value, UnpicklableCallableRule.rule_id,
                f"lambda {where}: lambdas do not pickle to pool workers; use "
                "a module-level function or functools.partial of one",
            )
        elif isinstance(value, ast.Name) and value.id in local_defs:
            yield _violation(
                ctx, value, UnpicklableCallableRule.rule_id,
                f"locally-defined function `{value.id}` {where}: its "
                "`<locals>` qualname does not pickle; move it to module level",
            )


class UnorderedMaterializationRule(Rule):
    """RPL004 — set contents materialised into an ordered sequence.

    ``set``/``frozenset`` iteration order depends on insertion history
    and per-type hash layout; once that order is frozen into a ``list``,
    tuple, joined string or list-comprehension it can leak into trace
    files and reports. Wrap the set in ``sorted(...)`` instead.
    """

    rule_id = "RPL004"
    summary = "unordered set materialised without sorted()"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = _callee_name(node.func)
                if (
                    callee in {"list", "tuple", "enumerate"}
                    and isinstance(node.func, ast.Name)
                    and len(node.args) == 1
                    and self._is_setish(node.args[0])
                ):
                    yield _violation(
                        ctx, node, self.rule_id,
                        f"`{callee}(...)` freezes a set's arbitrary iteration "
                        "order into a sequence; use `sorted(...)` so the "
                        "order is deterministic",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                    and len(node.args) == 1
                    and self._is_setish(node.args[0])
                ):
                    yield _violation(
                        ctx, node, self.rule_id,
                        "joining a set concatenates in arbitrary order; join "
                        "`sorted(...)` of it instead",
                    )
            elif isinstance(node, ast.ListComp):
                for gen in node.generators:
                    if self._is_setish(gen.iter):
                        yield _violation(
                            ctx, node, self.rule_id,
                            "list comprehension over a set freezes its "
                            "arbitrary iteration order; iterate "
                            "`sorted(...)` of it instead",
                        )
                        break

    @staticmethod
    def _is_setish(node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"set", "frozenset"}
        return False


class MutableDefaultRule(Rule):
    """RPL005 — mutable defaults (arguments, and dataclass fields).

    A mutable default argument is shared across every call — replicate
    N's state bleeds into replicate N+1, the classic way paired runs
    stop being independent. On a frozen dataclass, a mutable
    class-level default is shared across every *instance*, defeating
    both frozenness and hashability; use
    ``field(default_factory=...)``.
    """

    rule_id = "RPL005"
    summary = "mutable default argument / mutable dataclass field default"

    def check(self, tree: ast.Module, ctx: LintContext) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                for default in list(args.defaults) + [
                    d for d in args.kw_defaults if d is not None
                ]:
                    if self._is_mutable(default):
                        yield _violation(
                            ctx, default, self.rule_id,
                            "mutable default argument is shared across calls; "
                            "default to None (or use a frozen/immutable value)",
                        )
            elif isinstance(node, ast.ClassDef) and self._is_frozen_dataclass(node):
                yield from self._check_dataclass_body(node, ctx)

    def _check_dataclass_body(
        self, node: ast.ClassDef, ctx: LintContext
    ) -> Iterator[Violation]:
        for stmt in node.body:
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            elif isinstance(stmt, ast.Assign):
                value = stmt.value
            if value is None:
                continue
            if self._is_mutable(value):
                yield _violation(
                    ctx, value, self.rule_id,
                    "mutable default on a frozen dataclass field is shared "
                    "across instances; use field(default_factory=...)",
                )
            elif isinstance(value, ast.Call) and _callee_name(value.func) == "field":
                for kw in value.keywords:
                    if kw.arg == "default" and self._is_mutable(kw.value):
                        yield _violation(
                            ctx, kw.value, self.rule_id,
                            "field(default=<mutable>) is shared across "
                            "instances; use field(default_factory=...)",
                        )

    @staticmethod
    def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) and _callee_name(deco.func) == "dataclass":
                for kw in deco.keywords:
                    if (
                        kw.arg == "frozen"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    ):
                        return True
        return False

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(node, _MUTABLE_LITERALS):
            return True
        if isinstance(node, ast.Call):
            callee = _callee_name(node.func)
            return callee in _MUTABLE_CTORS
        return False


ALL_RULES: Tuple[Type[Rule], ...] = (
    GlobalRngRule,
    WallClockRule,
    UnpicklableCallableRule,
    UnorderedMaterializationRule,
    MutableDefaultRule,
)

RULE_DOCS: Dict[str, str] = {rule.rule_id: rule.summary for rule in ALL_RULES}
