"""The project rule catalog.

Each rule encodes one invariant the PR 1-6 architecture depends on:

========  ====================================================================
REP101    lock discipline — attributes declared ``# guarded-by: <lock>`` may
          only be touched inside ``with <self>.<lock>:`` (or in functions
          annotated ``# holds-lock: <lock>``, whose callers hold it)
REP102    process-pool picklability — callables handed to a
          ``ProcessPoolExecutor`` must be module-level (importable by the
          child) and must not be lambdas, closures or bound methods
REP103    planner determinism — planner modules may not import clocks or
          randomness, read ``os.environ``, touch the filesystem, or mutate
          module-level state: plans are cached by canonical key, so planning
          must be a pure function of its inputs
REP104    exception discipline — ``except Exception`` (and broader) only in
          boundary modules; core code catches :class:`~repro.errors.ReproError`
          subclasses (a handler that just cleans up and re-raises is fine)
REP105    streaming discipline — streaming functions (``*_iter``,
          ``stream_pairs``, ...) must not materialize ``*_iter`` results with
          ``list``/``sorted``/``set``/``tuple``/``frozenset``
REP106    operator protocol — every physical operator class in the ops module
          is part of the ``PhysicalOp`` union, exported, and dispatched by the
          executor's ``execute``
REP107    typed defs — every function in the package is fully annotated
          (parameters and return), keeping the ``mypy --strict`` gate honest
          even where mypy is not installed
REP108    lock order — the lock-order graph built from ``with`` nesting
          propagated along call edges must be acyclic; a cycle is a
          potential deadlock, reported with the full acquisition path
REP109    planner purity — no impure effect (clock, randomness, env, file
          IO, global mutation) may be *reachable* from a planner function
          through any resolved call chain; the interprocedural arm of the
          module-scoped REP103
========  ====================================================================

REP108 and REP109 (and the caller-aware arm of REP101) are *project* rules:
they run once over the whole-program :class:`~repro.analysis.semantic.model.
SemanticModel` via :meth:`Rule.check_project` instead of per module.

Rules are small AST walks over :class:`~repro.analysis.project.Module`
objects; cross-module rules (REP106) look peers up through the
:class:`~repro.analysis.project.Project`.  Register new rules with
:func:`register`; ``repro lint --rules`` lists the catalog.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import Module, Project

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import AnalysisConfig
    from repro.analysis.semantic.model import SemanticModel

__all__ = ["Rule", "all_rules", "register", "rule_ids"]

_GUARDED_BY = "guarded-by:"
_HOLDS_LOCK = "holds-lock:"


class Rule:
    """One registered invariant check."""

    id: str = ""
    name: str = ""
    description: str = ""
    #: True when :meth:`check_project` needs the semantic model; the engine
    #: builds (or loads from cache) the model only if an active rule asks.
    requires_model: bool = False

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        raise NotImplementedError

    def check_project(
        self,
        project: Project,
        config: "AnalysisConfig",
        model: "SemanticModel",
    ) -> Iterator[Finding]:
        """Whole-program pass, run once after the per-module loop."""
        return iter(())

    def finding(self, module: Module, line: int, message: str) -> Finding:
        return Finding(
            path=module.display_path, line=line, rule=self.id, message=message
        )


_REGISTRY: dict[str, type[Rule]] = {}


def register(rule_class: type[Rule]) -> type[Rule]:
    if not rule_class.id:
        raise ValueError(f"rule {rule_class.__name__} has no id")
    if rule_class.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_class.id}")
    _REGISTRY[rule_class.id] = rule_class
    return rule_class


def all_rules() -> list[Rule]:
    """One instance of every registered rule, in id order."""
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    return sorted(_REGISTRY)


def _comment_tag(comment: str, tag: str) -> str | None:
    """Extract ``<value>`` from a ``# ... <tag> <value>`` comment."""
    if tag not in comment:
        return None
    value = comment.split(tag, 1)[1].strip()
    return value.split()[0] if value else None


def _func_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


# ---------------------------------------------------------------------------
# REP101 — lock discipline
# ---------------------------------------------------------------------------


@register
class LockDisciplineRule(Rule):
    """``# guarded-by: <lock>`` attributes only under ``with ...<lock>:``."""

    id = "REP101"
    name = "lock-discipline"
    description = (
        "attributes annotated '# guarded-by: <lock>' may only be read or "
        "mutated inside a 'with <lock>' block, in __init__/__post_init__, or "
        "in a function annotated '# holds-lock: <lock>' — and every resolved "
        "call site of a holds-lock function must actually hold the lock"
    )
    requires_model = True

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        guarded = self._guarded_attributes(module)
        if not guarded:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node, guarded)

    def check_project(
        self,
        project: Project,
        config: "AnalysisConfig",
        model: "SemanticModel",
    ) -> Iterator[Finding]:
        """Verify ``# holds-lock:`` against every resolved call site: the
        annotation is a promise about callers, so the per-module check
        trusts it and this pass collects the receipts."""
        for site in model.graph.calls:
            callee = model.graph.functions.get(site.callee)
            caller = model.graph.functions.get(site.caller)
            if callee is None or caller is None or not callee.holds_locks:
                continue
            for lock in callee.holds_locks:
                if lock not in site.bare_held:
                    yield Finding(
                        path=caller.display_path,
                        line=site.line,
                        rule=self.id,
                        message=(
                            f"call to '{callee.qualname}' (annotated "
                            f"'# holds-lock: {lock}') from '{caller.qualname}' "
                            f"without holding '{lock}' — the annotation "
                            "promises every caller already holds it"
                        ),
                    )

    @staticmethod
    def _guarded_attributes(module: Module) -> dict[str, str]:
        """``attribute name -> lock name`` declared anywhere in the module.

        Declarations are recognized on ``self.<attr> = ...`` statements and
        on class-body (ann-)assignments carrying a ``# guarded-by: <lock>``
        comment; attribute names are private in practice, so one module-wide
        namespace keeps the rule simple and catches friend access from
        module-level helper functions too.
        """
        guarded: dict[str, str] = {}
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            lock = _comment_tag(module.comment_on(node.lineno), _GUARDED_BY)
            if lock is None:
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Attribute):
                    guarded[target.attr] = lock
                elif isinstance(target, ast.Name):
                    guarded[target.id] = lock
        return guarded

    def _check_function(
        self,
        module: Module,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        guarded: dict[str, str],
    ) -> Iterator[Finding]:
        if func.name in ("__init__", "__post_init__"):
            return
        held: set[str] = set()
        for line in (func.lineno, getattr(func.body[0], "lineno", func.lineno)):
            declared = _comment_tag(module.comment_on(line), _HOLDS_LOCK)
            if declared is not None:
                held.add(declared)
        yield from self._walk(module, func.body, guarded, frozenset(held))

    def _walk(
        self,
        module: Module,
        body: list[ast.stmt],
        guarded: dict[str, str],
        held: frozenset[str],
    ) -> Iterator[Finding]:
        for statement in body:
            yield from self._walk_statement(module, statement, guarded, held)

    def _walk_statement(
        self,
        module: Module,
        statement: ast.stmt,
        guarded: dict[str, str],
        held: frozenset[str],
    ) -> Iterator[Finding]:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function does not run under the enclosing with-block.
            yield from self._check_function(module, statement, guarded)
            return
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            acquired = set(held)
            for item in statement.items:
                acquired |= self._locks_in(item.context_expr)
            for item in statement.items:
                yield from self._check_expr(module, item.context_expr, guarded, held)
            yield from self._walk(module, statement.body, guarded, frozenset(acquired))
            return
        for child_body in (
            getattr(statement, "body", None),
            getattr(statement, "orelse", None),
            getattr(statement, "finalbody", None),
        ):
            if isinstance(child_body, list) and child_body:
                if isinstance(child_body[0], ast.stmt):
                    yield from self._walk(module, child_body, guarded, held)
        if isinstance(statement, ast.Try):
            for handler in statement.handlers:
                yield from self._walk(module, handler.body, guarded, held)
        for expression in ast.iter_child_nodes(statement):
            if isinstance(expression, ast.expr):
                yield from self._check_expr(module, expression, guarded, held)

    @staticmethod
    def _locks_in(expression: ast.expr) -> set[str]:
        locks = set()
        for node in ast.walk(expression):
            if isinstance(node, ast.Attribute):
                locks.add(node.attr)
            elif isinstance(node, ast.Name):
                locks.add(node.id)
        return locks

    def _check_expr(
        self,
        module: Module,
        expression: ast.expr,
        guarded: dict[str, str],
        held: frozenset[str],
    ) -> Iterator[Finding]:
        for node in ast.walk(expression):
            if isinstance(node, ast.Lambda):
                continue  # deferred execution; too dynamic to judge here
            if not isinstance(node, ast.Attribute):
                continue
            lock = guarded.get(node.attr)
            if lock is not None and lock not in held:
                access = "write to" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read of"
                yield self.finding(
                    module,
                    node.lineno,
                    f"{access} '{node.attr}' (guarded-by: {lock}) outside "
                    f"'with {lock}' (annotate the function '# holds-lock: "
                    f"{lock}' if every caller holds it)",
                )


# ---------------------------------------------------------------------------
# REP102 — process-pool picklability
# ---------------------------------------------------------------------------


@register
class PicklableSubmitRule(Rule):
    """Process pools only run module-level callables with plain-data args."""

    id = "REP102"
    name = "picklable-submit"
    description = (
        "callables submitted to a ProcessPoolExecutor (submit target, "
        "initializer) must be module-level functions or imported names — "
        "never lambdas, nested functions or bound methods — and submit "
        "arguments must not be lambdas"
    )

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        module_level = self._module_level_names(module.tree)
        nested = self._nested_function_names(module.tree)
        for scope in self._scopes(module.tree):
            own_nodes = list(self._own_nodes(scope))
            pools = self._process_pool_names(own_nodes)
            for node in own_nodes:
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "submit"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pools
                    and node.args
                ):
                    yield from self._check_callable(
                        module, node.args[0], module_level, nested, "submitted to"
                    )
                    for argument in node.args[1:]:
                        if isinstance(argument, ast.Lambda):
                            yield self.finding(
                                module,
                                argument.lineno,
                                "lambda passed as a process-pool task argument "
                                "is not picklable; pass plain data",
                            )
                if _func_name(node.func) == "ProcessPoolExecutor":
                    for keyword in node.keywords:
                        if keyword.arg == "initializer":
                            yield from self._check_callable(
                                module,
                                keyword.value,
                                module_level,
                                nested,
                                "used as initializer of",
                            )

    @staticmethod
    def _scopes(tree: ast.Module) -> Iterator[ast.Module | ast.FunctionDef | ast.AsyncFunctionDef]:
        yield tree
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @classmethod
    def _own_nodes(cls, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into nested function scopes, so a
        pool variable in one function never taints another's submits."""
        for child in ast.iter_child_nodes(scope):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield child
            yield from cls._own_nodes(child)

    @staticmethod
    def _process_pool_names(own_nodes: list[ast.AST]) -> set[str]:
        """Names assigned ``ProcessPoolExecutor(...)`` in this scope (the
        rule stays scope-local on purpose: a pool received as an argument may
        legitimately be a thread pool)."""
        pools: set[str] = set()
        for node in own_nodes:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                if _func_name(node.value.func) == "ProcessPoolExecutor":
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            pools.add(target.id)
        return pools

    @staticmethod
    def _module_level_names(tree: ast.Module) -> set[str]:
        names: set[str] = set()
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(statement.name)
            elif isinstance(statement, ast.Import):
                names.update(alias.asname or alias.name.split(".")[0] for alias in statement.names)
            elif isinstance(statement, ast.ImportFrom):
                names.update(alias.asname or alias.name for alias in statement.names)
            elif isinstance(statement, ast.Assign):
                names.update(
                    target.id for target in statement.targets if isinstance(target, ast.Name)
                )
        return names

    @staticmethod
    def _nested_function_names(tree: ast.Module) -> set[str]:
        nested: set[str] = set()
        for outer in ast.walk(tree):
            if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(outer):
                    if inner is not outer and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        nested.add(inner.name)
        return nested

    def _check_callable(
        self,
        module: Module,
        candidate: ast.expr,
        module_level: set[str],
        nested: set[str],
        role: str,
    ) -> Iterator[Finding]:
        if isinstance(candidate, ast.Lambda):
            yield self.finding(
                module,
                candidate.lineno,
                f"lambda {role} a process pool cannot be pickled; "
                "use a module-level function",
            )
        elif isinstance(candidate, ast.Attribute):
            yield self.finding(
                module,
                candidate.lineno,
                f"bound method or attribute '{ast.unparse(candidate)}' {role} a "
                "process pool would pickle its receiver; use a module-level "
                "function taking plain data",
            )
        elif isinstance(candidate, ast.Name):
            if candidate.id in nested and candidate.id not in module_level:
                yield self.finding(
                    module,
                    candidate.lineno,
                    f"nested function '{candidate.id}' {role} a process pool "
                    "cannot be pickled; move it to module level",
                )


# ---------------------------------------------------------------------------
# REP103 — planner determinism
# ---------------------------------------------------------------------------

_NONDETERMINISTIC_MODULES = frozenset(
    {"time", "random", "secrets", "uuid", "datetime", "tempfile"}
)
_ENV_ATTRS = frozenset({"environ", "urandom", "getenv", "getrandom"})
_MUTATORS = frozenset(
    {"append", "add", "update", "setdefault", "pop", "popitem", "clear",
     "extend", "insert", "remove", "discard"}
)


@register
class PlannerDeterminismRule(Rule):
    """Planner modules stay pure: plans are cached by canonical key."""

    id = "REP103"
    name = "planner-determinism"
    description = (
        "planner modules (decomposition, optimizer, exec.plan) may not use "
        "clocks, randomness, environment variables, file IO or module-level "
        "mutable state — cached plans must be pure functions of their inputs"
    )

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        if module.logical_name not in config.determinism_modules:
            return
        mutable_globals = self._mutable_globals(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _NONDETERMINISTIC_MODULES:
                        yield self.finding(
                            module, node.lineno,
                            f"import of nondeterministic module '{alias.name}' in a planner module",
                        )
            elif isinstance(node, ast.ImportFrom):
                top = (node.module or "").split(".")[0]
                if top in _NONDETERMINISTIC_MODULES:
                    yield self.finding(
                        module, node.lineno,
                        f"import from nondeterministic module '{node.module}' in a planner module",
                    )
            elif isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in _ENV_ATTRS
                ):
                    yield self.finding(
                        module, node.lineno,
                        f"'os.{node.attr}' read in a planner module makes cached plans "
                        "depend on ambient state",
                    )
            elif isinstance(node, ast.Global):
                yield self.finding(
                    module, node.lineno,
                    f"'global {', '.join(node.names)}' in a planner module: cached "
                    "plans must not depend on module-level mutable state",
                )
            elif isinstance(node, ast.Call) and _func_name(node.func) == "open":
                yield self.finding(
                    module, node.lineno, "file IO in a planner module"
                )
        yield from self._check_global_mutation(module, mutable_globals)

    @staticmethod
    def _mutable_globals(tree: ast.Module) -> set[str]:
        """Module-level names bound to mutable literals/constructors."""
        mutable: set[str] = set()
        for statement in tree.body:
            if isinstance(statement, ast.Assign):
                value = statement.value
                is_mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                    isinstance(value, ast.Call)
                    and _func_name(value.func) in ("dict", "list", "set", "defaultdict")
                )
                if is_mutable:
                    mutable.update(
                        target.id
                        for target in statement.targets
                        if isinstance(target, ast.Name)
                    )
        return mutable

    def _check_global_mutation(
        self, module: Module, mutable_globals: set[str]
    ) -> Iterator[Finding]:
        if not mutable_globals:
            return
        for outer in ast.walk(module.tree):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(outer):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in mutable_globals
                ):
                    yield self.finding(
                        module, node.lineno,
                        f"mutation of module-level '{node.func.value.id}' from a "
                        "planner function: plans are cached, so planner state must "
                        "live on the plan",
                    )
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign) else [node.target]
                    )
                    for target in targets:
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in mutable_globals
                        ):
                            yield self.finding(
                                module, node.lineno,
                                f"subscript write to module-level "
                                f"'{target.value.id}' from a planner function",
                            )


# ---------------------------------------------------------------------------
# REP104 — exception discipline
# ---------------------------------------------------------------------------


@register
class BroadExceptRule(Rule):
    """Broad exception handlers only at process boundaries."""

    id = "REP104"
    name = "broad-except"
    description = (
        "'except Exception' (or broader) is only allowed in boundary modules "
        "(CLI, service, store); core code catches ReproError subclasses or "
        "specific exceptions — a handler whose last statement is a bare "
        "'raise' is cleanup, not swallowing, and is allowed anywhere"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        if module.logical_name in config.boundary_modules:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = self._caught_names(node.type)
            broad = node.type is None or (caught & self._BROAD)
            if not broad:
                continue
            last = node.body[-1] if node.body else None
            if isinstance(last, ast.Raise) and last.exc is None:
                continue  # cleanup + re-raise
            label = "bare 'except:'" if node.type is None else (
                f"'except {', '.join(sorted(caught & self._BROAD))}'"
            )
            yield self.finding(
                module, node.lineno,
                f"{label} outside a boundary module swallows bugs; catch a "
                "ReproError subclass or the specific exceptions this call "
                "can raise",
            )

    @staticmethod
    def _caught_names(expression: ast.expr | None) -> set[str]:
        if expression is None:
            return set()
        names = set()
        candidates = (
            list(expression.elts) if isinstance(expression, ast.Tuple) else [expression]
        )
        for candidate in candidates:
            name = _func_name(candidate) or (
                candidate.id if isinstance(candidate, ast.Name) else ""
            )
            if name:
                names.add(name)
        return names


# ---------------------------------------------------------------------------
# REP105 — streaming discipline
# ---------------------------------------------------------------------------

_MATERIALIZERS = frozenset({"list", "sorted", "set", "tuple", "frozenset", "dict"})


@register
class StreamingDisciplineRule(Rule):
    """Streaming paths must not materialize ``*_iter`` results."""

    id = "REP105"
    name = "streaming-discipline"
    description = (
        "inside streaming functions (*_iter, stream_pairs, iter_batch) the "
        "result of a *_iter call may not be materialized with "
        "list/sorted/set/tuple/frozenset/dict — that silently turns a "
        "constant-memory path into a result-sized one"
    )

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_streaming(node.name, config):
                continue
            yield from self._check_streaming_function(module, node)

    @staticmethod
    def _is_streaming(name: str, config: "AnalysisConfig") -> bool:
        return name.endswith("_iter") or name in config.streaming_functions

    def _check_streaming_function(
        self, module: Module, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        iter_bound: set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and self._is_iter_call(node.value):
                iter_bound.update(
                    target.id for target in node.targets if isinstance(target, ast.Name)
                )
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            name = _func_name(node.func)
            if name not in _MATERIALIZERS or not node.args:
                continue
            argument = node.args[0]
            streams = self._is_iter_call(argument) or (
                isinstance(argument, ast.Name) and argument.id in iter_bound
            )
            if streams:
                yield self.finding(
                    module, node.lineno,
                    f"'{name}(...)' materializes a *_iter stream inside "
                    f"streaming function '{func.name}'; keep the path lazy "
                    "or move the materialization to the non-streaming API",
                )

    @staticmethod
    def _is_iter_call(expression: ast.expr) -> bool:
        return isinstance(expression, ast.Call) and _func_name(
            expression.func
        ).endswith("_iter")


# ---------------------------------------------------------------------------
# REP106 — operator protocol completeness
# ---------------------------------------------------------------------------


@register
class OperatorProtocolRule(Rule):
    """Every physical operator is unioned, exported and executable."""

    id = "REP106"
    name = "operator-protocol"
    description = (
        "every '*Op' class in the ops module must be a member of the "
        "PhysicalOp union, listed in __all__, and dispatched by the "
        "executor's execute() — adding an operator without executor support "
        "must fail lint, not raise at query time"
    )

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        if module.logical_name != config.ops_module:
            return
        operators = {
            node.name: node.lineno
            for node in module.tree.body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Op")
        }
        if not operators:
            return
        union_members = self._union_members(module.tree, "PhysicalOp")
        exported = self._dunder_all(module.tree)
        for name, line in sorted(operators.items()):
            if union_members is not None and name not in union_members:
                yield self.finding(
                    module, line,
                    f"operator '{name}' is missing from the PhysicalOp union",
                )
            if exported is not None and name not in exported:
                yield self.finding(
                    module, line, f"operator '{name}' is missing from __all__"
                )
        if union_members is None:
            first = min(operators.values())
            yield self.finding(
                module, first,
                "ops module defines operators but no 'PhysicalOp = ... | ...' union",
            )
        executor = project.module(config.executor_module)
        if executor is None:
            return
        dispatched = self._names_in_function(executor.tree, "execute")
        if dispatched is None:
            yield self.finding(
                module, 1,
                f"executor module '{config.executor_module}' has no execute() "
                "to dispatch the operators",
            )
            return
        for name, line in sorted(operators.items()):
            if name not in dispatched:
                yield self.finding(
                    module, line,
                    f"operator '{name}' is not dispatched by "
                    f"{config.executor_module}.execute() — executing a plan "
                    "with it would raise at query time",
                )

    @staticmethod
    def _union_members(tree: ast.Module, union_name: str) -> set[str] | None:
        for statement in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(statement, ast.Assign):
                targets, value = statement.targets, statement.value
            elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
                targets, value = [statement.target], statement.value
            if not any(
                isinstance(target, ast.Name) and target.id == union_name
                for target in targets
            ):
                continue
            members = set()
            assert value is not None
            for node in ast.walk(value):
                if isinstance(node, ast.Name):
                    members.add(node.id)
            return members
        return None

    @staticmethod
    def _dunder_all(tree: ast.Module) -> set[str] | None:
        for statement in tree.body:
            if isinstance(statement, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in statement.targets
            ):
                return {
                    node.value
                    for node in ast.walk(statement.value)
                    if isinstance(node, ast.Constant) and isinstance(node.value, str)
                }
        return None

    @staticmethod
    def _names_in_function(tree: ast.Module, function_name: str) -> set[str] | None:
        for statement in tree.body:
            if (
                isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef))
                and statement.name == function_name
            ):
                return {
                    node.id
                    for node in ast.walk(statement)
                    if isinstance(node, ast.Name)
                }
        return None


# ---------------------------------------------------------------------------
# REP107 — typed defs
# ---------------------------------------------------------------------------


@register
class TypedDefRule(Rule):
    """Every function in the package carries full annotations."""

    id = "REP107"
    name = "typed-def"
    description = (
        "every function and method in the package must annotate all "
        "parameters and its return type — the local enforcement arm of the "
        "'mypy --strict' CI gate"
    )

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        if not module.logical_name.startswith(config.typed_prefix):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing = self._missing_annotations(node)
            if missing:
                yield self.finding(
                    module, node.lineno,
                    f"function '{node.name}' is missing annotations: "
                    f"{', '.join(missing)}",
                )

    @staticmethod
    def _missing_annotations(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
        missing = []
        arguments = func.args
        positional = arguments.posonlyargs + arguments.args
        for index, argument in enumerate(positional):
            if index == 0 and argument.arg in ("self", "cls"):
                continue
            if argument.annotation is None:
                missing.append(f"parameter '{argument.arg}'")
        for argument in arguments.kwonlyargs:
            if argument.annotation is None:
                missing.append(f"parameter '{argument.arg}'")
        if arguments.vararg is not None and arguments.vararg.annotation is None:
            missing.append(f"parameter '*{arguments.vararg.arg}'")
        if arguments.kwarg is not None and arguments.kwarg.annotation is None:
            missing.append(f"parameter '**{arguments.kwarg.arg}'")
        if func.returns is None:
            missing.append("return type")
        return missing


# ---------------------------------------------------------------------------
# REP108 — lock order (whole-program)
# ---------------------------------------------------------------------------


@register
class LockOrderRule(Rule):
    """The lock-order graph must be acyclic: cycles are deadlock schedules."""

    id = "REP108"
    name = "lock-order"
    description = (
        "lock acquisitions must follow one global order: the lock-order "
        "graph (an edge A -> B whenever B is acquired while A is held, "
        "directly or through any resolved call chain) must be acyclic — a "
        "cycle is a potential deadlock and is reported with the full "
        "acquisition path"
    )
    requires_model = True

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self,
        project: Project,
        config: "AnalysisConfig",
        model: "SemanticModel",
    ) -> Iterator[Finding]:
        graph = model.lock_graph
        for cycle in graph.cycles:
            members = set(cycle)
            witnesses = [
                edge
                for edge in graph.edges
                if edge.source in members and edge.target in members
            ]
            anchor = min(witnesses, key=lambda e: (e.path, e.line))
            order = ", ".join(cycle)
            path = "; ".join(edge.witness for edge in witnesses)
            yield Finding(
                path=anchor.path,
                line=anchor.line,
                rule=self.id,
                message=(
                    f"potential deadlock: lock-order cycle among {{{order}}} "
                    f"— {path}; pick one global acquisition order and "
                    "restructure the later acquisition out of the earlier "
                    "lock's critical section"
                ),
            )


# ---------------------------------------------------------------------------
# REP109 — planner purity by reachability (whole-program)
# ---------------------------------------------------------------------------


@register
class PlannerPurityRule(Rule):
    """No impure effect reachable from planner entry points."""

    id = "REP109"
    name = "planner-purity"
    description = (
        "no impure effect (clock, randomness, env, file IO, global "
        "mutation) may be reachable from a planner function through any "
        "resolved call chain — the interprocedural arm of REP103, which "
        "only inspects the planner modules themselves"
    )
    requires_model = True

    def check(
        self, module: Module, project: Project, config: "AnalysisConfig"
    ) -> Iterator[Finding]:
        return iter(())

    def check_project(
        self,
        project: Project,
        config: "AnalysisConfig",
        model: "SemanticModel",
    ) -> Iterator[Finding]:
        for qualified in sorted(model.graph.functions):
            info = model.graph.functions[qualified]
            if info.module not in config.determinism_modules:
                continue
            for effect in sorted(model.effects.get(qualified, frozenset())):
                witness = model.witness(qualified, effect)
                chain = " -> ".join(witness) if witness else qualified
                yield Finding(
                    path=info.display_path,
                    line=info.lineno,
                    rule=self.id,
                    message=(
                        f"planner function '{info.qualname}' reaches impure "
                        f"effect '{effect}' via {chain} — cached plans must "
                        "be pure functions of their inputs"
                    ),
                )
