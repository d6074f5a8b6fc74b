"""The project rule catalog.

Each rule guards one invariant the running system has:

========  ====================================================================
REP101    lock discipline — attributes declared ``# guarded-by: <lock>`` may
          only be touched inside ``with <self>.<lock>:`` (or in functions
          annotated ``# holds-lock: <lock>``, whose callers hold it)
REP104    exception discipline — ``except Exception`` (and broader) only in
          boundary modules; core code catches :class:`~repro.errors.ReproError`
          subclasses (a handler that just cleans up and re-raises is fine)
REP105    streaming discipline — streaming functions (``*_iter``,
          ``stream_pairs``, ...) must not materialize ``*_iter`` results with
          ``list``/``sorted``/``set``/``tuple``/``frozenset``
REP107    typed defs — every function in the package is fully annotated
          (parameters and return), keeping the ``mypy --strict`` gate honest
          even where mypy is not installed
REP108    lock order — the lock-order graph built from ``with`` nesting
          propagated along call edges must be acyclic; a cycle is a
          potential deadlock, reported with the full acquisition path
REP109    planner purity — no impure effect (clock, randomness, env, file
          IO, global mutation) may be *reachable* from a planner function
          through any resolved call chain, its own body included: plans are
          cached by canonical key, so planning must be a pure function of
          its inputs
========  ====================================================================

REP108 and REP109 (and the caller-aware arm of REP101) are *project* rules:
they run once over the whole-program :class:`~repro.analysis.semantic.model.
SemanticModel` via :meth:`Rule.check_project` instead of per module.  The
other rules are small AST walks over one
:class:`~repro.analysis.project.Module` at a time.  Register new rules with
:func:`register`; ``repro lint --rules`` lists the catalog.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.analysis.findings import Finding
from repro.analysis.project import Module

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
    #: builds the model only if an active rule asks.
    requires_model: bool = False

    def check(self, module: Module, config: "AnalysisConfig") -> Iterator[Finding]:
        """Per-module pass."""
        return iter(())

    def check_project(
        self, config: "AnalysisConfig", model: "SemanticModel"
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

    def check(self, module: Module, config: "AnalysisConfig") -> Iterator[Finding]:
        guarded = self._guarded_attributes(module)
        if not guarded:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node, guarded)

    def check_project(
        self, config: "AnalysisConfig", model: "SemanticModel"
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

    def check(self, module: Module, config: "AnalysisConfig") -> Iterator[Finding]:
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

    def check(self, module: Module, config: "AnalysisConfig") -> Iterator[Finding]:
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

    def check(self, module: Module, config: "AnalysisConfig") -> Iterator[Finding]:
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

    def check_project(
        self, config: "AnalysisConfig", model: "SemanticModel"
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
        "planner functions (decomposition, optimizer, exec.plan) may not "
        "reach an impure effect (clock, randomness, env, file IO, global "
        "mutation) directly or through any resolved call chain — cached "
        "plans must be pure functions of their inputs"
    )
    requires_model = True

    def check_project(
        self, config: "AnalysisConfig", model: "SemanticModel"
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
