"""Cross-module call graph with lock-aware lexical facts.

This is the resolution half of the semantic layer (see
:mod:`repro.analysis.semantic`): it indexes every module of a
:class:`~repro.analysis.project.Project` — imports (including re-exports
through package ``__init__`` modules), top-level functions, classes, methods,
nested functions — and extracts, per function:

* resolved **call sites**, each carrying the set of locks lexically held at
  the site (the raw material for the lock-order graph and for caller-aware
  ``# holds-lock:`` verification);
* **lock acquisitions** (``with <lock>:`` statements), again with the locks
  already held when the acquisition happens;
* the locks held at ``yield`` for ``@contextmanager`` functions, so a
  ``with cm():`` statement in a caller extends the caller's held set with
  whatever the context manager holds around its yield.

Resolution is deliberately conservative: an edge is recorded only when the
callee is confidently identified (``self.method``, a local or imported name,
an attribute whose class is known from an annotation, a dataclass field, a
property return type, or a constructor assignment).  Calls through bare
callables, ``super()`` or unknown receivers are counted as unresolved rather
than guessed — for deadlock detection a false edge is worse than a missing
one, because it can report cycles that cannot happen.

Lock names are *canonical*: an instance lock is ``ClassName.attr`` (prefixed
with the module when the class name is ambiguous project-wide), a function
local lock is ``module_tail.function.var``.  Two different instances of the
same class share a canonical name; that is the standard static
approximation (RacerD makes the same one) and is sound for ordering as long
as per-instance locks of one class are never nested with each other — which
``repro lint`` would flag as a self-cycle on a non-reentrant lock.

One comment directive extends what the syntax shows: ``# holds-lock:
<attr>`` (REP101) — the function runs with the lock held; the walker seeds
its held set accordingly.  Only ``threading`` primitives are lock nodes.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Iterator

from repro.analysis.project import Module, Project

__all__ = [
    "Acquisition",
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "GuardedClass",
    "build_call_graph",
]

_HOLDS_LOCK = "holds-lock:"
#: threading factory name -> lock kind recorded in the graph.
_LOCK_FACTORIES = {"Lock": "lock", "RLock": "rlock"}
_CM_DECORATORS = frozenset({"contextmanager", "asynccontextmanager"})
_PROPERTY_DECORATORS = frozenset({"property", "cached_property"})
_BUILTIN_NAMES = frozenset(dir(builtins))
#: typing-level names that never denote a project class in an annotation.
_TYPING_NAMES = frozenset(
    {
        "Any", "Callable", "ClassVar", "Final", "Iterable", "Iterator",
        "Mapping", "MutableMapping", "Optional", "Sequence", "Union",
        "bool", "bytes", "dict", "float", "frozenset", "int", "list",
        "object", "set", "str", "tuple", "type",
    }
)
_GUARDED_BY = "guarded-by:"


# ---------------------------------------------------------------------------
# result datatypes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method known to the call graph."""

    qualified: str
    """``module:Qual.Name`` — the node id used everywhere else."""
    module: str
    qualname: str
    name: str
    class_name: str | None
    lineno: int
    display_path: str
    is_contextmanager: bool
    holds_locks: tuple[str, ...]
    """Bare lock attribute names from ``# holds-lock:`` annotations."""


@dataclass(frozen=True)
class CallSite:
    """A resolved call edge, with the lock context at the site."""

    caller: str
    callee: str
    line: int
    held: tuple[str, ...]
    """Canonical locks lexically held when the call runs."""
    bare_held: tuple[str, ...]
    """Over-approximate bare names held (for ``# holds-lock:`` checks)."""


@dataclass(frozen=True)
class Acquisition:
    """One ``with <lock>:`` acquisition (or a ``with`` on a context manager
    that holds a lock around its yield)."""

    function: str
    lock: str
    line: int
    held: tuple[str, ...]


@dataclass(frozen=True)
class GuardedClass:
    """``# guarded-by:`` declarations of one class, for the sanitizer."""

    name: str
    module: str
    guards: dict[str, str]
    """attribute name -> lock attribute name on the same instance."""


@dataclass
class CallGraph:
    """The resolved whole-program graph plus the lock-relevant facts."""

    functions: dict[str, FunctionInfo]
    calls: list[CallSite]
    acquisitions: list[Acquisition]
    lock_kinds: dict[str, str]
    """canonical lock name -> ``lock`` | ``rlock`` | ``context``."""
    guarded_classes: dict[str, GuardedClass]
    modules: int
    total_calls: int
    unresolved_calls: int


# ---------------------------------------------------------------------------
# module indexing
# ---------------------------------------------------------------------------


def _comment_tag(comment: str, tag: str) -> str | None:
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


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = _func_name(target)
        if name:
            names.add(name)
    return names


def _annotation_candidates(node: ast.expr | None) -> tuple[str, ...]:
    """Class names an annotation might denote (``X``, ``"X | None"``,
    ``Optional[X]``); ``Callable[...]`` yields nothing — its parameters are
    not the type of the annotated value."""
    if node is None:
        return ()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return ()
        return _annotation_candidates(parsed)
    if isinstance(node, ast.Subscript) and _func_name(node.value) == "Callable":
        return ()
    names = [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
    return tuple(dict.fromkeys(n for n in names if n not in _TYPING_NAMES))


def _value_candidates(value: ast.expr) -> tuple[str, ...]:
    """Class names a right-hand side might construct (``X(...)``)."""
    if isinstance(value, ast.Call):
        name = _func_name(value.func)
        if name and name not in _BUILTIN_NAMES:
            return (name,)
    return ()


@dataclass
class _ClassScope:
    name: str
    module: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: attribute name -> candidate class names (fields, properties, ctors).
    attr_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: method name -> candidate class names of its return annotation.
    method_returns: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: lock attribute name -> ``lock`` | ``rlock``.
    lock_attrs: dict[str, str] = field(default_factory=dict)
    #: guarded attribute name -> guard lock attribute name.
    guards: dict[str, str] = field(default_factory=dict)


@dataclass
class _ModuleScope:
    module: Module
    #: local alias -> ("mod", logical) or ("obj", logical, name).
    imports: dict[str, tuple[str, ...]] = field(default_factory=dict)
    functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    #: module-level function name -> return annotation candidates.
    function_returns: dict[str, tuple[str, ...]] = field(default_factory=dict)
    classes: dict[str, _ClassScope] = field(default_factory=dict)


def _relative_base(module: Module, level: int) -> str:
    """The package a level-``level`` relative import resolves against."""
    parts = module.logical_name.split(".")
    if module.path.stem != "__init__":
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    return ".".join(parts)


def _index_imports(scope: _ModuleScope) -> None:
    for node in ast.walk(scope.module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                scope.imports[local] = ("mod", target)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                base = _relative_base(scope.module, node.level)
                source = f"{base}.{source}" if source else base
            for alias in node.names:
                if alias.name == "*":
                    continue
                scope.imports[alias.asname or alias.name] = (
                    "obj", source, alias.name,
                )


def _scan_lock_annotation(annotation: ast.expr | None) -> str | None:
    """``lock``/``rlock`` if the annotation mentions a threading factory
    (covers ``dict[Key, threading.Lock]`` containers of locks)."""
    if annotation is None:
        return None
    for node in ast.walk(annotation):
        kind = _LOCK_FACTORIES.get(_func_name(node)) if isinstance(
            node, (ast.Name, ast.Attribute)
        ) else None
        if kind is not None:
            return kind
    return None


def _scan_value_for_lock(value: ast.expr) -> str | None:
    """``lock``/``rlock`` if the expression calls a threading factory."""
    for node in ast.walk(value):
        if isinstance(node, ast.Call):
            kind = _LOCK_FACTORIES.get(_func_name(node.func))
            if kind is not None:
                return kind
    return None


def _index_class(scope: _ModuleScope, node: ast.ClassDef) -> None:
    cls = _ClassScope(
        name=node.name,
        module=scope.module.logical_name,
        node=node,
        bases=tuple(_func_name(base) for base in node.bases if _func_name(base)),
    )
    module = scope.module
    for statement in node.body:
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            attr = statement.target.id
            cls.attr_types[attr] = _annotation_candidates(statement.annotation)
            kind = _scan_lock_annotation(statement.annotation)
            if kind is not None:
                cls.lock_attrs[attr] = kind
            guard = _comment_tag(module.comment_on(statement.lineno), _GUARDED_BY)
            if guard is not None:
                cls.guards[attr] = guard
        elif isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[statement.name] = statement
            decorators = _decorator_names(statement)
            returns = _annotation_candidates(statement.returns)
            if decorators & _PROPERTY_DECORATORS:
                cls.attr_types[statement.name] = returns
            else:
                cls.method_returns[statement.name] = returns
            _index_method_attributes(module, cls, statement)
    scope.classes[node.name] = cls


def _index_method_attributes(
    module: Module,
    cls: _ClassScope,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
) -> None:
    """``self.<attr>`` assignments: lock factories, guard declarations, and
    attribute types (from constructor calls and parameter annotations)."""
    param_types = {
        argument.arg: _annotation_candidates(argument.annotation)
        for argument in (
            method.args.posonlyargs + method.args.args + method.args.kwonlyargs
        )
    }
    for statement in ast.walk(method):
        if not isinstance(statement, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            statement.targets
            if isinstance(statement, ast.Assign)
            else [statement.target]
        )
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            attr = target.attr
            guard = _comment_tag(module.comment_on(statement.lineno), _GUARDED_BY)
            if guard is not None:
                cls.guards.setdefault(attr, guard)
            value = statement.value
            if value is not None:
                kind = _scan_value_for_lock(value)
                if kind is not None:
                    cls.lock_attrs.setdefault(attr, kind)
                candidates = _value_candidates(value)
                if not candidates and isinstance(value, ast.Name):
                    candidates = param_types.get(value.id, ())
                if candidates:
                    cls.attr_types.setdefault(attr, candidates)
            if isinstance(statement, ast.AnnAssign):
                kind = _scan_lock_annotation(statement.annotation)
                if kind is not None:
                    cls.lock_attrs.setdefault(attr, kind)
                cls.attr_types.setdefault(
                    attr, _annotation_candidates(statement.annotation)
                )


def _index_module(module: Module) -> _ModuleScope:
    scope = _ModuleScope(module=module)
    _index_imports(scope)
    for statement in module.tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope.functions[statement.name] = statement
            scope.function_returns[statement.name] = _annotation_candidates(
                statement.returns
            )
        elif isinstance(statement, ast.ClassDef):
            _index_class(scope, statement)
    return scope


# ---------------------------------------------------------------------------
# whole-program resolution
# ---------------------------------------------------------------------------


@dataclass
class _FunctionContext:
    """Everything the walker needs to resolve names inside one function."""

    info: FunctionInfo
    node: ast.FunctionDef | ast.AsyncFunctionDef
    scope: _ModuleScope
    cls: _ClassScope | None
    #: visible function names (own nested + enclosing chain + module level).
    visible: dict[str, str]
    #: local variable name -> candidate class names.
    var_types: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: local variable name -> already-resolved class (attribute chains).
    var_classes: dict[str, "_ClassScope"] = field(default_factory=dict)
    #: local variable name -> (canonical lock name, kind).
    local_locks: dict[str, tuple[str, str]] = field(default_factory=dict)


class _Resolver:
    """Name -> function/class resolution across the whole project."""

    def __init__(self, project: Project) -> None:
        self.scopes: dict[str, _ModuleScope] = {}
        for module in project:
            self.scopes.setdefault(module.logical_name, _index_module(module))
        self._class_names: dict[str, list[_ClassScope]] = {}
        for scope in self.scopes.values():
            for cls in scope.classes.values():
                self._class_names.setdefault(cls.name, []).append(cls)

    # -- lookups ----------------------------------------------------------

    def unique_class(self, name: str) -> _ClassScope | None:
        owners = self._class_names.get(name, [])
        return owners[0] if len(owners) == 1 else None

    def lock_name(self, cls: _ClassScope, attr: str) -> str:
        if len(self._class_names.get(cls.name, [])) > 1:
            return f"{cls.module}:{cls.name}.{attr}"
        return f"{cls.name}.{attr}"

    def resolve_export(
        self, module_name: str, name: str, _seen: frozenset[str] = frozenset()
    ) -> tuple[str, ...] | None:
        """Resolve ``name`` exported by ``module_name``, following re-export
        chains through package ``__init__`` modules."""
        key = f"{module_name}:{name}"
        if key in _seen:
            return None
        scope = self.scopes.get(module_name)
        if scope is None:
            return None
        if name in scope.functions:
            return ("func", f"{module_name}:{name}")
        if name in scope.classes:
            return ("class", module_name, name)
        imported = scope.imports.get(name)
        if imported is None:
            return None
        if imported[0] == "obj":
            return self.resolve_export(imported[1], imported[2], _seen | {key})
        if imported[0] == "mod":
            return ("mod", imported[1])
        return None

    def class_from_ref(self, ref: tuple[str, ...] | None) -> _ClassScope | None:
        if ref is not None and ref[0] == "class":
            return self.scopes[ref[1]].classes.get(ref[2])
        return None

    def resolve_class_name(
        self, name: str, scope: _ModuleScope
    ) -> _ClassScope | None:
        """A class named in source or in an annotation, searched locally,
        through imports, then as a project-wide unique name (the latter
        covers string annotations whose import is under TYPE_CHECKING)."""
        local = scope.classes.get(name)
        if local is not None:
            return local
        imported = scope.imports.get(name)
        if imported is not None:
            if imported[0] == "obj":
                resolved = self.resolve_export(imported[1], imported[2])
                found = self.class_from_ref(resolved)
                if found is not None:
                    return found
            return None
        return self.unique_class(name)

    def candidates_class(
        self, candidates: tuple[str, ...], scope: _ModuleScope
    ) -> _ClassScope | None:
        """The single project class among annotation candidates, or None."""
        matches = []
        for name in candidates:
            found = self.resolve_class_name(name, scope)
            if found is not None and found not in matches:
                matches.append(found)
        return matches[0] if len(matches) == 1 else None

    def class_attr_type(
        self, cls: _ClassScope, attr: str, scope: _ModuleScope
    ) -> _ClassScope | None:
        for owner in self.mro(cls):
            if attr in owner.attr_types:
                return self.candidates_class(owner.attr_types[attr], scope)
        return None

    def class_lock_attr(self, cls: _ClassScope, attr: str) -> str | None:
        for owner in self.mro(cls):
            if attr in owner.lock_attrs:
                return owner.lock_attrs[attr]
        return None

    def mro(self, cls: _ClassScope) -> Iterator[_ClassScope]:
        """The class and its project base classes (linear, cycle-safe)."""
        seen = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.name in seen:
                continue
            seen.add(current.name)
            yield current
            owner_scope = self.scopes.get(current.module)
            for base in current.bases:
                if owner_scope is not None:
                    found = self.resolve_class_name(base, owner_scope)
                    if found is not None:
                        stack.append(found)

    def resolve_method(
        self, cls: _ClassScope, name: str
    ) -> tuple[str, _ClassScope] | None:
        for owner in self.mro(cls):
            if name in owner.methods:
                return f"{owner.module}:{owner.name}.{name}", owner
        return None


# ---------------------------------------------------------------------------
# expression typing and call-target resolution
# ---------------------------------------------------------------------------


def _expr_class(
    expr: ast.expr, ctx: _FunctionContext, resolver: _Resolver
) -> _ClassScope | None:
    """The project class an expression evaluates to, or None."""
    if isinstance(expr, ast.Name):
        if expr.id in ("self", "cls"):
            return ctx.cls
        resolved = ctx.var_classes.get(expr.id)
        if resolved is not None:
            return resolved
        candidates = ctx.var_types.get(expr.id)
        if candidates:
            return resolver.candidates_class(candidates, ctx.scope)
        return None
    if isinstance(expr, ast.Attribute):
        receiver = _expr_class(expr.value, ctx, resolver)
        if receiver is not None:
            return resolver.class_attr_type(receiver, expr.attr, ctx.scope)
        return None
    if isinstance(expr, ast.Call):
        target = _resolve_call_target(expr.func, ctx, resolver)
        if target is None:
            return None
        if target[0] == "class":
            return resolver.scopes[target[1]].classes.get(target[2])
        if target[0] == "func":
            return _return_class(target[1], ctx, resolver)
    return None


def _return_class(
    qualified: str, ctx: _FunctionContext, resolver: _Resolver
) -> _ClassScope | None:
    module_name, _, qualname = qualified.partition(":")
    scope = resolver.scopes.get(module_name)
    if scope is None:
        return None
    if "." in qualname:
        class_name, _, method = qualname.partition(".")
        cls = scope.classes.get(class_name)
        if cls is not None and method in cls.method_returns:
            return resolver.candidates_class(cls.method_returns[method], ctx.scope)
        return None
    candidates = scope.function_returns.get(qualname, ())
    return resolver.candidates_class(candidates, ctx.scope)


def _resolve_call_target(
    func: ast.expr, ctx: _FunctionContext, resolver: _Resolver
) -> tuple[str, ...] | None:
    """``("func", qualified)`` / ``("class", module, name)`` /
    ``("lockctor", kind)`` or None for a call's target expression."""
    if isinstance(func, ast.Name):
        name = func.id
        if name in ctx.visible:
            return ("func", ctx.visible[name])
        if name in ctx.scope.classes:
            return ("class", ctx.scope.module.logical_name, name)
        imported = ctx.scope.imports.get(name)
        if imported is not None:
            if imported[0] == "obj":
                if imported[1] == "threading" and imported[2] in _LOCK_FACTORIES:
                    return ("lockctor", _LOCK_FACTORIES[imported[2]])
                return resolver.resolve_export(imported[1], imported[2])
            return None
        return None
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            imported = ctx.scope.imports.get(func.value.id)
            if imported is not None and imported[0] == "mod":
                if imported[1] == "threading" and func.attr in _LOCK_FACTORIES:
                    return ("lockctor", _LOCK_FACTORIES[func.attr])
                return resolver.resolve_export(imported[1], func.attr)
        receiver = _expr_class(func.value, ctx, resolver)
        if receiver is not None:
            resolved = resolver.resolve_method(receiver, func.attr)
            if resolved is not None:
                return ("func", resolved[0])
            return ("miss",)  # known class, unknown method: count it
    return None


def _own_statements(body: list[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements of a function body without descending into nested defs
    (those are separate functions with their own walk)."""
    for statement in body:
        if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield statement
        for block in _child_blocks(statement):
            yield from _own_statements(block)


def _child_blocks(statement: ast.stmt) -> Iterator[list[ast.stmt]]:
    for name in ("body", "orelse", "finalbody"):
        block = getattr(statement, name, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    if isinstance(statement, ast.Try):
        for handler in statement.handlers:
            yield handler.body
    if isinstance(statement, ast.Match):
        for case in statement.cases:
            yield case.body


def _prescan_locals(ctx: _FunctionContext, resolver: _Resolver) -> None:
    """Local variable types and local lock variables, from parameter
    annotations and simple assignments.  Conflicting rebinds drop the type —
    better untyped than wrongly typed."""
    arguments = ctx.node.args
    for argument in (
        arguments.posonlyargs + arguments.args + arguments.kwonlyargs
    ):
        if argument.annotation is not None:
            ctx.var_types[argument.arg] = _annotation_candidates(
                argument.annotation
            )
    seen_twice: set[str] = set()
    for statement in _own_statements(ctx.node.body):
        if isinstance(statement, ast.AnnAssign) and isinstance(
            statement.target, ast.Name
        ):
            name = statement.target.id
            candidates = _annotation_candidates(statement.annotation)
            _bind_local(ctx, name, candidates, seen_twice)
        elif isinstance(statement, ast.Assign) and len(statement.targets) == 1:
            target = statement.targets[0]
            if not isinstance(target, ast.Name):
                continue
            kind = _scan_value_for_lock(statement.value)
            if kind is not None:
                ctx.local_locks[target.id] = (
                    _local_lock_name(ctx, statement.value, target.id, resolver),
                    kind,
                )
                continue
            candidates = _value_candidates(statement.value)
            if not candidates and isinstance(
                statement.value, (ast.Name, ast.Attribute, ast.Call)
            ):
                # attribute / property chains (``store = self.store``) and
                # typed-return calls resolve to a class directly; sequential
                # processing lets later locals chain off earlier ones.
                found = _expr_class(statement.value, ctx, resolver)
                if found is not None and target.id not in seen_twice:
                    ctx.var_classes[target.id] = found
                continue
            _bind_local(ctx, target.id, candidates, seen_twice)


def _bind_local(
    ctx: _FunctionContext,
    name: str,
    candidates: tuple[str, ...],
    seen_twice: set[str],
) -> None:
    if name in seen_twice:
        return
    if name in ctx.var_types and ctx.var_types[name] != candidates:
        seen_twice.add(name)
        del ctx.var_types[name]
        return
    if candidates:
        ctx.var_types[name] = candidates


def _local_lock_name(
    ctx: _FunctionContext, value: ast.expr, var: str, resolver: _Resolver
) -> str:
    """Canonical name for a lock bound to a local: a lock drawn from a
    ``self.<attr>`` container (``setdefault(key, Lock())``) is named after
    the container attribute; a plain local lock after the function."""
    for node in ast.walk(value):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and ctx.cls is not None
        ):
            return resolver.lock_name(ctx.cls, node.attr)
    module_tail = ctx.info.module.rsplit(".", 1)[-1]
    return f"{module_tail}.{ctx.info.name}.{var}"


# ---------------------------------------------------------------------------
# the lock-aware walker
# ---------------------------------------------------------------------------


@dataclass
class _Facts:
    calls: list[CallSite] = field(default_factory=list)
    acquisitions: list[Acquisition] = field(default_factory=list)
    yield_holds: set[str] = field(default_factory=set)
    lock_kinds: dict[str, str] = field(default_factory=dict)
    total_calls: int = 0
    unresolved_calls: int = 0


class _Walker:
    """One pass over one function body, tracking the held-lock set through
    ``with`` nesting and recording call sites and acquisitions."""

    def __init__(
        self,
        ctx: _FunctionContext,
        resolver: _Resolver,
        cm_holds: dict[str, frozenset[str]],
    ) -> None:
        self.ctx = ctx
        self.resolver = resolver
        self.cm_holds = cm_holds
        self.facts = _Facts()

    def run(self) -> _Facts:
        held = set(self._initial_held())
        bare = set(self.ctx.info.holds_locks)
        self._visit_block(self.ctx.node.body, frozenset(held), frozenset(bare))
        return self.facts

    def _initial_held(self) -> Iterator[str]:
        """holds-lock annotations, canonicalized when the attribute is a
        known lock of the enclosing class."""
        for bare in self.ctx.info.holds_locks:
            if self.ctx.cls is not None and self.resolver.class_lock_attr(
                self.ctx.cls, bare
            ):
                yield self.resolver.lock_name(self.ctx.cls, bare)

    # -- statements -------------------------------------------------------

    def _visit_block(
        self, body: list[ast.stmt], held: frozenset[str], bare: frozenset[str]
    ) -> None:
        for statement in body:
            self._visit_statement(statement, held, bare)

    def _visit_statement(
        self, statement: ast.stmt, held: frozenset[str], bare: frozenset[str]
    ) -> None:
        if isinstance(
            statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            return  # separate function; walked on its own with an empty held set
        if isinstance(statement, (ast.With, ast.AsyncWith)):
            self._visit_with(statement, held, bare)
            return
        for child in ast.iter_child_nodes(statement):
            if isinstance(child, ast.expr):
                self._visit_expr(child, held, bare)
        for block in _child_blocks(statement):
            self._visit_block(block, held, bare)

    def _visit_with(
        self,
        statement: ast.With | ast.AsyncWith,
        held: frozenset[str],
        bare: frozenset[str],
    ) -> None:
        new_held = set(held)
        new_bare = set(bare)
        for item in statement.items:
            self._visit_expr(item.context_expr, held, bare)
            for lock in self._locks_entered(item.context_expr):
                self.facts.acquisitions.append(
                    Acquisition(
                        function=self.ctx.info.qualified,
                        lock=lock,
                        line=item.context_expr.lineno,
                        held=tuple(sorted(new_held)),
                    )
                )
                new_held.add(lock)
            new_bare |= _bare_locks_in(item.context_expr)
        self._visit_block(
            statement.body, frozenset(new_held), frozenset(new_bare)
        )

    def _locks_entered(self, expr: ast.expr) -> list[str]:
        """Canonical locks a with-item acquires: a lock expression directly,
        or whatever a called context manager holds around its yield."""
        direct = self._resolve_lock(expr)
        if direct is not None:
            name, kind = direct
            self.facts.lock_kinds.setdefault(name, kind)
            return [name]
        if isinstance(expr, ast.Call):
            target = _resolve_call_target(expr.func, self.ctx, self.resolver)
            if target is not None and target[0] == "func":
                return sorted(self.cm_holds.get(target[1], frozenset()))
        return []

    def _resolve_lock(self, expr: ast.expr) -> tuple[str, str] | None:
        if isinstance(expr, ast.Name):
            return self.ctx.local_locks.get(expr.id)
        if isinstance(expr, ast.Attribute):
            receiver = _expr_class(expr.value, self.ctx, self.resolver)
            if receiver is not None:
                kind = self.resolver.class_lock_attr(receiver, expr.attr)
                if kind is not None:
                    return self.resolver.lock_name(receiver, expr.attr), kind
        return None

    # -- expressions ------------------------------------------------------

    def _visit_expr(
        self, expr: ast.expr, held: frozenset[str], bare: frozenset[str]
    ) -> None:
        for node in _own_expr_nodes(expr):
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                self.facts.yield_holds |= held
            elif isinstance(node, ast.Call):
                self._record_call(node, held, bare)

    def _record_call(
        self, call: ast.Call, held: frozenset[str], bare: frozenset[str]
    ) -> None:
        self.facts.total_calls += 1
        target = _resolve_call_target(call.func, self.ctx, self.resolver)
        if target is None:
            if (
                isinstance(call.func, ast.Name)
                and call.func.id not in _BUILTIN_NAMES
            ):
                self.facts.unresolved_calls += 1
            return
        if target[0] == "lockctor":
            return
        if target[0] == "miss":
            self.facts.unresolved_calls += 1
            return
        callee: str | None = None
        if target[0] == "func":
            callee = target[1]
        elif target[0] == "class":
            cls = self.resolver.scopes[target[1]].classes.get(target[2])
            if cls is not None:
                resolved = self.resolver.resolve_method(cls, "__init__")
                if resolved is not None:
                    callee = resolved[0]
        if callee is not None:
            self.facts.calls.append(
                CallSite(
                    caller=self.ctx.info.qualified,
                    callee=callee,
                    line=call.lineno,
                    held=tuple(sorted(held)),
                    bare_held=tuple(sorted(bare)),
                )
            )


def _bare_locks_in(expression: ast.expr) -> set[str]:
    """Every attribute/name token of a with-item expression — the same
    over-approximation REP101's module-level check uses, so the
    caller-aware ``# holds-lock:`` verification agrees with it."""
    locks = set()
    for node in ast.walk(expression):
        if isinstance(node, ast.Attribute):
            locks.add(node.attr)
        elif isinstance(node, ast.Name):
            locks.add(node.id)
    return locks


def _own_expr_nodes(expr: ast.expr) -> Iterator[ast.AST]:
    """All nodes of an expression except lambda bodies (deferred code does
    not run under the enclosing with-block)."""
    if isinstance(expr, ast.Lambda):
        return
    yield expr
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            yield from _own_expr_nodes(child)
        elif not isinstance(child, ast.expr_context):
            for inner in ast.walk(child):
                if isinstance(inner, (ast.Yield, ast.YieldFrom, ast.Call)):
                    yield inner


# ---------------------------------------------------------------------------
# whole-program assembly
# ---------------------------------------------------------------------------


def _lock_annotations(
    module: Module,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    tag: str,
) -> tuple[str, ...]:
    """Values of a ``# holds-lock:`` comment on the def line or the first
    body line (matching REP101's convention)."""
    values = []
    lines = [node.lineno]
    if node.body:
        lines.append(node.body[0].lineno)
    for line in lines:
        value = _comment_tag(module.comment_on(line), tag)
        if value is not None and value not in values:
            values.append(value)
    return tuple(values)


def _collect_contexts(
    resolver: _Resolver, project: Project
) -> list[_FunctionContext]:
    """Every function in the project, with its resolution context.  Order is
    the project's module order, then source order — deterministic."""
    contexts: list[_FunctionContext] = []
    seen_modules: set[str] = set()
    for module in project:
        if module.logical_name in seen_modules:
            continue
        seen_modules.add(module.logical_name)
        scope = resolver.scopes[module.logical_name]
        module_visible = {
            name: f"{module.logical_name}:{name}" for name in scope.functions
        }
        for name, node in scope.functions.items():
            _collect_one(
                resolver, contexts, scope, None, node, name, module_visible
            )
        for cls in scope.classes.values():
            for method_name, method in cls.methods.items():
                _collect_one(
                    resolver,
                    contexts,
                    scope,
                    cls,
                    method,
                    f"{cls.name}.{method_name}",
                    module_visible,
                )
    return contexts


def _collect_one(
    resolver: _Resolver,
    contexts: list[_FunctionContext],
    scope: _ModuleScope,
    cls: _ClassScope | None,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    qualname: str,
    parent_visible: dict[str, str],
    parent: _FunctionContext | None = None,
) -> None:
    module = scope.module
    qualified = f"{module.logical_name}:{qualname}"
    nested = _direct_nested(node)
    visible = dict(parent_visible)
    for child in nested:
        visible[child.name] = f"{qualified}.{child.name}"
    info = FunctionInfo(
        qualified=qualified,
        module=module.logical_name,
        qualname=qualname,
        name=node.name,
        class_name=cls.name if cls is not None else None,
        lineno=node.lineno,
        display_path=module.display_path,
        is_contextmanager=bool(_decorator_names(node) & _CM_DECORATORS),
        holds_locks=_lock_annotations(module, node, _HOLDS_LOCK),
    )
    ctx = _FunctionContext(
        info=info, node=node, scope=scope, cls=cls, visible=visible
    )
    if parent is not None:
        # closures see the enclosing function's locals (read-only use is
        # the idiom: a nested worker taking a lock created by its parent).
        ctx.var_types.update(parent.var_types)
        ctx.var_classes.update(parent.var_classes)
        ctx.local_locks.update(parent.local_locks)
    _prescan_locals(ctx, resolver)
    contexts.append(ctx)
    for child in nested:
        _collect_one(
            resolver,
            contexts,
            scope,
            cls,
            child,
            f"{qualname}.{child.name}",
            visible,
            parent=ctx,
        )


def _direct_nested(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
    """Functions nested directly in ``node`` — at any statement depth, but
    not inside a deeper def (those belong to their own parent)."""
    found: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    def scan(body: list[ast.stmt]) -> None:
        for statement in body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(statement)
                continue
            if isinstance(statement, ast.ClassDef):
                continue
            for block in _child_blocks(statement):
                scan(block)

    scan(node.body)
    return found


def build_call_graph(project: Project) -> CallGraph:
    """Index the project and extract the whole-program call graph."""
    resolver = _Resolver(project)
    contexts = _collect_contexts(resolver, project)

    # Context managers first: the locks they hold at yield flow into every
    # caller's with-body, and CMs may wrap each other, so iterate to a
    # fixpoint before the final full pass.
    cm_contexts = [ctx for ctx in contexts if ctx.info.is_contextmanager]
    cm_holds: dict[str, frozenset[str]] = {
        ctx.info.qualified: frozenset() for ctx in cm_contexts
    }
    for _ in range(5):
        changed = False
        for ctx in cm_contexts:
            facts = _Walker(ctx, resolver, cm_holds).run()
            settled = frozenset(facts.yield_holds)
            if settled != cm_holds[ctx.info.qualified]:
                cm_holds[ctx.info.qualified] = settled
                changed = True
        if not changed:
            break

    functions: dict[str, FunctionInfo] = {}
    calls: list[CallSite] = []
    acquisitions: list[Acquisition] = []
    lock_kinds: dict[str, str] = {}
    total_calls = 0
    unresolved = 0
    for ctx in contexts:
        functions[ctx.info.qualified] = ctx.info
        facts = _Walker(ctx, resolver, cm_holds).run()
        calls.extend(facts.calls)
        acquisitions.extend(facts.acquisitions)
        lock_kinds.update(facts.lock_kinds)
        total_calls += facts.total_calls
        unresolved += facts.unresolved_calls

    guarded: dict[str, GuardedClass] = {}
    seen_scopes: set[str] = set()
    for scope in resolver.scopes.values():
        if scope.module.logical_name in seen_scopes:
            continue
        seen_scopes.add(scope.module.logical_name)
        for cls in scope.classes.values():
            for attr, kind in cls.lock_attrs.items():
                lock_kinds.setdefault(resolver.lock_name(cls, attr), kind)
            if cls.guards:
                guarded[f"{cls.module}:{cls.name}"] = GuardedClass(
                    name=cls.name, module=cls.module, guards=dict(cls.guards)
                )

    return CallGraph(
        functions=functions,
        calls=calls,
        acquisitions=acquisitions,
        lock_kinds=lock_kinds,
        guarded_classes=guarded,
        modules=len({module.logical_name for module in project}),
        total_calls=total_calls,
        unresolved_calls=unresolved,
    )
