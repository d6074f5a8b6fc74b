"""Interprocedural effect inference.

Each function gets a *direct* effect set from a syntactic scan — clock
reads, randomness, environment reads, file IO, module-level state mutation —
and a *transitive* set as the fixpoint of direct effects unioned along call
edges.  The transitive sets power REP109 ("no impure effect reachable from a
planner entry point"): a planner function is judged by what its own body
does and by what it actually calls, across modules.

Unresolved calls are treated as effect-free (optimistic).  That is the right
polarity for this check: the resolver covers the project's own call idioms,
and an optimistic default means a finding is always a real, witnessed path —
the witness chain in the finding message can be followed by hand.

Direct-effect detection covers clock/randomness module use,
``os.environ``/``os.urandom``, ``open``, global mutation and method-level
file IO (``Path.read_text`` and friends, ``os.replace``, ...), so boundary
code is honestly labeled even though only planner reachability is enforced.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Mapping

from repro.analysis.project import Module
from repro.analysis.semantic.callgraph import CallGraph, CallSite

__all__ = [
    "EFFECTS",
    "direct_effects",
    "effect_witness",
    "transitive_effects",
]

#: the impure effects tracked, in display order.
EFFECTS = ("clock", "randomness", "env", "file-io", "global-mutation")

#: Per-line directive waiving named effects on sanctioned wrapper lines
#: (e.g. ``time.perf_counter()  # effect-exempt: clock`` in
#: :mod:`repro.obs.clock`).  Only the effects the directive names are
#: waived, and only on the directive's own line.
_EXEMPT_DIRECTIVE = "effect-exempt:"

_CLOCK_MODULES = frozenset({"time", "datetime"})
_RANDOM_MODULES = frozenset({"random", "secrets", "uuid"})
_FILE_IO_MODULES = frozenset({"tempfile", "shutil", "glob"})
_OS_ENV_ATTRS = frozenset({"environ", "getenv", "getenvb"})
_OS_RANDOM_ATTRS = frozenset({"urandom", "getrandom"})
_OS_FILE_ATTRS = frozenset(
    {
        "open", "close", "read", "write", "unlink", "remove", "rename",
        "replace", "mkdir", "makedirs", "rmdir", "removedirs", "stat",
        "fstat", "lstat", "fsync", "listdir", "scandir", "chmod", "utime",
    }
)
#: method names that do file IO on their receiver (pathlib / file objects);
#: applied only when the receiver is not a project class, so a project
#: method that happens to share a name is resolved as a call edge instead.
_FILE_IO_METHODS = frozenset(
    {
        "read_text", "write_text", "read_bytes", "write_bytes", "open",
        "mkdir", "rmdir", "unlink", "touch", "rename", "replace", "glob",
        "rglob", "iterdir", "stat", "hardlink_to", "symlink_to",
    }
)
_MUTATORS = frozenset(
    {
        "append", "add", "update", "setdefault", "pop", "popitem", "clear",
        "extend", "insert", "remove", "discard",
    }
)


def _func_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _mutable_globals(tree: ast.Module) -> frozenset[str]:
    """Module-level names bound to mutable literals or constructors."""
    mutable: set[str] = set()
    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            value = statement.value
            is_mutable = isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call)
                and _func_name(value.func)
                in ("dict", "list", "set", "defaultdict")
            )
            if is_mutable:
                mutable.update(
                    target.id
                    for target in statement.targets
                    if isinstance(target, ast.Name)
                )
    return frozenset(mutable)


def _stdlib_roots(module: Module) -> dict[str, str]:
    """Local alias -> top-level stdlib module name, for the effect tables."""
    roots: dict[str, str] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                roots[alias.asname or alias.name.split(".")[0]] = (
                    alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom):
            top = (node.module or "").split(".")[0]
            for alias in node.names:
                if alias.name != "*":
                    roots.setdefault(alias.asname or alias.name, top)
    return roots


class _DirectScanner:
    """The per-function syntactic effect scan."""

    def __init__(
        self,
        module: Module,
        roots: Mapping[str, str],
        mutable_globals: frozenset[str],
        project_method_names: frozenset[str],
    ) -> None:
        self.module = module
        self.roots = roots
        self.mutable_globals = mutable_globals
        self.project_method_names = project_method_names

    def scan(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> frozenset[str]:
        return frozenset(self._effects(node))

    def _effects(
        self, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[str]:
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found: tuple[str, ...] = ("global-mutation",)
            elif isinstance(node, ast.Call):
                found = tuple(self._call_effects(node))
            elif isinstance(node, ast.Attribute):
                found = tuple(self._attribute_effects(node))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                found = tuple(self._assignment_effects(node))
            else:
                continue
            if not found:
                continue
            exempt = self._exempt_effects(node)
            for effect in found:
                if effect not in exempt:
                    yield effect

    def _exempt_effects(self, node: ast.AST) -> frozenset[str]:
        """Effects waived on this node's line by an ``# effect-exempt:``
        directive — the sanctioned-wrapper carve-out (``repro.obs.clock``).

        The directive names the effects it waives (comma- or
        space-separated), so it cannot silence more than it declares, and it
        only applies to the line it sits on: an unsanctioned call elsewhere
        in the same function is still reported.
        """
        comment = self.module.comment_on(getattr(node, "lineno", 0))
        if _EXEMPT_DIRECTIVE not in comment:
            return frozenset()
        names = comment.split(_EXEMPT_DIRECTIVE, 1)[1]
        return frozenset(
            part for part in names.replace(",", " ").split() if part in EFFECTS
        )

    def _call_effects(self, call: ast.Call) -> Iterator[str]:
        func = call.func
        name = _func_name(func)
        if isinstance(func, ast.Name):
            if name == "open":
                yield "file-io"
            root = self.roots.get(name)
            if root is not None:
                yield from self._module_effect(root)
            return
        if not isinstance(func, ast.Attribute):
            return
        root = self._receiver_root(func.value)
        if root is not None:
            if root == "os":
                if func.attr in _OS_FILE_ATTRS:
                    yield "file-io"
                elif func.attr in _OS_RANDOM_ATTRS:
                    yield "randomness"
                elif func.attr in _OS_ENV_ATTRS:
                    yield "env"
            else:
                yield from self._module_effect(root)
            return
        if (
            func.attr in _FILE_IO_METHODS
            and func.attr not in self.project_method_names
        ):
            yield "file-io"
        elif (
            func.attr in _MUTATORS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.mutable_globals
        ):
            yield "global-mutation"

    def _attribute_effects(self, node: ast.Attribute) -> Iterator[str]:
        root = self._receiver_root(node.value)
        if root == "os" and node.attr in _OS_ENV_ATTRS:
            yield "env"

    def _assignment_effects(
        self, node: ast.Assign | ast.AugAssign
    ) -> Iterator[str]:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in self.mutable_globals
            ):
                yield "global-mutation"

    def _module_effect(self, root: str) -> Iterator[str]:
        if root in _CLOCK_MODULES:
            yield "clock"
        elif root in _RANDOM_MODULES:
            yield "randomness"
        elif root in _FILE_IO_MODULES:
            yield "file-io"

    def _receiver_root(self, value: ast.expr) -> str | None:
        """The stdlib module a call receiver chain starts from, if any
        (``time.monotonic`` -> ``time``, ``datetime.datetime.now`` ->
        ``datetime``)."""
        while isinstance(value, ast.Attribute):
            value = value.value
        if isinstance(value, ast.Name):
            return self.roots.get(value.id)
        return None


def direct_effects(
    modules: Iterable[Module],
    function_nodes: Mapping[str, ast.FunctionDef | ast.AsyncFunctionDef],
    function_modules: Mapping[str, str],
    project_method_names: frozenset[str],
) -> dict[str, frozenset[str]]:
    """Direct effect set for every function, keyed by qualified name."""
    scanners: dict[str, _DirectScanner] = {}
    for module in modules:
        if module.logical_name not in scanners:
            scanners[module.logical_name] = _DirectScanner(
                module,
                _stdlib_roots(module),
                _mutable_globals(module.tree),
                project_method_names,
            )
    effects: dict[str, frozenset[str]] = {}
    for qualified, node in function_nodes.items():
        scanner = scanners.get(function_modules[qualified])
        effects[qualified] = scanner.scan(node) if scanner else frozenset()
    return effects


def transitive_effects(
    graph: CallGraph, direct: Mapping[str, frozenset[str]]
) -> dict[str, frozenset[str]]:
    """Fixpoint of direct effects unioned along call edges; handles call
    cycles (mutual recursion) by iterating to stability."""
    effects = {name: set(direct.get(name, frozenset())) for name in graph.functions}
    callees: dict[str, set[str]] = {}
    for site in graph.calls:
        if site.caller in effects and site.callee in effects:
            callees.setdefault(site.caller, set()).add(site.callee)
    changed = True
    while changed:
        changed = False
        for caller, targets in callees.items():
            merged = effects[caller]
            before = len(merged)
            for callee in targets:
                merged |= effects[callee]
            if len(merged) != before:
                changed = True
    return {name: frozenset(found) for name, found in effects.items()}


def effect_witness(
    graph: CallGraph,
    direct: Mapping[str, frozenset[str]],
    start: str,
    effect: str,
) -> list[str]:
    """A shortest call path from ``start`` to a function whose *direct*
    effects include ``effect`` — the witness quoted in REP109 findings.
    Deterministic: neighbors are explored in sorted order."""
    if effect in direct.get(start, frozenset()):
        return [start]
    adjacency: dict[str, set[str]] = {}
    for site in graph.calls:
        adjacency.setdefault(site.caller, set()).add(site.callee)
    queue: list[list[str]] = [[start]]
    seen = {start}
    while queue:
        path = queue.pop(0)
        for callee in sorted(adjacency.get(path[-1], set())):
            if callee in seen:
                continue
            seen.add(callee)
            extended = [*path, callee]
            if effect in direct.get(callee, frozenset()):
                return extended
            queue.append(extended)
    return []


def held_at_call(sites: Iterable[CallSite], callee: str) -> Iterator[CallSite]:
    """The call sites targeting ``callee`` (helper for rule messages)."""
    for site in sites:
        if site.callee == callee:
            yield site
