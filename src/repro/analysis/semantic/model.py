"""The assembled semantic model.

:func:`build_semantic_model` runs the three analyses over a loaded
:class:`~repro.analysis.project.Project` — call graph, effect inference,
lock-order graph — and bundles them for the project-level rules and the
totals of ``repro lint --statistics``.  The model is rebuilt on every run;
over this repository that takes a few seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.analysis.project import Project
from repro.analysis.semantic.callgraph import CallGraph, build_call_graph
from repro.analysis.semantic.effects import (
    direct_effects as _compute_direct_effects,
)
from repro.analysis.semantic.effects import (
    effect_witness,
    transitive_effects,
)
from repro.analysis.semantic.locks import LockGraph, build_lock_graph

__all__ = ["SemanticModel", "build_semantic_model"]


@dataclass
class SemanticModel:
    """Everything the project-level rules consume."""

    graph: CallGraph
    direct_effects: dict[str, frozenset[str]]
    effects: dict[str, frozenset[str]]
    lock_graph: LockGraph

    def witness(self, start: str, effect: str) -> list[str]:
        """Shortest call path from ``start`` to the effect's direct source."""
        return effect_witness(self.graph, self.direct_effects, start, effect)


def build_semantic_model(project: Project) -> SemanticModel:
    """Run the whole-program analyses over a loaded project."""
    graph = build_call_graph(project)
    method_names = frozenset(
        info.name for info in graph.functions.values() if info.class_name
    )
    nodes = _function_nodes(project, graph)
    direct = _compute_direct_effects(
        list(project),
        nodes,
        {name: info.module for name, info in graph.functions.items()},
        method_names,
    )
    return SemanticModel(
        graph=graph,
        direct_effects=direct,
        effects=transitive_effects(graph, direct),
        lock_graph=build_lock_graph(graph),
    )


def _function_nodes(project: Project, graph: CallGraph) -> dict[str, Any]:
    """Re-associate qualified names with their AST nodes for the effect
    scan (the call-graph builder does not retain them)."""
    import ast

    nodes: dict[str, Any] = {}
    for module in project:
        prefix = f"{module.logical_name}:"
        by_line = {
            info.lineno: name
            for name, info in graph.functions.items()
            if name.startswith(prefix)
            and graph.functions[name].display_path == module.display_path
        }
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = by_line.get(node.lineno)
                if name is not None and name not in nodes:
                    nodes[name] = node
    return nodes
