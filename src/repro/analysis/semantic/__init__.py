"""Whole-program semantic analysis: call graph, lock order, effects.

This package upgrades :mod:`repro.analysis` from per-module syntactic lint
to interprocedural reasoning:

* :mod:`~repro.analysis.semantic.callgraph` — import resolution and a
  cross-module call graph with the lock context of every call site;
* :mod:`~repro.analysis.semantic.effects` — direct and transitive effect
  sets (clock, randomness, env, file-io, global-mutation) per function;
* :mod:`~repro.analysis.semantic.locks` — the lock-order graph and its
  deadlock cycles;
* :mod:`~repro.analysis.semantic.model` — the bundled
  :class:`~repro.analysis.semantic.model.SemanticModel`.

The model powers rules REP108 (lock-order cycles), REP109 (planner purity
by reachability) and the caller-aware arm of REP101, the call- and
lock-graph totals of ``repro lint --statistics``, and the runtime
sanitizer's guarded-class discovery (:mod:`repro.analysis.runtime`).
"""

from __future__ import annotations

from repro.analysis.semantic.callgraph import (
    Acquisition,
    CallGraph,
    CallSite,
    FunctionInfo,
    GuardedClass,
    build_call_graph,
)
from repro.analysis.semantic.locks import LockEdge, LockGraph, build_lock_graph
from repro.analysis.semantic.model import SemanticModel, build_semantic_model

__all__ = [
    "Acquisition",
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "GuardedClass",
    "LockEdge",
    "LockGraph",
    "SemanticModel",
    "build_call_graph",
    "build_lock_graph",
    "build_semantic_model",
]
