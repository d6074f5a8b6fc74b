"""Driving the rules over a project.

:func:`run_analysis` is the findings-only entry point: load the files, run
every selected rule over every module, and return the findings sorted by
``(path, line, rule)`` so output (and ``--json``) is stable across runs and
platforms.  :func:`analyze_paths` is the richer front-end used by the CLI:
it additionally builds (or loads from the digest-keyed disk cache) the
whole-program :class:`~repro.analysis.semantic.model.SemanticModel` when an
active rule declares ``requires_model``, runs the project-level
``check_project`` passes, and reports :class:`AnalysisStatistics` — per-rule
finding counts plus the call-graph and lock-graph totals CI logs surface.

:class:`AnalysisConfig` carries the project-shape knowledge the rules need —
which modules are planners, which are boundaries, where the operator catalog
and the executor live — with defaults matching this repository, overridable
for tests and fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.project import Project, load_project
from repro.analysis.rules import Rule, all_rules
from repro.analysis.semantic.model import (
    SemanticModel,
    build_semantic_model,
    load_cached_model,
    save_model,
)

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "AnalysisStatistics",
    "analyze_paths",
    "analyze_project",
    "run_analysis",
]


def _default_determinism_modules() -> frozenset[str]:
    return frozenset(
        {
            "repro.core.decomposition",
            "repro.core.optimizer",
            "repro.core.exec.plan",
        }
    )


def _default_boundary_modules() -> frozenset[str]:
    return frozenset({"repro.cli", "repro.service.service", "repro.store.store"})


def _default_streaming_functions() -> frozenset[str]:
    return frozenset({"stream_pairs", "iter_batch"})


@dataclass(frozen=True)
class AnalysisConfig:
    """Project-shape knowledge shared by the rules."""

    #: planner modules that must stay deterministic (REP109).
    determinism_modules: frozenset[str] = field(
        default_factory=_default_determinism_modules
    )
    #: modules allowed to catch broad exceptions (REP104).
    boundary_modules: frozenset[str] = field(default_factory=_default_boundary_modules)
    #: streaming function names beyond the ``*_iter`` pattern (REP105).
    streaming_functions: frozenset[str] = field(
        default_factory=_default_streaming_functions
    )
    #: module holding the physical operator catalog (REP106).
    ops_module: str = "repro.core.exec.ops"
    #: module whose ``execute()`` must dispatch every operator (REP106).
    executor_module: str = "repro.core.exec.executor"
    #: logical-name prefix under which full annotations are required (REP107).
    typed_prefix: str = "repro."


@dataclass(frozen=True)
class AnalysisStatistics:
    """Coverage numbers for ``--statistics`` output: what was analyzed, not
    just whether it passed."""

    modules: int
    functions: int
    call_edges: int
    total_calls: int
    unresolved_calls: int
    locks: int
    lock_order_edges: int
    lock_cycles: int
    rule_findings: dict[str, int]

    def to_payload(self) -> dict[str, object]:
        return {
            "modules": self.modules,
            "functions": self.functions,
            "call_edges": self.call_edges,
            "total_calls": self.total_calls,
            "unresolved_calls": self.unresolved_calls,
            "locks": self.locks,
            "lock_order_edges": self.lock_order_edges,
            "lock_cycles": self.lock_cycles,
            "rule_findings": dict(sorted(self.rule_findings.items())),
        }


@dataclass
class AnalysisResult:
    """Findings plus the semantic model and coverage statistics."""

    findings: list[Finding]
    model: SemanticModel | None
    statistics: AnalysisStatistics
    cache_hit: bool = False


def analyze_project(
    project: Project,
    *,
    config: AnalysisConfig | None = None,
    rules: list[Rule] | None = None,
    model: SemanticModel | None = None,
) -> list[Finding]:
    """Run rules over an already-loaded project (the test-fixture path).

    The semantic model is built on demand when an active rule needs it and
    none was passed in; callers holding a cached model pass it to skip the
    build.
    """
    active_config = config if config is not None else AnalysisConfig()
    active_rules = rules if rules is not None else all_rules()
    if model is None and any(rule.requires_model for rule in active_rules):
        model = build_semantic_model(project)
    findings: list[Finding] = []
    for module in project:
        for rule in active_rules:
            findings.extend(rule.check(module, project, active_config))
    if model is not None:
        for rule in active_rules:
            findings.extend(rule.check_project(project, active_config, model))
    return sorted(findings)


def _statistics(
    project: Project,
    model: SemanticModel | None,
    rules: list[Rule],
    findings: list[Finding],
) -> AnalysisStatistics:
    per_rule = {rule.id: 0 for rule in rules}
    for finding in findings:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    if model is None:
        return AnalysisStatistics(
            modules=len(project.modules),
            functions=0,
            call_edges=0,
            total_calls=0,
            unresolved_calls=0,
            locks=0,
            lock_order_edges=0,
            lock_cycles=0,
            rule_findings=per_rule,
        )
    return AnalysisStatistics(
        modules=len(project.modules),
        functions=len(model.graph.functions),
        call_edges=len(model.graph.calls),
        total_calls=model.graph.total_calls,
        unresolved_calls=model.graph.unresolved_calls,
        locks=len(model.lock_graph.locks),
        lock_order_edges=len(model.lock_graph.edges),
        lock_cycles=len(model.lock_graph.cycles),
        rule_findings=per_rule,
    )


def analyze_paths(
    paths: list[Path],
    *,
    root: Path | None = None,
    config: AnalysisConfig | None = None,
    rules: list[Rule] | None = None,
    semantic_cache: Path | None = None,
    want_model: bool = False,
) -> AnalysisResult:
    """Load ``paths``, run the (selected) rules, and return findings with
    the semantic model and statistics.

    ``semantic_cache`` names the digest-keyed model cache shared between
    ``repro lint`` and ``repro analyze``; a stale or corrupt cache file is
    simply rebuilt.  ``want_model`` forces the model even when no selected
    rule needs it (``repro analyze`` with no rules at all).
    """
    project = load_project(paths, root=root)
    active_rules = rules if rules is not None else all_rules()
    need_model = want_model or any(rule.requires_model for rule in active_rules)
    model: SemanticModel | None = None
    cache_hit = False
    if need_model:
        if semantic_cache is not None:
            model = load_cached_model(semantic_cache, project)
            cache_hit = model is not None
        if model is None:
            model = build_semantic_model(project)
            if semantic_cache is not None:
                save_model(model, semantic_cache)
    findings = analyze_project(
        project, config=config, rules=active_rules, model=model
    )
    return AnalysisResult(
        findings=findings,
        model=model,
        statistics=_statistics(project, model, active_rules, findings),
        cache_hit=cache_hit,
    )


def run_analysis(
    paths: list[Path],
    *,
    root: Path | None = None,
    config: AnalysisConfig | None = None,
    rules: list[Rule] | None = None,
) -> list[Finding]:
    """Load ``paths`` and run the (selected) rules; findings come back
    sorted by ``(path, line, rule, message)``."""
    return analyze_paths(paths, root=root, config=config, rules=rules).findings
