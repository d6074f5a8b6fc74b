"""Driving the rules over a project.

:func:`analyze_paths` loads the files, builds the whole-program
:class:`~repro.analysis.semantic.model.SemanticModel` when an active rule
declares ``requires_model``, runs every selected rule's per-module ``check``
and project-level ``check_project`` pass, and returns the findings sorted by
``(path, line, rule, message)`` together with :class:`AnalysisStatistics` —
per-rule finding counts plus the call-graph and lock-graph totals
``repro lint --statistics`` reports.

:class:`AnalysisConfig` carries the project-shape knowledge the rules need —
which modules are planners, which are boundaries, which functions stream —
with defaults matching this repository, overridable for tests and fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.findings import Finding
from repro.analysis.project import Project, load_project
from repro.analysis.rules import Rule, all_rules
from repro.analysis.semantic.model import SemanticModel, build_semantic_model

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "AnalysisStatistics",
    "analyze_paths",
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
    """Findings plus coverage statistics."""

    findings: list[Finding]
    statistics: AnalysisStatistics


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
) -> AnalysisResult:
    """Load ``paths``, run the (selected) rules, and return findings with
    coverage statistics.

    A path that does not exist raises :class:`FileNotFoundError`, so a typo
    cannot pass vacuously.
    """
    project = load_project(paths, root=root)
    active_config = config if config is not None else AnalysisConfig()
    active_rules = rules if rules is not None else all_rules()
    model: SemanticModel | None = None
    if any(rule.requires_model for rule in active_rules):
        model = build_semantic_model(project)
    findings: list[Finding] = []
    for module in project:
        for rule in active_rules:
            findings.extend(rule.check(module, active_config))
    if model is not None:
        for rule in active_rules:
            findings.extend(rule.check_project(active_config, model))
    findings.sort()
    return AnalysisResult(
        findings=findings,
        statistics=_statistics(project, model, active_rules, findings),
    )
