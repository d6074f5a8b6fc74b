"""Project-specific static analysis (``repro lint``).

The serving stack's correctness rests on invariants that ordinary linters
cannot see: cache and store state guarded by one lock and acquired in one
global order (the batch thread pool and the cache's per-key build locks run
concurrently), planner purity (plans are cached by canonical key),
boundary-only broad exception handling, genuinely streaming ``*_iter``
paths, and full annotations.  This package encodes those invariants as AST
rules over one module at a time plus whole-program rules over a call graph
(:mod:`repro.analysis.semantic`); :mod:`repro.analysis.runtime` checks the
lock discipline again at run time under ``pytest --repro-sanitize``.

Entry points
------------

* :func:`repro.analysis.engine.analyze_paths` — analyze paths with the
  registered rules, returning sorted
  :class:`~repro.analysis.findings.Finding` objects and coverage statistics.
* ``repro lint`` (:mod:`repro.cli`) — the command-line front-end; it exits 1
  on any finding and has ``--json`` output for scripts.

See the README section "Static analysis & typing" for the ``# guarded-by:``
convention and the rule catalog.
"""

from __future__ import annotations

from repro.analysis.engine import (
    AnalysisConfig,
    AnalysisResult,
    AnalysisStatistics,
    analyze_paths,
)
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, all_rules, rule_ids

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "AnalysisStatistics",
    "Finding",
    "Rule",
    "all_rules",
    "analyze_paths",
    "rule_ids",
]
