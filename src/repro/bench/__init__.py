"""Benchmarking: declarative scenarios, trajectory gating, paper figures.

Every benchmark is a config object (:mod:`repro.bench.scenarios`,
registered in :mod:`repro.bench.catalog`): grammar family × run size ×
query class × executor configuration, executed by one generic harness into
a uniform ``repro-bench-trajectory/1`` run table.  ``repro bench gate``
(:mod:`repro.bench.gate`) compares the ``ci`` suite against the stored
trajectory under ``benchmarks/trajectory/``.

The paper's evaluation figures (Section V) and the ablations are figure
groups of the same catalog: ``repro bench figures fig13a`` runs one group's
scenarios and prints the series the paper plots, one median column per
engine.  Because this reproduction runs pure Python rather than the paper's
Java implementation, absolute times differ; the comparisons — who wins, how
costs grow, where the crossovers are — are what the tables preserve.
"""

from repro.bench.scenarios import (
    ExecutorFactors,
    FigureGroup,
    Invariant,
    Scenario,
    ScenarioResult,
    format_table,
    render_figure,
    run_scenario,
    run_suite,
)

__all__ = [
    "ExecutorFactors",
    "FigureGroup",
    "Invariant",
    "Scenario",
    "ScenarioResult",
    "format_table",
    "render_figure",
    "run_scenario",
    "run_suite",
]
