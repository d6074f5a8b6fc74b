"""repro: regular path queries on workflow provenance.

A from-scratch Python reproduction of *"Answering Regular Path Queries on
Workflow Provenance"* (Huang, Bao, Davidson, Milo, Yuan — ICDE 2015),
including every substrate the paper builds on: the context-free graph grammar
workflow model, run derivation, dynamic derivation-based reachability
labeling, a regex/automata library, the safe-query machinery, pairwise and
all-pairs query algorithms, the prior-work baselines, and the workload
generators and benchmark harness of the evaluation section.

Quickstart::

    from repro import ProvenanceQueryEngine, paper_specification

    spec = paper_specification()
    engine = ProvenanceQueryEngine(spec)
    run = engine.derive(seed=0, target_edges=200)

    engine.is_safe("_* e _*")            # True  (R3 of the paper)
    engine.is_safe("e")                  # False (R4 of the paper)

    u, v = run.nodes_named("c")[0], run.nodes_named("b")[0]
    engine.pairwise(run, u, v, "_* e _*")
    engine.all_pairs(run, "_* e _*", run.nodes_named("c"), run.nodes_named("b"))
    engine.evaluate(run, "_* a _*")      # unsafe queries work too (decomposition)

See ``README.md`` for the architecture overview (*Architecture: planner /
executor split*, *Layout*) and the reproduced evaluation (*Paper figures*).
"""

from repro.core.engine import ProvenanceQueryEngine
from repro.core.query_index import QueryIndex, build_query_index
from repro.core.safety import SafetyReport, analyze_safety, is_safe_query
from repro.datasets.myexperiment import bioaid_specification, qblast_specification
from repro.datasets.paper_example import paper_run, paper_specification
from repro.datasets.synthetic import generate_synthetic_specification
from repro.errors import (
    DerivationError,
    LabelError,
    QuerySyntaxError,
    ReproError,
    SpecificationError,
    StoreError,
    StructureError,
    UnsafeQueryError,
    UnsupportedQueryError,
)
from repro.service import CacheStats, IndexCache, QueryRequest, QueryResult, QueryService
from repro.store import IndexStore
from repro.workflow.derivation import Derivation, derive_run
from repro.workflow.run import Run
from repro.workflow.simple import Edge, SimpleWorkflow
from repro.workflow.spec import Production, Specification

__version__ = "1.0.0"

__all__ = [
    "CacheStats",
    "Derivation",
    "DerivationError",
    "Edge",
    "IndexCache",
    "IndexStore",
    "LabelError",
    "Production",
    "ProvenanceQueryEngine",
    "QueryIndex",
    "QueryRequest",
    "QueryResult",
    "QueryService",
    "QuerySyntaxError",
    "ReproError",
    "Run",
    "SafetyReport",
    "SimpleWorkflow",
    "Specification",
    "SpecificationError",
    "StoreError",
    "StructureError",
    "UnsafeQueryError",
    "UnsupportedQueryError",
    "analyze_safety",
    "bioaid_specification",
    "build_query_index",
    "derive_run",
    "generate_synthetic_specification",
    "is_safe_query",
    "paper_run",
    "paper_specification",
    "qblast_specification",
    "__version__",
]
