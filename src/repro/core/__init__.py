"""The paper's primary contribution: regular path queries via labeling.

This package contains the query-time machinery of the paper:

* :mod:`repro.core.safety` — the *safe query* property (Section III-C): λ
  path-transition matrices per module, consistency across all executions,
  polynomial-time checking on the minimal DFA.
* :mod:`repro.core.intersection` — the query-intersected, fine-grained
  specification ``G^R`` (Section III-B) and its run-level counterpart (used
  for validation of Lemma 3.1).
* :mod:`repro.core.query_index` — all per-query precomputation needed to
  decode labels: per-production crossing/entry/exit transition matrices and
  recursion-chain powers.  Everything here depends only on the specification
  and the query, never on the run.
* :mod:`repro.core.pairwise` — Algorithm 1: answer ``u —R→ v`` from the two
  node labels in time independent of the run size.
* :mod:`repro.core.allpairs` — Algorithm 2: all-pairs safe queries over label
  tries, decoded group at a time (optRPL-G, streaming); the per-pair S1/S2
  strategies are baselines (:mod:`repro.baselines.rpl_per_pair`).
* :mod:`repro.core.decomposition` — general (possibly unsafe) queries: find
  the largest safe subqueries of the parse tree (the *planner* side:
  decomposition, label routing, macro DFAs and their reversals).
* :mod:`repro.core.exec` — the *executor* side: physical plans (one
  label-decode, join or frontier-sweep operator, picked by the request's
  shape), direction resolution, and one ``execute`` entry returning the
  interned answer.  Safe answers also stream lazily in constant memory;
  unsafe answers are computed whole, then unpacked unordered, in memory of
  at most one bit per (source, target) position pair of the run.
* :mod:`repro.core.optimizer` — a simple cost model choosing between the
  labeling-based engine and the baselines (the paper's future-work item).
* :mod:`repro.core.engine` — the :class:`ProvenanceQueryEngine` facade tying
  everything together.
"""

from repro.core.allpairs import (
    all_pairs_iter,
    all_pairs_reachability,
    all_pairs_safe_query,
)
from repro.core.decomposition import evaluate_general_query
from repro.core.engine import ProvenanceQueryEngine
from repro.core.exec import PhysicalPlan, build_physical_plan
from repro.core.intersection import intersect_specification
from repro.core.pairwise import answer_pairwise_query, pairwise_reach_matrix
from repro.core.query_index import QueryIndex, build_query_index
from repro.core.safety import SafetyReport, analyze_safety, is_safe_query

__all__ = [
    "PhysicalPlan",
    "ProvenanceQueryEngine",
    "QueryIndex",
    "SafetyReport",
    "all_pairs_iter",
    "all_pairs_reachability",
    "all_pairs_safe_query",
    "analyze_safety",
    "answer_pairwise_query",
    "build_physical_plan",
    "build_query_index",
    "evaluate_general_query",
    "intersect_specification",
    "is_safe_query",
    "pairwise_reach_matrix",
]
