"""General queries as Section IV-B publishes them: no pushdown, no cost routing.

The paper evaluates an unsafe query in three steps: find its maximal safe
subqueries, answer each with the labeling engine (Algorithm 2) over the whole
run, and join those relations bottom-up with the unsafe remainder (Option
G1).  The requested ``l1 × l2`` pairs are picked out of the finished
whole-run relation.

The production engine (:func:`repro.core.decomposition.evaluate_general_query`)
departs from this in three ways: given node lists, it replaces the joins
with one frontier sweep over the macro DFA and pushes ``l1``/``l2`` into
that sweep; without them it runs the joins on the packed bitset kernel; and
it sends a safe subquery to the labels only when the cost model prefers
that.  The joins here are the set-based G1 evaluation of
:mod:`repro.core.relations`.  This module keeps the published scheme as the
reference point of the Fig. 15 pushdown columns and of the routing tests.
"""

from __future__ import annotations

from typing import Sequence

from repro.automata.regex import RegexNode
from repro.core.allpairs import all_pairs_safe_query
from repro.core.decomposition import (
    DecompositionPlan,
    plan_decomposition,
    worth_label_evaluation,
)
from repro.core.query_index import build_query_index
from repro.core.relations import NodePairs, evaluate_regex_relation, restrict
from repro.workflow.run import Run

__all__ = ["paper_decomposition_all_pairs"]


def paper_decomposition_all_pairs(
    run: Run,
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    query: str | RegexNode,
    *,
    plan: DecompositionPlan | None = None,
) -> NodePairs:
    """All pairs of ``l1 × l2`` matched by the query, evaluated over the whole
    run with every non-trivial maximal safe subquery answered by labels."""
    if plan is None:
        plan = plan_decomposition(run.spec, query)
    nodes = list(run.node_ids())
    labelled = {node for node in plan.safe_subtrees if worth_label_evaluation(node)}

    def label_engine(node: RegexNode) -> NodePairs | None:
        if node not in labelled:
            return None
        return all_pairs_safe_query(run, nodes, nodes, build_query_index(run.spec, node))

    relation = evaluate_regex_relation(run, plan.root, subquery_evaluator=label_engine)
    return restrict(relation, l1, l2)
