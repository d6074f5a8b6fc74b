"""Option G1: bottom-up join evaluation of the query parse tree [21].

"This approach treats a regular expression as a (binary/unary) tree, where
leaves are single symbols and internal nodes are union, concatenation, or
Kleene star.  We then evaluate the tree bottom-up."  (Section IV-B.)

The relational machinery lives in :mod:`repro.core.relations`; this module is
the thin baseline wrapper used by the experiments.  The paper's own
decomposition scheme (:mod:`repro.baselines.paper_decomposition`) joins its
unsafe remainder with the same machinery, and the decomposition engine joins
an unsafe query without node lists with its packed twin.
"""

from __future__ import annotations

from typing import Sequence

from repro.automata.regex import RegexNode, parse_regex
from repro.core.relations import NodePairs, evaluate_regex_relation, restrict
from repro.workflow.run import Run

__all__ = ["g1_all_pairs", "g1_pairwise"]


def g1_all_pairs(
    run: Run,
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    query: str | RegexNode,
) -> NodePairs:
    """All pairs of ``l1 × l2`` matched by the query, via joins over the run."""
    relation = evaluate_regex_relation(run, parse_regex(query))
    return restrict(relation, l1, l2)


def g1_pairwise(run: Run, source: str, target: str, query: str | RegexNode) -> bool:
    """Pairwise variant (materializes the full relation, as G1 does)."""
    return (source, target) in evaluate_regex_relation(run, parse_regex(query))
