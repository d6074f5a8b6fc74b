"""Product-automaton traversal (Mendelzon & Wood [24]; Section III-B).

The straightforward way to answer a regular path query over a run: search
the product of the run graph with the query DFA.  Each search is linear in
the run size, which the paper uses as the motivation for the labeling-based
approach (" [24] is too slow, we omit it"); here it serves two purposes:

* the correctness oracle for every other engine in the test suite, and
* a baseline in the ablation benchmarks.

The traversal was also promoted (generalized to many seeds at once, with
``allowed``-set pruning and macro transitions) into the production path as
:func:`repro.core.relations.frontier_search`; this module keeps its own
standalone copy of the plain search so the oracle stays *independent* of
the code it verifies.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.automata.dfa import DFA, dfa_from_regex
from repro.automata.regex import RegexNode, parse_regex
from repro.workflow.run import Run

__all__ = ["product_bfs_pairwise", "product_bfs_all_pairs", "product_dfa"]


def product_dfa(run: Run, query: str | RegexNode) -> DFA:
    """The minimal DFA of the query, completed over the run's tags."""
    return dfa_from_regex(parse_regex(query), run.tags())


def _accepting_targets(run: Run, dfa: DFA, source: str) -> set[str]:
    """All nodes ``v`` such that some path from ``source`` to ``v`` is accepted."""
    successors = run.successors
    accepting = dfa.accepting
    start_state = dfa.start
    result: set[str] = set()
    if start_state in accepting:
        result.add(source)
    seen = {(source, start_state)}
    stack = [(source, start_state)]
    while stack:
        node, state = stack.pop()
        transitions = dfa.transitions[state]
        for target, tag in successors[node]:
            next_state = transitions[tag]
            key = (target, next_state)
            if key in seen:
                continue
            seen.add(key)
            stack.append(key)
            if next_state in accepting:
                result.add(target)
    return result


def product_bfs_pairwise(run: Run, source: str, target: str, query: str | RegexNode) -> bool:
    """Does some path from ``source`` to ``target`` match the query?"""
    dfa = product_dfa(run, query)
    return target in _accepting_targets(run, dfa, source)


def product_bfs_all_pairs(
    run: Run,
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    query: str | RegexNode,
) -> set[tuple[str, str]]:
    """All pairs of ``l1 × l2`` matched by the query (one search per source)."""
    dfa = product_dfa(run, query)
    sources: Iterable[str] = l1 if l1 is not None else run.node_ids()
    targets = set(l2) if l2 is not None else set(run.node_ids())
    results: set[tuple[str, str]] = set()
    for source in sources:
        for node in _accepting_targets(run, dfa, source) & targets:
            results.add((source, node))
    return results
