"""The frontier search one seed at a time: the comparator of the sweep.

The unsafe remainder of a general query is answered by a product search over
the run × query DFA (Section IV-B).  The production executor answers every
seed of a :class:`~repro.core.exec.FrontierSearchOp` in one topological
sweep (:func:`repro.core.relations.frontier_search`).  Before that, it ran
one depth-first product search per seed, which is what this module keeps:
the same pruning (``allowed``), macro transitions, emit filter and pair
orientation, searched seed by seed.  It is the slow arm of the bench
catalog's ``sweep-beats-per-seed`` invariant and a reference of the
differential tests.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Iterable, Mapping, Sequence

from repro.automata.dfa import DFA
from repro.automata.regex import RegexNode
from repro.core.decomposition import DecompositionPlan, plan_decomposition
from repro.core.exec import FrontierSearchOp, PhysicalPlan, build_physical_plan
from repro.core.query_index import build_query_index
from repro.core.relations import NodePairs
from repro.workflow.run import Run

__all__ = ["per_seed_all_pairs", "per_seed_execute", "per_seed_frontier_search"]


def _search(
    adjacency: Mapping[str, Sequence[tuple[str, str]]],
    dfa: DFA,
    seed: str,
    allowed: frozenset[str] | set[str] | None,
    macro_successors: Mapping[str, Callable[[str], Iterable[str]]] | None,
) -> set[str]:
    """The nodes one seed reaches in an accepting state (depth-first)."""
    if seed not in adjacency or (allowed is not None and seed not in allowed):
        return set()
    accepting = dfa.accepting
    transitions = dfa.transitions
    dead = dfa.dead_state()
    result: set[str] = set()
    if dfa.start in accepting:
        result.add(seed)
    seen = {(seed, dfa.start)}
    stack = [(seed, dfa.start)]
    while stack:
        node, state = stack.pop()
        row = transitions[state]
        edges: Iterable[tuple[str, str]] = adjacency[node]
        if macro_successors:
            extra = [
                (target, tag)
                for tag, expand in macro_successors.items()
                if row.get(tag, dead) != dead
                for target in expand(node)
            ]
            if extra:
                edges = list(edges) + extra
        for target, tag in edges:
            next_state = row.get(tag, dead)
            if next_state is None or next_state == dead:
                continue
            if allowed is not None and target not in allowed:
                continue
            key = (target, next_state)
            if key in seen:
                continue
            seen.add(key)
            stack.append(key)
            if next_state in accepting:
                result.add(target)
    return result


def per_seed_frontier_search(
    adjacency: Mapping[str, Sequence[tuple[str, str]]],
    dfa: DFA,
    seeds: Iterable[str],
    *,
    allowed: frozenset[str] | set[str] | None = None,
    emit_filter: frozenset[str] | set[str] | None = None,
    macro_successors: Mapping[str, Callable[[str], Iterable[str]]] | None = None,
    forward: bool = True,
) -> list[tuple[str, str]]:
    """:func:`repro.core.relations.frontier_search`'s pairs, one search per
    distinct seed: forward hits are targets, backward hits are sources."""
    pairs: list[tuple[str, str]] = []
    for seed in dict.fromkeys(seeds):
        hits = _search(adjacency, dfa, seed, allowed, macro_successors)
        if emit_filter is not None:
            hits &= emit_filter
        if forward:
            pairs.extend((seed, hit) for hit in hits)
        else:
            pairs.extend((hit, seed) for hit in hits)
    return pairs


def per_seed_execute(physical: PhysicalPlan) -> NodePairs:
    """Answer a frontier plan's operator with one search per seed.

    The operator's positions and flag arrays are turned back into node ids
    once per call, so the string search below stays independent of the
    sweep's integer view."""
    op = physical.root
    if not isinstance(op, FrontierSearchOp):
        raise TypeError(f"expected a frontier plan, got {op!r}")
    run = physical.run
    interner = run.packed.interner
    ids, index = interner.ids, interner.index
    forward = op.direction == "forward"

    def id_set(flags: bytes | None) -> frozenset[str] | None:
        return None if flags is None else frozenset(compress(ids, flags))

    def by_id(expand: Callable[[int], Iterable[int]]) -> Callable[[str], list[str]]:
        return lambda node: [ids[position] for position in expand(index[node])]

    macro_successors = {
        tag: by_id(relation.expander(op.direction)) for tag, relation in op.macros.items()
    }
    return set(
        per_seed_frontier_search(
            run.successors if forward else run.predecessors,
            op.dfa,
            [ids[seed] for seed in op.seeds],
            allowed=id_set(op.allowed),
            emit_filter=id_set(op.emit_filter),
            macro_successors=macro_successors or None,
            forward=forward,
        )
    )


def per_seed_all_pairs(
    run: Run,
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    query: str | RegexNode,
    *,
    plan: DecompositionPlan | None = None,
    direction: str = "auto",
) -> NodePairs:
    """A general query's ``l1 × l2`` answer through the production frontier
    plan, searched one seed at a time."""
    plan = plan if plan is not None else plan_decomposition(run.spec, query)
    physical = build_physical_plan(
        run,
        plan,
        l1,
        l2,
        indexes=lambda node: build_query_index(run.spec, node),
        direction=direction,
    )
    return per_seed_execute(physical)
