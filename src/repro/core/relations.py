"""Node-pair relations, the join-based evaluation (Option G1) and the frontier sweep.

A regular path query over a run can always be evaluated bottom-up over the
query's parse tree, materializing for every subexpression the relation of
node pairs it connects and combining child relations with joins, unions and
fixpoints (Li & Moon [21]; Option G1 in Section IV-B).  The set-based
relational machinery here is that evaluation: the G1 baseline of the
experiments, the paper's evaluate-then-restrict decomposition
(:mod:`repro.baselines.paper_decomposition`) and the executable reference
semantics of the tests.

Relations are plain sets of ``(source node id, target node id)`` pairs, with
adjacency dictionaries built on the fly for joins; the transitive closure
uses semi-naive iteration.  Following the library-wide convention, the empty
path is admitted: ``ε`` and ``e*`` relate every node of the run to itself.

Production code evaluates an unsafe remainder one of two ways, fixed by the
request's shape:

* without node lists, :func:`evaluate_regex_relation_packed` runs the same
  bottom-up evaluation over the packed kernel of :mod:`repro.core.bitset`,
  reading the run's adjacency from the memoized ``run.packed`` view; that
  view numbers nodes in topological order, so the packed ``R+`` is one pass
  in reverse topological order (the semi-naive :func:`transitive_closure`
  here stays its reference);
* with node lists, :func:`frontier_search` walks the run once in
  topological order with one seed bitmask per (node, DFA state), inside the
  restriction universe below.

Two restriction-pushdown primitives keep the frontier's live state
proportional to the *requested* node lists instead of the whole run:

* ``restriction_universe`` computes the set of nodes that can lie on any
  source-to-target path (forward-reachable from ``l1`` intersected with
  backward-reachable from ``l2``, closed on the packed adjacency of the
  memoized ``run.packed`` view) — sound as a pruning filter because every
  node of a matching path is both reachable from its source and
  co-reachable from its target;
* ``frontier_search`` searches the product of the run graph with a query
  DFA from every seed at once (the production generalization of
  :mod:`repro.baselines.product_bfs`), pruned by that ``allowed`` set
  and extended with *macro transitions*: synthetic DFA symbols whose
  successors come from an already-materialized relation (the decomposition
  engine feeds the label-decoded relations of maximal safe subqueries
  through this hook).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.automata.dfa import DFA
from repro.core.bitset import PackedRelation, bit_indices, closure_mask
from repro.automata.regex import (
    AnySymbol,
    Concat,
    Epsilon,
    Plus,
    RegexNode,
    Star,
    Symbol,
    Union,
)
from repro.workflow.run import Run

__all__ = [
    "NodePairs",
    "tag_relation",
    "all_edge_relation",
    "identity_relation",
    "compose",
    "transitive_closure",
    "reflexive_transitive_closure",
    "restrict",
    "forward_closure_nodes",
    "backward_closure_nodes",
    "restriction_universe",
    "iter_frontier_search",
    "frontier_search",
    "evaluate_regex_relation",
    "evaluate_regex_relation_packed",
]

NodePairs = set[tuple[str, str]]


def tag_relation(run: Run, tag: str) -> NodePairs:
    """Pairs connected by a single edge with the given tag."""
    return {(edge.source, edge.target) for edge in run.edges_by_tag.get(tag, ())}


def all_edge_relation(run: Run) -> NodePairs:
    """Pairs connected by a single edge of any tag (the wildcard ``_``)."""
    return {(edge.source, edge.target) for edge in run.edges}


def identity_relation(nodes: Iterable[str]) -> NodePairs:
    """The diagonal relation over a node universe (the empty path)."""
    return {(node, node) for node in nodes}


def _forward_index(relation: NodePairs) -> dict[str, set[str]]:
    index: dict[str, set[str]] = {}
    for source, target in relation:
        index.setdefault(source, set()).add(target)
    return index


def compose(left: NodePairs, right: NodePairs) -> NodePairs:
    """Relational composition: ``{(a, c) | (a, b) ∈ left, (b, c) ∈ right}``.

    The smaller side drives the join to keep intermediate work proportional
    to the output.
    """
    if not left or not right:
        return set()
    right_index = _forward_index(right)
    result: NodePairs = set()
    for source, middle in left:
        targets = right_index.get(middle)
        if targets:
            for target in targets:
                result.add((source, target))
    return result


def transitive_closure(relation: NodePairs) -> NodePairs:
    """``R+``: one or more steps of ``R`` (semi-naive fixpoint iteration)."""
    closure: NodePairs = set(relation)
    index = _forward_index(relation)
    frontier = set(relation)
    while frontier:
        next_frontier: NodePairs = set()
        for source, middle in frontier:
            for target in index.get(middle, ()):
                pair = (source, target)
                if pair not in closure:
                    closure.add(pair)
                    next_frontier.add(pair)
        frontier = next_frontier
    return closure


def reflexive_transitive_closure(relation: NodePairs, nodes: Iterable[str]) -> NodePairs:
    """``R*``: the transitive closure plus the diagonal over the universe."""
    return transitive_closure(relation) | identity_relation(nodes)


def restrict(
    relation: NodePairs, l1: Sequence[str] | None, l2: Sequence[str] | None
) -> NodePairs:
    """Keep only pairs with the source in ``l1`` and the target in ``l2``."""
    if l1 is None and l2 is None:
        return relation
    sources = None if l1 is None else set(l1)
    targets = None if l2 is None else set(l2)
    return {
        (source, target)
        for source, target in relation
        if (sources is None or source in sources)
        and (targets is None or target in targets)
    }


def forward_closure_nodes(run: Run, seeds: Iterable[str]) -> frozenset[str]:
    """All nodes reachable from any seed, including the seeds themselves
    (seed ids not present in the run are silently dropped).

    Runs on the memoized packed view: one word-parallel wavefront per BFS
    level over the run's any-tag rows instead of a per-edge set walk.
    """
    view = run.packed
    reach = closure_mask(view.any_tag, view.interner.mask_of(seeds))
    return frozenset(view.interner.nodes_of(reach))


def backward_closure_nodes(run: Run, seeds: Iterable[str]) -> frozenset[str]:
    """All nodes that reach any seed, including the seeds themselves
    (seed ids not present in the run are silently dropped)."""
    view = run.packed
    reach = closure_mask(view.backward_any_tag, view.interner.mask_of(seeds))
    return frozenset(view.interner.nodes_of(reach))


def restriction_universe(
    run: Run, l1: Sequence[str] | None, l2: Sequence[str] | None
) -> frozenset[str] | None:
    """The nodes that can lie on any path from ``l1`` to ``l2``.

    Every node of a path from a source in ``l1`` to a target in ``l2`` is
    reachable from that source and reaches that target, so the forward
    closure of ``l1`` intersected with the backward closure of ``l2`` is a
    sound universe for *every* intermediate relation of the query — the
    restriction-pushdown filter.  ``None`` (either side, or the result when
    both sides are ``None``) means unconstrained.
    """
    if l1 is None and l2 is None:
        return None
    forward = forward_closure_nodes(run, l1) if l1 is not None else None
    backward = backward_closure_nodes(run, l2) if l2 is not None else None
    if forward is None:
        return backward
    if backward is None:
        return forward
    return forward & backward


def iter_frontier_search(
    adjacency: Mapping[str, Sequence[tuple[str, str]]],
    dfa: DFA,
    seeds: Iterable[str],
    *,
    order: Iterable[str],
    allowed: frozenset[str] | set[str] | None = None,
    emit_filter: frozenset[str] | set[str] | None = None,
    macro_successors: Mapping[str, Callable[[str], Iterable[str]]] | None = None,
    forward: bool = True,
) -> Iterator[tuple[str, str]]:
    """One multi-source product search from every seed at once.

    ``adjacency[node]`` lists ``(neighbor, tag)`` pairs and ``order`` lists
    the run's nodes so that every edge points forward in it: forward searches
    pass ``run.successors`` with ``run.topological_order``, backward searches
    pass ``run.predecessors``, the reversed order and a reversed DFA.  Runs
    are DAGs, so one pass in that order settles every product state: each
    node carries ``{DFA state: bitmask of the seeds that reach it}``, ORs
    those masks into its neighbors under the DFA transitions and drops them
    once passed (the bit-parallel multi-source BFS of Then et al., PVLDB
    2014).  A node reached in an accepting state by seed ``i`` yields the
    pair ``(seed, node)`` forward or ``(node, seed)`` backward, if the node
    passes ``emit_filter``; pairs stream per node as the sweep passes it,
    each exactly once.

    ``macro_successors[tag](node)`` supplies the neighbors of ``node`` under
    a synthetic macro symbol — a label-decoded safe subquery's relation —
    expanded only when some live state has a transition on it.  Those
    relations follow run paths, so they point forward in ``order`` too,
    except for the diagonal pairs of a subquery that accepts the empty path;
    those are closed over the node's DFA states before it propagates.
    States at nodes outside ``allowed`` are pruned.  A duplicate seed counts
    once; seeds absent from ``adjacency`` or outside ``allowed`` contribute
    nothing.
    """
    sources = [
        seed
        for seed in dict.fromkeys(seeds)
        if seed in adjacency and (allowed is None or seed in allowed)
    ]
    if not sources:
        return
    # A seed's bit enters the sweep when the sweep reaches the seed, so no
    # mask exists before its node is due.
    bit_of = {seed: bit for bit, seed in enumerate(sources)}
    unstarted = len(sources)
    # Transitions into the dead state are dropped once, up front: a missing
    # row entry is then the only way a product state dies.
    dead = dfa.dead_state()
    rows = [
        {tag: state for tag, state in row.items() if state != dead}
        for row in dfa.transitions
    ]
    start = dfa.start
    accepting = dfa.accepting
    macros = macro_successors or {}
    live: dict[str, dict[int, int]] = {}
    for node in order:
        states = live.pop(node, None)
        bit = bit_of.get(node)
        if bit is not None:
            unstarted -= 1
            if states is None:
                states = {}
            states[start] = states.get(start, 0) | 1 << bit
        elif states is None:
            continue
        edges: Sequence[tuple[str, str]] = adjacency[node]
        if macros:
            expanded: dict[str, tuple[str, ...]] = {}
            pending = list(states)
            while pending:
                state = pending.pop()
                row = rows[state]
                for tag, expand in macros.items():
                    target_state = row.get(tag)
                    if target_state is None:
                        continue
                    if tag not in expanded:
                        expanded[tag] = tuple(expand(node))
                    if node not in expanded[tag]:
                        continue
                    # A diagonal macro pair: the subquery matches the empty
                    # path here, so the state's seeds reach (node,
                    # target_state) without leaving the node.
                    before = states.get(target_state, 0)
                    after = before | states[state]
                    if after != before:
                        states[target_state] = after
                        pending.append(target_state)
            if expanded:
                edges = [
                    *edges,
                    *(
                        (target, tag)
                        for tag, targets in expanded.items()
                        for target in targets
                        if target != node
                    ),
                ]
        hits = 0
        for state, mask in states.items():
            if state in accepting:
                hits |= mask
        if hits and (emit_filter is None or node in emit_filter):
            for bit in bit_indices(hits):
                yield (sources[bit], node) if forward else (node, sources[bit])
        for state, mask in states.items():
            row = rows[state]
            for target, tag in edges:
                target_state = row.get(tag)
                if target_state is None or (allowed is not None and target not in allowed):
                    continue
                bucket = live.get(target)
                if bucket is None:
                    live[target] = {target_state: mask}
                else:
                    bucket[target_state] = bucket.get(target_state, 0) | mask
        if not unstarted and not live:
            return


def frontier_search(
    adjacency: Mapping[str, Sequence[tuple[str, str]]],
    dfa: DFA,
    seeds: Iterable[str],
    *,
    order: Iterable[str],
    allowed: frozenset[str] | set[str] | None = None,
    emit_filter: frozenset[str] | set[str] | None = None,
    macro_successors: Mapping[str, Callable[[str], Iterable[str]]] | None = None,
    forward: bool = True,
) -> list[tuple[str, str]]:
    """The pairs of :func:`iter_frontier_search`, materialized by one call."""
    return list(
        iter_frontier_search(
            adjacency,
            dfa,
            seeds,
            order=order,
            allowed=allowed,
            emit_filter=emit_filter,
            macro_successors=macro_successors,
            forward=forward,
        )
    )


def evaluate_regex_relation(
    run: Run,
    node: RegexNode,
    *,
    subquery_evaluator: Callable[[RegexNode], "NodePairs | None"] | None = None,
) -> NodePairs:
    """Bottom-up join-based evaluation of a query over a run (Option G1).

    ``subquery_evaluator(node) -> NodePairs | None`` optionally intercepts
    subtrees (the paper's decomposition scheme passes a hook that answers
    *safe* subtrees with the labeling-based all-pairs algorithm and returns
    ``None`` for everything else).
    """
    if subquery_evaluator is not None:
        shortcut = subquery_evaluator(node)
        if shortcut is not None:
            return shortcut
    if isinstance(node, Epsilon):
        return identity_relation(run.node_ids())
    if isinstance(node, Symbol):
        return tag_relation(run, node.tag)
    if isinstance(node, AnySymbol):
        return all_edge_relation(run)
    if isinstance(node, Concat):
        relation: NodePairs | None = None
        for part in node.parts:
            part_relation = evaluate_regex_relation(
                run, part, subquery_evaluator=subquery_evaluator
            )
            relation = part_relation if relation is None else compose(relation, part_relation)
            if not relation:
                return set()
        return relation if relation is not None else identity_relation(run.node_ids())
    if isinstance(node, Union):
        result: NodePairs = set()
        for part in node.parts:
            result |= evaluate_regex_relation(run, part, subquery_evaluator=subquery_evaluator)
        return result
    if isinstance(node, Star):
        inner = evaluate_regex_relation(run, node.child, subquery_evaluator=subquery_evaluator)
        return reflexive_transitive_closure(inner, run.node_ids())
    if isinstance(node, Plus):
        inner = evaluate_regex_relation(run, node.child, subquery_evaluator=subquery_evaluator)
        return transitive_closure(inner)
    raise TypeError(f"unknown regex node {node!r}")


def evaluate_regex_relation_packed(
    run: Run,
    node: RegexNode,
    *,
    subquery_evaluator: Callable[[RegexNode], "NodePairs | None"] | None = None,
) -> PackedRelation:
    """:func:`evaluate_regex_relation` on the packed kernel.

    Same contract and results as the set-based evaluation (the Hypothesis
    equivalence suite holds the two paths together); only the representation
    differs.  Leaves come straight from the memoized ``run.packed`` rows;
    compositions, unions and closures are word-parallel
    :class:`~repro.core.bitset.PackedRelation` algebra over
    ``run.packed.interner``.  Safe subtrees intercepted by
    ``subquery_evaluator`` arrive as node-pair sets (the label-decode output)
    and are packed at the boundary.  The caller unpacks the root relation.
    """
    view = run.packed
    interner = view.interner
    node_count = len(interner)
    if subquery_evaluator is not None:
        shortcut = subquery_evaluator(node)
        if shortcut is not None:
            return PackedRelation.from_pairs(interner, shortcut)
    if isinstance(node, Epsilon):
        return PackedRelation.identity(node_count)
    if isinstance(node, Symbol):
        adjacency = view.by_tag.get(node.tag)
        if adjacency is None:
            return PackedRelation.empty(node_count)
        return PackedRelation(node_count, adjacency.rows)
    if isinstance(node, AnySymbol):
        return PackedRelation(node_count, view.any_tag.rows)
    if isinstance(node, Concat):
        relation: PackedRelation | None = None
        for part in node.parts:
            part_relation = evaluate_regex_relation_packed(
                run, part, subquery_evaluator=subquery_evaluator
            )
            relation = part_relation if relation is None else relation.compose(part_relation)
            if relation.is_empty():
                return PackedRelation.empty(node_count)
        return relation if relation is not None else PackedRelation.identity(node_count)
    if isinstance(node, Union):
        result = PackedRelation.empty(node_count)
        for part in node.parts:
            result = result.union(
                evaluate_regex_relation_packed(run, part, subquery_evaluator=subquery_evaluator)
            )
        return result
    if isinstance(node, (Star, Plus)):
        closed = evaluate_regex_relation_packed(
            run, node.child, subquery_evaluator=subquery_evaluator
        ).transitive_closure()
        return closed.with_diagonal() if isinstance(node, Star) else closed
    raise TypeError(f"unknown regex node {node!r}")
