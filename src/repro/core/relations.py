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

Both primitives of that second path run on the integer form of the run
(``run.packed``: node positions in topological order, tag ids, per-position
neighbour tuples), so they hash no node-id string:

* ``restriction_universe`` flags the nodes that can lie on any
  source-to-target path (forward-reachable from ``l1`` intersected with
  backward-reachable from ``l2``, each one flag pass over the positions) —
  sound as a pruning filter because every node of a matching path is both
  reachable from its source and co-reachable from its target;
* ``frontier_search`` searches the product of the run graph with a query
  DFA from every seed at once (the production generalization of
  :mod:`repro.baselines.product_bfs`), pruned by those flags and extended
  with *macro transitions*: synthetic DFA symbols whose successors come from
  an already-materialized relation (the decomposition engine feeds the
  label-decoded relations of maximal safe subqueries through this hook).
  Its sweep core reports each emitting node's hit mask, and
  ``frontier_search`` folds those masks into a packed relation.

Both paths return the unsafe answer whole, as that packed relation: at most
one bit per (source, target) position pair of the run rather than one tuple
per answer pair.  The service unpacks it in sorted order; the engine's
stream unpacks it unordered.  Only safe answers stream lazily, in constant
memory, out of the label decode.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.automata.dfa import DFA
from repro.core.bitset import IntAdjacency, PackedRelation, PackedRunView, bit_indices
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
from repro.obs import Span
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
    "restriction_universe",
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


def _reach_flags(adjacency: IntAdjacency, seeds: Sequence[int], forward: bool) -> bytearray:
    """The flags of every node reachable from ``seeds``, seeds included.

    One pass over the flagged positions: ascending from the lowest seed
    along successors, or descending from the highest seed along
    predecessors.  Every edge points to a higher position, so a node's flag
    is final before the pass reaches it; ``find``/``rfind`` skip unflagged
    stretches at C speed.
    """
    flags = bytearray(len(adjacency))
    for seed in seeds:
        flags[seed] = 1
    if 0 not in flags:
        return flags
    if forward:
        position = flags.find(1)
        while position >= 0:
            for successor, _ in adjacency[position]:
                flags[successor] = 1
            position = flags.find(1, position + 1)
    else:
        position = flags.rfind(1)
        while position >= 0:
            for predecessor, _ in adjacency[position]:
                flags[predecessor] = 1
            position = flags.rfind(1, 0, position)
    return flags


def restriction_universe(
    run: Run, l1: Sequence[str] | None, l2: Sequence[str] | None
) -> bytes | None:
    """The nodes that can lie on any path from ``l1`` to ``l2``, as one flag
    byte per position of ``run.packed.interner``.

    Every node of a path from a source in ``l1`` to a target in ``l2`` is
    reachable from that source and reaches that target, so the forward
    closure of ``l1`` intersected with the backward closure of ``l2`` is a
    sound universe for *every* intermediate relation of the query — the
    restriction-pushdown filter.  A missing side is unconstrained, and ids
    absent from the run are dropped.  Each closure is one flag pass over the
    topologically numbered run; the two sides meet in one integer ``&``.
    ``None`` means every node is allowed: both sides are ``None``, or the
    closures cover the whole run.
    """
    if l1 is None and l2 is None:
        return None
    view = run.packed
    sides = [
        _reach_flags(adjacency, view.interner.positions(side), forward)
        for side, adjacency, forward in (
            (l1, view.successors, True),
            (l2, view.predecessors, False),
        )
        if side is not None
    ]
    if len(sides) == 1:
        flags = bytes(sides[0])
    else:
        forward_flags, backward_flags = sides
        both = int.from_bytes(forward_flags, "little") & int.from_bytes(
            backward_flags, "little"
        )
        flags = both.to_bytes(len(forward_flags), "little")
    return None if 0 not in flags else flags


def _sweep(
    view: PackedRunView,
    dfa: DFA,
    sources: list[int],
    allowed: bytes | None,
    emit_filter: bytes | None,
    macros: Mapping[str, Callable[[int], Sequence[int]]] | None,
    forward: bool,
    span: Span | None,
) -> Iterator[tuple[int, int]]:
    """The sweep core: ``(position, hit mask)`` once per emitting node.

    Bit ``i`` of a hit mask stands for ``sources[i]``, which must be
    distinct allowed positions.  See :func:`frontier_search` for the search
    itself.
    """
    visited = 0
    try:
        if not sources:
            return
        node_count = len(view.interner)
        adjacency = view.successors if forward else view.predecessors
        macro_tags = tuple(macros) if macros else ()
        rows, accepting = view.dense_dfa(dfa, macro_tags)
        # Macro symbols are numbered after the run's tags.
        expanders = [
            (len(view.tags) + offset, expand)
            for offset, expand in enumerate((macros or {}).values())
        ]
        start = dfa.start
        live: list[dict[int, int] | None] = [None] * node_count
        for bit, seed in enumerate(sources):
            live[seed] = {start: 1 << bit}
        pending = len(sources)
        if forward:
            order = range(min(sources), node_count)
        else:
            order = range(max(sources), -1, -1)
        for node in order:
            states = live[node]
            if states is None:
                continue
            live[node] = None
            pending -= 1
            visited += 1
            edges: Sequence[tuple[int, int]] = adjacency[node]
            if expanders:
                edges = _expand_macros(node, states, rows, expanders, edges)
            hits = 0
            for state, mask in states.items():
                if accepting[state]:
                    hits |= mask
                row = rows[state]
                for target, symbol in edges:
                    target_state = row[symbol]
                    if target_state is None or (allowed is not None and not allowed[target]):
                        continue
                    bucket = live[target]
                    if bucket is None:
                        live[target] = {target_state: mask}
                        pending += 1
                    else:
                        bucket[target_state] = bucket.get(target_state, 0) | mask
            if hits and (emit_filter is None or emit_filter[node]):
                yield node, hits
            if not pending:
                return
    finally:
        if span is not None:
            span.set("visited", visited)


def _sources(seeds: Iterable[int], allowed: bytes | None) -> list[int]:
    """The distinct allowed seeds, in first-seen order: bit ``i`` of every
    sweep mask stands for entry ``i``."""
    return [seed for seed in dict.fromkeys(seeds) if allowed is None or allowed[seed]]


def _expand_macros(
    node: int,
    states: dict[int, int],
    rows: list[list[int | None]],
    expanders: list[tuple[int, Callable[[int], Sequence[int]]]],
    edges: Sequence[tuple[int, int]],
) -> Sequence[tuple[int, int]]:
    """``node``'s run edges plus the macro edges a live state can take.

    A diagonal macro pair — the subquery matched the empty path here — lets
    the state's seeds reach (node, target state) without leaving the node,
    so ``states`` is closed over those transitions in place first.
    """
    expanded: dict[int, Sequence[int]] = {}
    pending = list(states)
    while pending:
        state = pending.pop()
        row = rows[state]
        for symbol, expand in expanders:
            target_state = row[symbol]
            if target_state is None:
                continue
            targets = expanded.get(symbol)
            if targets is None:
                targets = expanded[symbol] = expand(node)
            if node not in targets:
                continue
            before = states.get(target_state, 0)
            after = before | states[state]
            if after != before:
                states[target_state] = after
                pending.append(target_state)
    if not expanded:
        return edges
    return [
        *edges,
        *(
            (target, symbol)
            for symbol, targets in expanded.items()
            for target in targets
            if target != node
        ),
    ]


def frontier_search(
    view: PackedRunView,
    dfa: DFA,
    seeds: Iterable[int],
    *,
    allowed: bytes | None = None,
    emit_filter: bytes | None = None,
    macros: Mapping[str, Callable[[int], Sequence[int]]] | None = None,
    forward: bool = True,
    span: Span | None = None,
) -> PackedRelation:
    """One multi-source product search from every seed at once, as one
    packed relation over ``view.interner`` (source-major rows), with no node
    id touched.

    ``seeds`` are positions of ``view.interner``.  A forward search follows
    ``view.successors`` in ascending positions; a backward search follows
    ``view.predecessors`` in descending positions and takes a reversed DFA.
    Runs are DAGs numbered in topological order, so one pass settles every
    product state: each node carries ``{DFA state: bitmask of the seeds that
    reach it}``, ORs those masks into its neighbours under the DFA
    transitions and drops them once passed (the bit-parallel multi-source BFS
    of Then et al., PVLDB 2014).  A node reached in an accepting state by
    seed ``i`` matches the pair ``(seed, node)`` forward or ``(node, seed)``
    backward, if the node's ``emit_filter`` flag is set.  A backward hit
    mask already lists the seeds a source reaches, so it maps to that
    source's row once per distinct mask; forward hits are transposed once,
    each seed's row gathering the nodes it reached.

    ``macros[tag](position)`` supplies the neighbour positions of a node
    under a synthetic macro symbol — a label-decoded safe subquery's
    relation — expanded only when some live state has a transition on it.
    Those relations follow run paths, so they point the sweep's way too,
    except for the diagonal pairs of a subquery that accepts the empty path;
    those are closed over the node's DFA states before it propagates.
    States at nodes whose ``allowed`` flag is clear are pruned.  A duplicate
    seed counts once; a disallowed seed contributes nothing.  When the sweep
    ends, ``span`` (if given) gets ``visited``: how many nodes it reached.
    """
    sources = _sources(seeds, allowed)
    rows = [0] * len(view.interner)
    hits_of = _sweep(view, dfa, sources, allowed, emit_filter, macros, forward, span)
    if forward:
        reached = [0] * len(sources)
        bits_of: dict[int, list[int]] = {}
        for node, hits in hits_of:
            bits = bits_of.get(hits)
            if bits is None:
                bits = bits_of[hits] = bit_indices(hits)
            node_bit = 1 << node
            for bit in bits:
                reached[bit] |= node_bit
        for source, row in zip(sources, reached):
            rows[source] = row
    else:
        row_of: dict[int, int] = {}
        for node, hits in hits_of:
            row = row_of.get(hits)
            if row is None:
                row = 0
                for bit in bit_indices(hits):
                    row |= 1 << sources[bit]
                row_of[hits] = row
            rows[node] = row
    return PackedRelation(len(rows), rows)


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
