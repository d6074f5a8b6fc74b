"""All-pairs safe queries (Algorithm 2 of the paper), with vectorized decoding.

Given two lists of run nodes ``l1`` and ``l2``, an all-pairs query asks for
every pair ``(u, v) ∈ l1 × l2`` with ``u —R→ v``.  The evaluator has two
parts:

* **the structural join** — represent each list as a label trie (a
  projection of the compressed parse tree, Fig. 12) and merge the two tries
  structurally to enumerate only the *reachable* pairs.  The traversal is the
  paper's Algorithm 2: at a composite parse-tree node, children of different
  body positions contribute all their leaves when one position reaches the
  other in the production body; at a recursive (``R``) node, an earlier
  chain member contributes the leaves under its "red" branches (branches
  that reach the recursive position) against everything under later
  members, and symmetrically "blue" branches for the other direction.
* **group-at-a-time decoding ("optRPL-G")** — exploit that all members of a
  group ``(U, V)`` emitted by the structural join share the same *crossing
  context*: the Algorithm-1 decode of any ``(u, v)`` in the group factors as

      ``exit(u → U's trie node) @ context @ enter(V's trie node → v)``

  where ``context`` (a crossing matrix, possibly composed with a chain
  descent/ascent) is constant across the group.  Instead of |U| · |V| full
  matrix chains, the evaluator memoizes per-trie-node *state vectors*: for
  every leaf ``u`` the row vector ``start-state @ exit(...)`` and for every
  leaf ``v`` the column vector ``enter(...) @ accepting-states``, each built
  bottom-up with one matrix-vector product per (leaf, ancestor) and shared by
  every group that touches the node.  A group then costs one matrix-vector
  product per member (pushing the row vectors through ``context``) plus a
  single bitmask intersection per pair.

The paper's per-pair strategies — S1 (decode every pair of the cross
product) and S2 / optRPL (decode every reachable pair) — live in
:mod:`repro.baselines.rpl_per_pair` as the experiments' reference points.

:func:`all_pairs_reachability` is the special case ``R = _*`` which skips the
per-pair decode entirely and therefore runs in time linear in the input plus
output size (plus a polynomial in the specification size), which is the
optimality claim of Lemma 4.1's side effect.

The structural join deduplicates the input lists, and its groups partition
the reachable pairs, so every pair is decoded (or emitted) exactly once —
including pairs that *fail* the query filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from repro.automata.boolean_matrix import BooleanMatrix
from repro.core.pairwise import enter_step_matrix, exit_step_matrix
from repro.core.query_index import QueryIndex
from repro.errors import LabelError
from repro.labeling.labels import ProductionStep, RecursionStep
from repro.labeling.parse_tree import LabelTrie, TrieNode
from repro.obs import get_tracer
from repro.workflow.run import Run
from repro.workflow.spec import Specification

__all__ = [
    "StructuralGroup",
    "all_pairs_safe_query",
    "all_pairs_iter",
    "all_pairs_reachability",
    "structural_join",
]


# ---------------------------------------------------------------------------
# Structural traversal (the reachable-pair enumeration of Algorithm 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralGroup:
    """One group of the structural join: every leaf under ``source`` reaches
    every leaf under ``target`` (payloads *at* the nodes for identity
    groups, which pair a label with itself).

    ``context`` builds the group's crossing-context matrix for a query index
    (the constant middle factor of every member pair's Algorithm-1 decode);
    ``None`` stands for the identity relation (the empty path).
    """

    source: TrieNode
    target: TrieNode
    payload_only: bool = False
    context: Callable[[QueryIndex], BooleanMatrix] | None = None

    def source_ids(self) -> list[str]:
        return list(self.source.payload) if self.payload_only else self.source.leaves()

    def target_ids(self) -> list[str]:
        return list(self.target.payload) if self.payload_only else self.target.leaves()


def _children_kind(node: TrieNode) -> str:
    kinds = {type(step) for step in node.children}
    if not kinds:
        return "leaf"
    if kinds == {ProductionStep}:
        return "production"
    if kinds == {RecursionStep}:
        return "recursion"
    raise LabelError("a parse-tree node mixes production and recursion children")


def _is_red(spec: Specification, step: ProductionStep, recursive_position: int) -> bool:
    """A branch is red when its position reaches the recursive position."""
    return spec.production(step.production).body.reaches(step.position, recursive_position)


def _is_blue(spec: Specification, step: ProductionStep, recursive_position: int) -> bool:
    """A branch is blue when the recursive position reaches it."""
    return spec.production(step.production).body.reaches(recursive_position, step.position)


def structural_join(
    trie1: LabelTrie, trie2: LabelTrie, spec: Specification
) -> Iterator[StructuralGroup]:
    """Enumerate the groups of Algorithm 2's structural join.

    Every ``u`` under a group's source node reaches every ``v`` under its
    target node, and — provided the tries hold each leaf identifier once —
    every reachable pair of leaves is covered by exactly one group.
    """

    def cross_context(
        production: int, source: int, target: int
    ) -> Callable[[QueryIndex], BooleanMatrix]:
        def build(index: QueryIndex) -> BooleanMatrix:
            return index.cross(production, source, target)

        return build

    def red_context(
        production: int, position: int, recursive_position: int,
        cycle: int, start: int, first: int, last: int,
    ) -> Callable[[QueryIndex], BooleanMatrix]:
        # Crossing out of a red branch, then descending the recursion chain
        # to the later member (Algorithm 1's decode for diverging ordinals).
        def build(index: QueryIndex) -> BooleanMatrix:
            crossing = index.cross(production, position, recursive_position)
            if crossing.is_zero():
                return crossing
            return crossing @ index.descend_chain(cycle, start, first, last)

        return build

    def blue_context(
        production: int, position: int, recursive_position: int,
        cycle: int, start: int, first: int, last: int,
    ) -> Callable[[QueryIndex], BooleanMatrix]:
        # Climbing out of the nesting to the earlier member, then crossing
        # from the recursive position into a blue branch.
        def build(index: QueryIndex) -> BooleanMatrix:
            crossing = index.cross(production, recursive_position, position)
            if crossing.is_zero():
                return crossing
            return index.ascend_chain(cycle, start, first, last) @ crossing

        return build

    def visit(node1: TrieNode, node2: TrieNode) -> Iterator[StructuralGroup]:
        if node1.payload and node2.payload:
            # Identical labels: the same node appears in both lists (the empty
            # path makes it reachable from itself).
            yield StructuralGroup(node1, node2, payload_only=True)

        kind1 = _children_kind(node1)
        kind2 = _children_kind(node2)
        if kind1 == "leaf" or kind2 == "leaf":
            return
        if kind1 != kind2:
            raise LabelError("the two label tries disagree on the parse-tree structure")

        if kind1 == "production":
            # Case 1: children belong to the same simple workflow.
            for step1, child1 in node1.children.items():
                for step2, child2 in node2.children.items():
                    if step1.production != step2.production:
                        raise LabelError(
                            "sibling labels use different productions for the same node"
                        )
                    if step1.position == step2.position:
                        yield from visit(child1, child2)
                    elif spec.production(step1.production).body.reaches(
                        step1.position, step2.position
                    ):
                        yield StructuralGroup(
                            child1,
                            child2,
                            context=cross_context(
                                step1.production, step1.position, step2.position
                            ),
                        )
            return

        # Case 2: children are members of the same recursion chain.
        cycles = spec.production_graph.cycles
        children1 = node1.sorted_children()
        children2 = node2.sorted_children()
        by_ordinal2 = {step.ordinal: child for step, child in children2}
        for step1, child1 in children1:
            # Same ordinal: recurse into the same chain member.
            same = by_ordinal2.get(step1.ordinal)
            if same is not None:
                yield from visit(child1, same)

        for step1, child1 in children1:
            # A chain member can only reach *later* members through the
            # recursive position of its cycle production; the last member of a
            # chain fired a different production and has no red branches.
            cycle = cycles[step1.cycle]
            cycle_production, recursive_position = cycle.step(
                cycle.chain_offset(step1.start, step1.ordinal)
            )
            red_branches = [
                (branch_step, branch)
                for branch_step, branch in child1.children.items()
                if isinstance(branch_step, ProductionStep)
                and branch_step.production == cycle_production
                and _is_red(spec, branch_step, recursive_position)
            ]
            if not red_branches:
                continue
            for step2, child2 in children2:
                if step2.ordinal <= step1.ordinal:
                    continue
                for branch_step, branch in red_branches:
                    yield StructuralGroup(
                        branch,
                        child2,
                        context=red_context(
                            cycle_production,
                            branch_step.position,
                            recursive_position,
                            step1.cycle,
                            step1.start,
                            step1.ordinal + 1,
                            step2.ordinal - 1,
                        ),
                    )

        for step2, child2 in children2:
            cycle = cycles[step2.cycle]
            cycle_production, recursive_position = cycle.step(
                cycle.chain_offset(step2.start, step2.ordinal)
            )
            blue_branches = [
                (branch_step, branch)
                for branch_step, branch in child2.children.items()
                if isinstance(branch_step, ProductionStep)
                and branch_step.production == cycle_production
                and _is_blue(spec, branch_step, recursive_position)
            ]
            if not blue_branches:
                continue
            for step1, child1 in children1:
                if step1.ordinal <= step2.ordinal:
                    continue
                for branch_step, branch in blue_branches:
                    yield StructuralGroup(
                        child1,
                        branch,
                        context=blue_context(
                            cycle_production,
                            branch_step.position,
                            recursive_position,
                            step2.cycle,
                            step2.start,
                            step1.ordinal - 1,
                            step2.ordinal + 1,
                        ),
                    )

    if trie1.is_empty() or trie2.is_empty():
        return
    yield from visit(trie1.root, trie2.root)


# ---------------------------------------------------------------------------
# Group-at-a-time vectorized decoding (optRPL-G)
# ---------------------------------------------------------------------------


class _VectorTables:
    """Per-trie-node state-vector tables for one query index.

    ``alphas(node)`` lists ``(leaf id, row vector)`` for every leaf under the
    node, where the vector is the DFA start state pushed through the exit
    walk from the leaf up to the node.  ``betas(node)`` lists ``(leaf id,
    column vector)``: the accepting states pulled through the entry walk from
    the node down to the leaf.  A pair ``(u, v)`` of a group with context
    matrix ``C`` matches the query iff ``(alpha_u @ C) & beta_v`` is
    non-empty — exactly Algorithm 1's ``exit @ C @ enter`` relation probed at
    (start, accepting).

    Tables are memoized on :attr:`TrieNode.memo` keyed by the index object,
    so each is computed once per trie node per query even when the node is
    shared by many groups (or by both sides of the join when ``l1 == l2``).
    """

    def __init__(self, index: QueryIndex) -> None:
        self._index = index
        self._alpha_key = ("vector-alphas", index)
        self._beta_key = ("vector-betas", index)

    def alphas(self, node: TrieNode) -> list[tuple[str, int]]:
        cached = node.memo.get(self._alpha_key)
        if cached is None:
            cached = [(leaf, self._index.start_mask) for leaf in node.payload]
            for step, child in node.children.items():
                matrix = exit_step_matrix(self._index, step)
                cached.extend(
                    (leaf, matrix.propagate_row(vector))
                    for leaf, vector in self.alphas(child)
                )
            node.memo[self._alpha_key] = cached
        return cached

    def betas(self, node: TrieNode) -> list[tuple[str, int]]:
        cached = node.memo.get(self._beta_key)
        if cached is None:
            cached = [(leaf, self._index.accepting_mask) for leaf in node.payload]
            for step, child in node.children.items():
                matrix = enter_step_matrix(self._index, step)
                cached.extend(
                    (leaf, matrix.propagate_column(vector))
                    for leaf, vector in self.betas(child)
                )
            node.memo[self._beta_key] = cached
        return cached


def _decode_group_vectorized(
    group: StructuralGroup, index: QueryIndex, tables: _VectorTables
) -> Iterator[tuple[str, str]]:
    """Yield the matching pairs of one structural-join group."""
    if group.payload_only:
        # Identical labels: the pair relation is the identity (empty path).
        if index.accepts(index.identity):
            for u in group.source.payload:
                for v in group.target.payload:
                    yield u, v
        return
    context = group.context(index)
    if context.is_zero():
        return
    betas = [(v, beta) for v, beta in tables.betas(group.target) if beta]
    if not betas:
        return
    for u, alpha in tables.alphas(group.source):
        reached = context.propagate_row(alpha)
        if not reached:
            continue
        for v, beta in betas:
            if reached & beta:
                yield u, v


# ---------------------------------------------------------------------------
# Public evaluators
# ---------------------------------------------------------------------------


def _unique(ids: Sequence[str]) -> list[str]:
    """Input order preserved, duplicates dropped (keeps the structural join's
    groups a disjoint partition of the pairs)."""
    return list(dict.fromkeys(ids))


def all_pairs_reachability(
    run: Run, l1: Sequence[str], l2: Sequence[str]
) -> set[tuple[str, str]]:
    """All pairs ``(u, v) ∈ l1 × l2`` with a (possibly empty) path ``u ⤳ v``.

    Runs in time linear in ``|l1| + |l2| + N`` (N = number of reachable
    pairs) plus a polynomial in the specification size; no per-pair decode is
    needed because the structural traversal only ever emits reachable pairs.
    """
    trie1 = LabelTrie.from_run_nodes(run, _unique(l1))
    trie2 = LabelTrie.from_run_nodes(run, _unique(l2))
    results: set[tuple[str, str]] = set()
    for group in structural_join(trie1, trie2, run.spec):
        for u in group.source_ids():
            for v in group.target_ids():
                results.add((u, v))
    return results


def all_pairs_iter(
    run: Run,
    l1: Sequence[str],
    l2: Sequence[str],
    index: QueryIndex,
) -> Iterator[tuple[str, str]]:
    """Stream the answers of an all-pairs safe query over ``l1 × l2``.

    Pairs are yielded as they are found, without materializing the result
    set; each matching pair is yielded exactly once.
    """
    return get_tracer().wrap_iter(
        "decode.all_pairs",
        _all_pairs_gen(run, l1, l2, index),
        sources=len(l1),
        targets=len(l2),
    )


def _all_pairs_gen(
    run: Run, l1: Sequence[str], l2: Sequence[str], index: QueryIndex
) -> Iterator[tuple[str, str]]:
    unique1, unique2 = _unique(l1), _unique(l2)
    trie1 = LabelTrie.from_run_nodes(run, unique1)
    trie2 = trie1 if unique1 == unique2 else LabelTrie.from_run_nodes(run, unique2)
    tables = _VectorTables(index)
    for group in structural_join(trie1, trie2, run.spec):
        yield from _decode_group_vectorized(group, index, tables)


def all_pairs_safe_query(
    run: Run, l1: Sequence[str], l2: Sequence[str], index: QueryIndex
) -> set[tuple[str, str]]:
    """Answer an all-pairs safe query over ``l1 × l2``: enumerate reachable
    groups with the structural join and decode each group at a time with
    state-vector operations."""
    return set(all_pairs_iter(run, l1, l2, index))
