"""All-pairs safe queries (Algorithm 2 of the paper), with vectorized decoding.

Given two lists of run nodes ``l1`` and ``l2``, an all-pairs query asks for
every pair ``(u, v) ∈ l1 × l2`` with ``u —R→ v``.  The evaluator has two
parts:

* **the structural join** — represent each list as a label trie (a
  projection of the compressed parse tree, Fig. 12) and merge the two tries
  structurally to enumerate only the *reachable* pairs.  The traversal is the
  paper's Algorithm 2.  At a composite parse-tree node, children of
  different body positions contribute all their leaves when one position
  reaches the other in the production body: one :class:`StructuralGroup`,
  whose crossing is that production's ``cross`` matrix.  At a recursive
  (``R``) node, an earlier chain member contributes the leaves under its
  "red" branches (branches that reach the recursive position) against
  everything under later members, and symmetrically the leaves under a
  member's "blue" branches (branches the recursive position reaches) are
  reached from everything under later members.  All of this is one
  :class:`ChainGroup` per pair of ``R`` nodes.
* **group-at-a-time decoding ("optRPL-G")** — the Algorithm-1 decode of any
  pair of a :class:`StructuralGroup` factors as

      ``exit(u → U's trie node) @ crossing @ enter(V's trie node → v)``

  with ``crossing`` constant across the group.  The evaluator memoizes
  per-trie-node *state vectors*, grouped by value: for the leaves ``u`` the
  row vectors ``start-state @ exit(...)`` and for the leaves ``v`` the
  column vectors ``enter(...) @ accepting-states``, each built bottom-up with
  one matrix-vector product per (distinct vector, ancestor) and shared by
  every group that touches the node.  A group then costs one matrix-vector
  product per distinct source vector plus one bitmask intersection per
  (source vector, target vector) pair.

  A :class:`ChainGroup` is decoded by a *chain sweep* (:func:`_decode_chain`)
  instead of one ``crossing @ descend_chain(...)`` matrix per (branch, later
  member).  The red pass walks the chain down by ascending ordinal, keeping
  the sources that crossed into the recursion so far in buckets keyed by
  their state vector at the input of the current member.  At each ordinal
  present in either list it moves the buckets over the gap with one cached
  ``descend_chain`` product, meets them with that member's target vectors,
  and adds the member's red-branch sources, crossed into the recursive
  position.  The blue pass is the mirror: it climbs by descending ordinal
  with ``ascend_chain``, starting from the sources' member vectors, and
  crosses into each earlier member's blue branches.  A chain therefore costs
  O(ordinals present × distinct state vectors + output) vector operations,
  and no matrix product once the index's chain cache is warm.

The paper's per-pair strategies — S1 (decode every pair of the cross
product) and S2 / optRPL (decode every reachable pair) — live in
:mod:`repro.baselines.rpl_per_pair` as the experiments' reference points.
They, like :func:`all_pairs_reachability`, read a group's pairs through
:func:`pair_blocks`, which expands a chain group into its (source leaves,
target leaves) blocks without the sweep.

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
from typing import Iterator, Mapping, Sequence

from repro.automata.boolean_matrix import BooleanMatrix
from repro.core.pairwise import enter_step_matrix, exit_step_matrix
from repro.core.query_index import QueryIndex
from repro.errors import LabelError
from repro.labeling.labels import ProductionStep, RecursionStep
from repro.labeling.parse_tree import LabelTrie, TrieNode
from repro.obs import get_tracer
from repro.workflow.production_graph import Cycle
from repro.workflow.run import Run
from repro.workflow.spec import Specification

__all__ = [
    "ChainBranches",
    "ChainGroup",
    "StructuralGroup",
    "all_pairs_safe_query",
    "all_pairs_iter",
    "all_pairs_reachability",
    "pair_blocks",
    "structural_join",
]


# ---------------------------------------------------------------------------
# Structural traversal (the reachable-pair enumeration of Algorithm 2)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructuralGroup:
    """One group of the structural join at a composite node: every leaf
    under ``source`` reaches every leaf under ``target``.

    ``crossing`` is ``(production, source position, target position)``, the
    body path between the two branches (the constant middle factor
    ``index.cross(...)`` of every member pair's Algorithm-1 decode).
    ``None`` marks an identity group, which pairs the payloads *at* the two
    nodes (the same label in both lists, reachable by the empty path).
    """

    source: TrieNode
    target: TrieNode
    crossing: tuple[int, int, int] | None = None


@dataclass(frozen=True)
class ChainBranches:
    """The red (or blue) branches of one recursion-chain member.

    ``production`` is the member's cycle production and
    ``recursive_position`` the body position holding the next member;
    ``branches`` lists ``(body position, branch node)``.
    """

    production: int
    recursive_position: int
    branches: tuple[tuple[int, TrieNode], ...]


@dataclass(frozen=True)
class ChainGroup:
    """The cross-member pairs under one pair of ``R`` nodes of the tries.

    ``sources`` and ``targets`` list ``(ordinal, member node)`` of the
    chain's members in trie 1 and trie 2, by ascending ordinal.  ``red``
    maps a trie-1 ordinal to that member's red branches, whose leaves reach
    every leaf under each later trie-2 member; ``blue`` maps a trie-2
    ordinal to that member's blue branches, whose leaves are reached from
    every leaf under each later trie-1 member.  Members with no later
    member on the other side have no entry.
    """

    cycle: int
    start: int
    sources: tuple[tuple[int, TrieNode], ...]
    targets: tuple[tuple[int, TrieNode], ...]
    red: Mapping[int, ChainBranches]
    blue: Mapping[int, ChainBranches]


Group = StructuralGroup | ChainGroup


def _children_kind(node: TrieNode) -> str:
    kinds = {type(step) for step in node.children}
    if not kinds:
        return "leaf"
    if kinds == {ProductionStep}:
        return "production"
    if kinds == {RecursionStep}:
        return "recursion"
    raise LabelError("a parse-tree node mixes production and recursion children")


def _chain_branches(
    spec: Specification, cycle: Cycle, start: int, ordinal: int, member: TrieNode, red: bool
) -> ChainBranches | None:
    """The red branches of a chain member (positions that reach the recursive
    position), or with ``red=False`` its blue branches (positions the
    recursive position reaches).  The last member of a chain fired a
    different production than its cycle production and has neither."""
    production, recursive_position = cycle.step(cycle.chain_offset(start, ordinal))
    body = spec.production(production).body
    branches = tuple(
        (step.position, branch)
        for step, branch in member.children.items()
        if isinstance(step, ProductionStep)
        and step.production == production
        and (
            body.reaches(step.position, recursive_position)
            if red
            else body.reaches(recursive_position, step.position)
        )
    )
    return ChainBranches(production, recursive_position, branches) if branches else None


def _chain_group(
    spec: Specification,
    children1: list[tuple[RecursionStep, TrieNode]],
    children2: list[tuple[RecursionStep, TrieNode]],
) -> ChainGroup | None:
    chains = {(step.cycle, step.start) for step, _ in children1 + children2}
    if len(chains) != 1:
        raise LabelError("labels diverge with inconsistent recursion chains")
    ((cycle_index, start),) = chains
    cycle = spec.production_graph.cycles[cycle_index]
    last1, last2 = children1[-1][0].ordinal, children2[-1][0].ordinal
    red: dict[int, ChainBranches] = {}
    for step, member in children1:
        if step.ordinal < last2:
            branches = _chain_branches(spec, cycle, start, step.ordinal, member, red=True)
            if branches is not None:
                red[step.ordinal] = branches
    blue: dict[int, ChainBranches] = {}
    for step, member in children2:
        if step.ordinal < last1:
            branches = _chain_branches(spec, cycle, start, step.ordinal, member, red=False)
            if branches is not None:
                blue[step.ordinal] = branches
    if not red and not blue:
        return None
    return ChainGroup(
        cycle=cycle_index,
        start=start,
        sources=tuple((step.ordinal, member) for step, member in children1),
        targets=tuple((step.ordinal, member) for step, member in children2),
        red=red,
        blue=blue,
    )


def structural_join(
    trie1: LabelTrie, trie2: LabelTrie, spec: Specification
) -> Iterator[Group]:
    """Enumerate the groups of Algorithm 2's structural join.

    Every pair a group covers (see :func:`pair_blocks`) is reachable, and —
    provided the tries hold each leaf identifier once — every reachable pair
    of leaves is covered by exactly one group.
    """
    if trie1.is_empty() or trie2.is_empty():
        return
    yield from _join_nodes(trie1.root, trie2.root, spec)


def _join_nodes(node1: TrieNode, node2: TrieNode, spec: Specification) -> Iterator[Group]:
    """The groups below one pair of trie nodes (the recursion of
    :func:`structural_join`; module-level, since a recursive closure is a
    reference cycle that only the cycle collector frees)."""
    if node1.payload and node2.payload:
        # Identical labels: the same node appears in both lists (the empty
        # path makes it reachable from itself).
        yield StructuralGroup(node1, node2)

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
                    yield from _join_nodes(child1, child2, spec)
                elif spec.production(step1.production).body.reaches(
                    step1.position, step2.position
                ):
                    yield StructuralGroup(
                        child1,
                        child2,
                        crossing=(step1.production, step1.position, step2.position),
                    )
        return

    # Case 2: children are members of the same recursion chain.  The same
    # member recurses; pairs across members form one chain group.
    children1 = node1.sorted_children()
    children2 = node2.sorted_children()
    by_ordinal2 = {step.ordinal: child for step, child in children2}
    for step1, child1 in children1:
        same = by_ordinal2.get(step1.ordinal)
        if same is not None:
            yield from _join_nodes(child1, same, spec)
    chain = _chain_group(spec, children1, children2)  # type: ignore[arg-type]
    if chain is not None:
        yield chain


def pair_blocks(group: Group) -> Iterator[tuple[list[str], list[str]]]:
    """The pairs a group covers, as ``(source leaves, target leaves)``
    blocks: every leaf of a block's first list reaches every leaf of its
    second.  A chain group expands into one block per (branch, later member
    on the other side), the reference form its sweep must agree with."""
    if isinstance(group, StructuralGroup):
        if group.crossing is None:
            yield list(group.source.payload), list(group.target.payload)
        else:
            yield group.source.leaves(), group.target.leaves()
        return
    for ordinal, red in group.red.items():
        for _, branch in red.branches:
            sources = branch.leaves()
            for later, member in group.targets:
                if later > ordinal:
                    yield sources, member.leaves()
    for ordinal, blue in group.blue.items():
        for _, branch in blue.branches:
            targets = branch.leaves()
            for later, member in group.sources:
                if later > ordinal:
                    yield member.leaves(), targets


# ---------------------------------------------------------------------------
# Group-at-a-time vectorized decoding (optRPL-G)
# ---------------------------------------------------------------------------

#: Leaf ids grouped by state vector: ``{vector: [leaf id, ...]}``.  Zero
#: vectors are dropped, since they can never meet.
Buckets = dict[int, list[str]]


def _add(buckets: Buckets, vector: int, ids: list[str]) -> None:
    """Merge ``ids`` into the bucket of ``vector`` (copying, so the bucket
    lists stay owned by ``buckets``)."""
    bucket = buckets.get(vector)
    if bucket is None:
        buckets[vector] = list(ids)
    else:
        bucket.extend(ids)


def _advance(buckets: Buckets, matrix: BooleanMatrix) -> Buckets:
    """Push every bucket's row vector through ``matrix``, merging buckets
    that land on one vector (the smaller list into the larger)."""
    moved: Buckets = {}
    for vector, ids in buckets.items():
        reached = matrix.propagate_row(vector)
        if not reached:
            continue
        bucket = moved.get(reached)
        if bucket is None:
            moved[reached] = ids
        else:
            if len(bucket) < len(ids):
                bucket, ids = ids, bucket
                moved[reached] = bucket
            bucket.extend(ids)
    return moved


def _meet(
    sources: Buckets, targets: Buckets, through: BooleanMatrix | None = None
) -> Iterator[tuple[str, str]]:
    """Every ``(u, v)`` whose row vector, pushed ``through`` a matrix when
    one is given, shares a DFA state with ``v``'s column vector."""
    for row, us in sources.items():
        if through is not None:
            row = through.propagate_row(row)
        for column, vs in targets.items():
            if row & column:
                for u in us:
                    for v in vs:
                        yield u, v


class _VectorTables:
    """Per-trie-node state-vector tables for one query index.

    ``alphas(node)`` groups the leaves under the node by row vector: the DFA
    start state pushed through the exit walk from the leaf up to the node.
    ``betas(node)`` groups them by column vector: the accepting states
    pulled through the entry walk from the node down to the leaf.  A pair
    ``(u, v)`` whose decode has middle factor ``C`` matches the query iff
    ``(alpha_u @ C) & beta_v`` is non-empty — exactly Algorithm 1's ``exit
    @ C @ enter`` relation probed at (start, accepting).

    Tables are memoized by node identity, so each is computed once per trie
    node even when the node is shared by many groups (or by both sides of
    the join when ``l1 == l2``).  One instance serves one evaluation, while
    its tries are alive.
    """

    def __init__(self, index: QueryIndex) -> None:
        self._index = index
        self._alphas: dict[int, Buckets] = {}
        self._betas: dict[int, Buckets] = {}

    def alphas(self, node: TrieNode) -> Buckets:
        cached = self._alphas.get(id(node))
        if cached is None:
            cached = {}
            if node.payload:
                _add(cached, self._index.start_mask, node.payload)
            for step, child in node.children.items():
                matrix = exit_step_matrix(self._index, step)
                for vector, ids in self.alphas(child).items():
                    reached = matrix.propagate_row(vector)
                    if reached:
                        _add(cached, reached, ids)
            self._alphas[id(node)] = cached
        return cached

    def betas(self, node: TrieNode) -> Buckets:
        cached = self._betas.get(id(node))
        if cached is None:
            cached = {}
            if node.payload and self._index.accepting_mask:
                _add(cached, self._index.accepting_mask, node.payload)
            for step, child in node.children.items():
                matrix = enter_step_matrix(self._index, step)
                for vector, ids in self.betas(child).items():
                    pulled = matrix.propagate_column(vector)
                    if pulled:
                        _add(cached, pulled, ids)
            self._betas[id(node)] = cached
        return cached


def _decode_group(
    group: StructuralGroup, index: QueryIndex, tables: _VectorTables
) -> Iterator[tuple[str, str]]:
    """Yield the matching pairs of one composite-node group."""
    if group.crossing is None:
        # Identical labels: the pair relation is the identity (empty path).
        if index.accepts(index.identity):
            for u in group.source.payload:
                for v in group.target.payload:
                    yield u, v
        return
    crossing = index.cross(*group.crossing)
    if crossing.is_zero():
        return
    targets = tables.betas(group.target)
    if targets:
        yield from _meet(tables.alphas(group.source), targets, crossing)


def _decode_chain(
    group: ChainGroup, index: QueryIndex, tables: _VectorTables
) -> Iterator[tuple[str, str]]:
    """Yield the matching pairs of one chain group with two chain sweeps.

    Between two ordinals present in the group, the buckets move with one
    ``descend_chain`` / ``ascend_chain`` product over the whole gap.
    """
    cycle, start = group.cycle, group.start
    # Red pass, down the chain: buckets hold vectors at the input of member
    # ``position``.
    targets = dict(group.targets)
    buckets: Buckets = {}
    position = 0
    for ordinal in sorted(group.red.keys() | targets.keys()):
        if buckets:
            if ordinal > position:
                buckets = _advance(
                    buckets, index.descend_chain(cycle, start, position, ordinal - 1)
                )
            member = targets.get(ordinal)
            if member is not None:
                yield from _meet(buckets, tables.betas(member))
        position = ordinal
        red = group.red.get(ordinal)
        if red is None:
            continue
        if buckets:
            buckets = _advance(buckets, index.descend_chain(cycle, start, ordinal, ordinal))
        position = ordinal + 1
        for branch_position, branch in red.branches:
            crossing = index.cross(red.production, branch_position, red.recursive_position)
            if crossing.is_zero():
                continue
            for vector, ids in tables.alphas(branch).items():
                reached = crossing.propagate_row(vector)
                if reached:
                    _add(buckets, reached, ids)

    # Blue pass, up the chain: buckets hold vectors at the output of member
    # ``position``.
    sources = dict(group.sources)
    buckets = {}
    for ordinal in sorted(group.blue.keys() | sources.keys(), reverse=True):
        blue = group.blue.get(ordinal)
        if blue is not None and buckets:
            if position > ordinal + 1:
                buckets = _advance(
                    buckets, index.ascend_chain(cycle, start, position - 1, ordinal + 1)
                )
                position = ordinal + 1
            for branch_position, branch in blue.branches:
                crossing = index.cross(blue.production, blue.recursive_position, branch_position)
                if crossing.is_zero():
                    continue
                yield from _meet(buckets, tables.betas(branch), crossing)
        member = sources.get(ordinal)
        if member is None:
            continue
        if buckets and position > ordinal:
            buckets = _advance(buckets, index.ascend_chain(cycle, start, position - 1, ordinal))
        position = ordinal
        for vector, ids in tables.alphas(member).items():
            _add(buckets, vector, ids)


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
        for sources, targets in pair_blocks(group):
            results.update((u, v) for u in sources for v in targets)
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
        if isinstance(group, ChainGroup):
            yield from _decode_chain(group, index, tables)
        else:
            yield from _decode_group(group, index, tables)


def all_pairs_safe_query(
    run: Run, l1: Sequence[str], l2: Sequence[str], index: QueryIndex
) -> set[tuple[str, str]]:
    """Answer an all-pairs safe query over ``l1 × l2``: enumerate reachable
    groups with the structural join and decode each group at a time with
    state-vector operations."""
    return set(all_pairs_iter(run, l1, l2, index))
