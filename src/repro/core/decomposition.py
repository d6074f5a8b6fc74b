"""General (possibly unsafe) all-pairs queries (Section IV-B, "Our approach").

A general query may not be safe for the specification, so the constant-time
label decode cannot be applied to it as a whole.  The paper's approach:

1. represent the query as a parse tree,
2. walking top-down, find the *maximal safe subtrees* — subexpressions that
   are safe for the specification (checked with the polynomial-time safety
   test of Section III-C),
3. evaluate each maximal safe subtree with the all-pairs labeling engine of
   Algorithm 2, and
4. evaluate the remaining (unsafe) structure bottom-up with relational joins
   (Option G1), treating the safe subtrees' results as already-materialized
   relations.

When the whole query is safe the decomposition degenerates to a single call
to the safe engine.  Finding the *best* equivalent rewriting of the query
with the largest safe parts is left as future work by the paper; like the
paper we use the simple top-down heuristic.

Restriction pushdown
--------------------

The caller's ``l1``/``l2`` node lists are pushed *into* the evaluation
instead of being applied to a whole-run result:

* the **frontier strategy** rewrites the query with one synthetic *macro*
  symbol per label-routed safe subquery, compiles it to a DFA (wildcards
  never match macro symbols), and runs one product-DFA frontier search per
  requested source (:func:`~repro.core.relations.product_frontier_targets`),
  pruned by the forward/backward ``allowed`` universe and following macro
  edges through the label-decoded relations;
* the **join strategy** keeps the classic bottom-up relational evaluation
  but filters every leaf relation and closure to the ``allowed`` universe
  and hands safe subqueries node lists restricted to it.

Either way, peak relation size is bounded by the nodes reachable from ``l1``
(and co-reachable from ``l2``) rather than by the run.  ``strategy="auto"``
picks between the two with the cost model of :mod:`repro.core.optimizer`.

Planner/executor split
----------------------

This module is the *planner* side of the evaluation stack: everything here —
safe-subtree search, macro rewriting, (reversed) macro DFAs, cost and
direction memos — is pure, run-graph-independent where possible, cacheable
in the shared :class:`~repro.service.cache.IndexCache` and serializable by
:mod:`repro.store`.  The *physical* side — strategy/direction resolution
into operator trees and their serial or parallel execution — lives in
:mod:`repro.core.exec`; the ``evaluate_general_query*`` functions below are
thin compatibility wrappers over ``build_physical_plan`` + ``execute``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from repro.automata.dfa import DFA, determinize
from repro.automata.nfa import nfa_from_regex
from repro.automata.regex import (
    AnySymbol,
    Concat,
    Epsilon,
    Plus,
    RegexNode,
    Star,
    Symbol,
    Union,
    parse_regex,
    regex_alphabet,
    regex_to_string,
)
from repro.core.allpairs import AllPairsOptions
from repro.core.optimizer import (
    estimate_join_cost,
    estimate_label_all_pairs_cost,
)
from repro.core.query_index import QueryIndex, build_query_index
from repro.core.relations import NodePairs
from repro.core.safety import is_safe_query
from repro.obs import get_tracer
from repro.workflow.run import Run
from repro.workflow.spec import Specification

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.exec import ExecutorConfig

__all__ = [
    "DecompositionPlan",
    "plan_decomposition",
    "evaluate_general_query",
    "evaluate_general_query_iter",
    "label_routed_subtrees",
    "warm_frontier_dfa",
    "worth_label_evaluation",
]

#: Prefix of the synthetic DFA symbols standing for safe subqueries.  The
#: NUL byte cannot appear in a parsed tag, so macros never collide with real
#: edge tags.
_MACRO_PREFIX = "\x00safe:"

IndexProvider = Callable[[RegexNode], QueryIndex]


@dataclass
class DecompositionPlan:
    """The result of the top-down safe-subtree search for one query.

    Plans are reusable across evaluations (and cached per specification in
    the shared :class:`~repro.service.cache.IndexCache`), so they memoize
    the run-statistics-dependent cost routing of their safe subtrees and the
    macro DFAs of the frontier strategy.  Memo keys include coarse run
    statistics, so one plan instance serves many runs of the same grammar.

    One cached plan instance is shared by every thread the service fans a
    batch out to, so the memos live behind ``_memo_lock`` (an RLock: the
    reversed-DFA builder memoizes the forward DFA while holding it).  The
    lock is created in ``__post_init__`` rather than as a field so plan
    equality and JSON serialization (``plan_to_dict``) never see it.
    """

    spec: Specification
    root: RegexNode
    safe_subtrees: list[RegexNode] = field(default_factory=list)
    _routing_memo: dict[tuple[int, int, int | None, RegexNode], bool] = field(  # guarded-by: _memo_lock
        default_factory=dict, repr=False, compare=False
    )
    _dfa_memo: dict[str, DFA] = field(  # guarded-by: _memo_lock
        default_factory=dict, repr=False, compare=False
    )
    _direction_memo: dict[str, str] = field(  # guarded-by: _memo_lock
        default_factory=dict, repr=False, compare=False
    )
    _mutations: int = field(default=0, repr=False, compare=False)  # guarded-by: _memo_lock

    def __post_init__(self) -> None:
        self._memo_lock = threading.RLock()

    @property
    def mutations(self) -> int:
        """How many times the persistable memos (macro DFAs, direction
        decisions) have grown.  The cache layer compares this against the
        count it last persisted to decide whether the store copy is stale —
        direction decisions change no cost, so cost alone cannot tell."""
        with self._memo_lock:
            return self._mutations

    @property
    def is_fully_safe(self) -> bool:
        return len(self.safe_subtrees) == 1 and self.safe_subtrees[0] == self.root

    @property
    def has_safe_parts(self) -> bool:
        return bool(self.safe_subtrees)

    def estimate_prefers_labels(self, run: Run, node: RegexNode) -> bool:
        """Does the cost model route this safe subtree to the label engine
        for the given run?  Memoized per (run statistics, node)."""
        key = (run.node_count, run.edge_count, run.seed, node)
        with self._memo_lock:
            cached = self._routing_memo.get(key)
            if cached is None:
                # Plans can outlive many runs (they are cached per spec), so
                # the memo is reset instead of growing one entry per run.
                if len(self._routing_memo) >= 1024:
                    self._routing_memo.clear()
                cached = estimate_join_cost(run, node) > estimate_label_all_pairs_cost(
                    run.node_count
                )
                self._routing_memo[key] = cached
            return cached

    def cost(self) -> int:
        """The boolean-matrix cost this plan pins beyond its entry's base DFA:
        the summed ``state_count²`` of the memoized macro DFAs.  Grows as the
        frontier strategy memoizes routing variants, so cache cost accounting
        must be refreshed after evaluations (see ``IndexCache.sync``)."""
        with self._memo_lock:
            return sum(dfa.state_count**2 for dfa in self._dfa_memo.values())

    def memoized_dfa(self, key: str, build: Callable[[], DFA]) -> DFA:
        """The macro DFA for ``key``, building (under the memo lock) and
        memoizing it on first use.  The memo stays tiny — one entry per
        routing variant — so it is reset rather than evicted when full."""
        with self._memo_lock:
            cached = self._dfa_memo.get(key)
            if cached is None:
                if len(self._dfa_memo) >= 16:
                    self._dfa_memo.clear()
                cached = build()
                self._dfa_memo[key] = cached
                self._mutations += 1
            return cached

    def macro_dfas(self) -> dict[str, DFA]:
        """A snapshot of the memoized macro DFAs, keyed by the rendered
        macro-rewritten query (used by :mod:`repro.store` to persist them)."""
        with self._memo_lock:
            return dict(self._dfa_memo)

    def restore_macro_dfas(self, dfas: dict[str, DFA]) -> None:
        """Re-attach macro DFAs persisted by a previous process, so the first
        frontier evaluation after a warm restart skips the determinization."""
        with self._memo_lock:
            self._dfa_memo.update(dfas)

    def cached_direction(self, key: str) -> str | None:
        """The last frontier direction recorded for one workload shape
        (see :func:`repro.core.exec.plan.build_physical_plan`), or ``None``.
        A record, not a routing input: the executor layer re-derives the
        decision (O(1) arithmetic) on every plan."""
        with self._memo_lock:
            return self._direction_memo.get(key)

    def remember_direction(self, key: str, direction: str) -> None:
        """Record a used direction decision; bounded like the routing memo."""
        with self._memo_lock:
            if len(self._direction_memo) >= 1024:
                self._direction_memo.clear()
            self._direction_memo[key] = direction
            self._mutations += 1

    def direction_hints(self) -> dict[str, str]:
        """A snapshot of the recorded direction decisions, keyed by
        log-bucketed workload shape (persisted by :mod:`repro.store` as an
        inspectable routing history that survives restarts)."""
        with self._memo_lock:
            return dict(self._direction_memo)

    def restore_direction_hints(self, hints: dict[str, str]) -> None:
        """Re-attach direction decisions persisted by a previous process."""
        with self._memo_lock:
            self._direction_memo.update(hints)

    def describe(self) -> str:
        parts = ", ".join(regex_to_string(node) for node in self.safe_subtrees) or "(none)"
        return (
            f"query {regex_to_string(self.root)!r}: "
            f"{'safe' if self.is_fully_safe else 'unsafe'}; "
            f"maximal safe subqueries: {parts}"
        )


def plan_decomposition(
    spec: Specification,
    query: str | RegexNode,
    *,
    is_safe: Callable[[RegexNode], bool] | None = None,
) -> DecompositionPlan:
    """Find the maximal safe subtrees of a query (top-down traversal).

    ``is_safe`` overrides the per-subtree safety probe; the shared
    :class:`~repro.service.cache.IndexCache` passes its cached probe so the
    safety analyses (and, for safe subtrees, the query indexes built from
    them) land in the cache as a side effect of planning.
    """
    with get_tracer().span("planner.decompose") as span:
        root = parse_regex(query)
        plan = DecompositionPlan(spec=spec, root=root)
        probe = (
            is_safe if is_safe is not None else (lambda node: is_safe_query(spec, node))
        )
        seen: set[RegexNode] = set()

        def visit(node: RegexNode) -> None:
            if node in seen:
                return
            if probe(node):
                seen.add(node)
                plan.safe_subtrees.append(node)
                return
            for child in node.children():
                visit(child)

        visit(root)
        span.set("safe_subtrees", len(plan.safe_subtrees))
        span.set("fully_safe", plan.is_fully_safe)
        return plan


def worth_label_evaluation(node: RegexNode) -> bool:
    """Is a safe subquery worth routing to the labeling engine?

    Trivial relations — the empty string, a single tag, the wildcard and
    pure-wildcard repetitions (plain reachability) — are exactly as cheap to
    materialize directly from the run, so sending them through the all-pairs
    label engine only adds overhead.  Anything larger that mentions at least
    one concrete tag benefits from the constant-time decode because its
    join-based evaluation would materialize intermediate results.
    """
    if isinstance(node, (Epsilon, Symbol, AnySymbol)):
        return False
    if isinstance(node, (Star, Plus)) and isinstance(node.child, AnySymbol):
        return False
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Symbol):
            return True
        stack.extend(current.children())
    return False


def label_routed_subtrees(
    plan: DecompositionPlan, run: Run, *, cost_based_routing: bool = True
) -> list[RegexNode]:
    """The safe subtrees of the plan that the evaluator answers with the
    labeling engine for the given run (the rest stay in the join/frontier
    remainder).  Used by the benchmarks to report routing decisions."""
    return [
        node
        for node in plan.safe_subtrees
        if _should_use_labels(plan, run, node, cost_based_routing)
    ]


def _should_use_labels(
    plan: DecompositionPlan, run: Run, node: RegexNode, cost_based_routing: bool
) -> bool:
    if not worth_label_evaluation(node):
        return False
    if not cost_based_routing:
        return True
    return plan.estimate_prefers_labels(run, node)


# ---------------------------------------------------------------------------
# Frontier strategy: macro-DFA product search with restriction pushdown
# ---------------------------------------------------------------------------


def _substitute_macros(
    root: RegexNode, routed: Sequence[RegexNode]
) -> tuple[RegexNode, dict[str, RegexNode]]:
    """Replace every occurrence of the routed safe subtrees with a fresh
    macro :class:`Symbol`; returns the rewritten tree and ``tag → subtree``."""
    tags = {node: f"{_MACRO_PREFIX}{position}" for position, node in enumerate(routed)}

    def rewrite(node: RegexNode) -> RegexNode:
        tag = tags.get(node)
        if tag is not None:
            return Symbol(tag)
        if isinstance(node, Concat):
            return Concat(tuple(rewrite(part) for part in node.parts))
        if isinstance(node, Union):
            return Union(tuple(rewrite(part) for part in node.parts))
        if isinstance(node, Star):
            return Star(rewrite(node.child))
        if isinstance(node, Plus):
            return Plus(rewrite(node.child))
        return node

    return rewrite(root), {tag: node for node, tag in tags.items()}


def _macro_dfa(plan: DecompositionPlan, rewritten: RegexNode, macro_tags: set[str]) -> DFA:
    """The minimal DFA of the macro-rewritten query, memoized on the plan.

    Wildcards expand only over the real tags (the specification's edge tags
    plus the tags written in the query), never over the macro symbols.
    """
    def build() -> DFA:
        real_tags = set(plan.spec.tags) | {
            tag for tag in regex_alphabet(plan.root) if not tag.startswith(_MACRO_PREFIX)
        }
        dfa = determinize(
            nfa_from_regex(rewritten),
            real_tags | macro_tags,
            wildcard_tags=real_tags,
        )
        from repro.automata.minimize import minimize_dfa

        return minimize_dfa(dfa)

    return plan.memoized_dfa(regex_to_string(rewritten), build)


#: Memo-key prefix of *reversed* macro DFAs (backward frontier search).  The
#: NUL byte keeps it disjoint from any rendered query text, and distinct from
#: the macro-symbol prefix, so forward and reversed entries share one memo —
#: and one store payload — without colliding.
_REVERSED_PREFIX = "\x00rev:"


def _reversed_macro_dfa(
    plan: DecompositionPlan, rewritten: RegexNode, macro_tags: set[str]
) -> DFA:
    """The reversed macro DFA (the automaton the backward frontier search
    drives from the requested targets), memoized on the plan alongside the
    forward one so it persists with the entry."""
    return plan.memoized_dfa(
        _REVERSED_PREFIX + regex_to_string(rewritten),
        lambda: _macro_dfa(plan, rewritten, macro_tags).reversed(),
    )


def warm_frontier_dfa(
    plan: DecompositionPlan,
    run: Run,
    *,
    cost_based_routing: bool = True,
    direction: str = "forward",
) -> DFA:
    """Build (and memoize on the plan) the macro DFA the frontier strategy
    will use for this run's routing decision, without evaluating anything.

    Called by warm-up paths (``QueryService.warm``, ``repro store warm``) so
    that the DFA lands in the plan's memo — and, through the cache's store
    write-back, on disk — before the first real request arrives.
    ``direction="backward"`` warms the reversed automaton of the backward
    frontier search instead.
    """
    routed = label_routed_subtrees(plan, run, cost_based_routing=cost_based_routing)
    rewritten, macro_map = (
        _substitute_macros(plan.root, routed) if routed else (plan.root, {})
    )
    if direction == "backward":
        return _reversed_macro_dfa(plan, rewritten, set(macro_map))
    return _macro_dfa(plan, rewritten, set(macro_map))


# ---------------------------------------------------------------------------
# Public evaluators (thin wrappers over the planner/executor split)
# ---------------------------------------------------------------------------


def _prepare(
    run: Run,
    query: str | RegexNode,
    plan: DecompositionPlan | None,
    index_provider: IndexProvider | None,
) -> tuple[DecompositionPlan, IndexProvider]:
    spec = run.spec
    if plan is None:
        plan = plan_decomposition(spec, parse_regex(query))
    indexes = (
        index_provider
        if index_provider is not None
        else (lambda node: build_query_index(spec, node))
    )
    return plan, indexes


def evaluate_general_query(
    run: Run,
    query: str | RegexNode,
    l1: Sequence[str] | None = None,
    l2: Sequence[str] | None = None,
    *,
    plan: DecompositionPlan | None = None,
    use_reachability_filter: bool = True,
    vectorized: bool = True,
    cost_based_routing: bool = True,
    index_provider: IndexProvider | None = None,
    strategy: str = "auto",
    push_restrictions: bool = True,
    direction: str = "auto",
    executor: "ExecutorConfig | None" = None,
) -> NodePairs:
    """Answer a general all-pairs query, safe or not.

    ``l1`` and ``l2`` default to all run nodes and are pushed down into the
    evaluation (see the module notes); ids absent from the run are ignored,
    matching the semantics of restricting a whole-run result.  A precomputed
    ``plan`` (and therefore its safety checks) may be supplied so benchmarks
    can separate planning overhead from evaluation time; ``index_provider``
    lets a shared cache supply the safe subqueries'
    :class:`~repro.core.query_index.QueryIndex` objects.  ``vectorized``
    toggles the group-at-a-time state-vector decode of safe (sub)queries
    (see :class:`~repro.core.allpairs.AllPairsOptions`).

    ``strategy`` selects how the unsafe remainder is evaluated: ``"frontier"``
    (per-source product-DFA search), ``"join"`` (bottom-up relational
    evaluation), or ``"auto"`` (cost-based choice).  ``direction`` orients
    the frontier strategy (``"forward"`` from the sources, ``"backward"``
    from the targets over the reversed macro DFA, or ``"auto"`` to let the
    cost model compare seed counts); ``executor`` tunes the physical
    execution further (parallel fan-out, merge order — see
    :class:`~repro.core.exec.ExecutorConfig`).  ``push_restrictions=False``
    disables the ``allowed``-universe pruning and restores the pre-pushdown
    behaviour of evaluating over the whole run and restricting afterwards
    (kept as the benchmarks' reference point).

    With ``cost_based_routing`` (the default) a maximal safe subquery is only
    sent to the labeling engine when the simple cost model of
    :mod:`repro.core.optimizer` predicts that its join-based evaluation would
    be more expensive — the paper's future-work remark about a cost-based
    optimizer, which matters because routing *highly selective* safe
    subqueries to an all-pairs label scan would be wasted work.  Disable it
    to always use the labeling engine for safe subqueries (the paper's plain
    heuristic).
    """
    from repro.core.exec import build_physical_plan, execute

    plan, indexes = _prepare(run, query, plan, index_provider)
    options = AllPairsOptions(
        use_reachability_filter=use_reachability_filter, vectorized=vectorized
    )
    physical = build_physical_plan(
        run,
        plan,
        l1,
        l2,
        options=options,
        indexes=indexes,
        strategy=strategy,
        direction=direction,
        executor=executor,
        push_restrictions=push_restrictions,
        cost_based_routing=cost_based_routing,
    )
    return execute(physical)


def evaluate_general_query_iter(
    run: Run,
    query: str | RegexNode,
    l1: Sequence[str] | None = None,
    l2: Sequence[str] | None = None,
    *,
    plan: DecompositionPlan | None = None,
    use_reachability_filter: bool = True,
    vectorized: bool = True,
    cost_based_routing: bool = True,
    index_provider: IndexProvider | None = None,
    push_restrictions: bool = True,
    direction: str = "auto",
    executor: "ExecutorConfig | None" = None,
) -> Iterator[tuple[str, str]]:
    """Stream the answers of a general all-pairs query, safe or not.

    Safe queries stream straight out of the group-at-a-time evaluator.
    Unsafe queries stream through the frontier strategy: one pruned
    product-DFA search per seed — per source forward, per target backward —
    so memory stays bounded by the nodes reachable from ``l1`` (and
    co-reachable from ``l2``, times the DFA size) plus the label-decoded
    relations of the routed safe subqueries — never by the result set.
    ``executor`` enables the parallel per-seed executor (fan-out across a
    worker pool, chunks streaming in completion order).  Each matching
    pair is yielded exactly once.  Planning and safety analysis run eagerly,
    before the iterator is returned.
    """
    from repro.core.exec import build_physical_plan, execute_iter

    plan, indexes = _prepare(run, query, plan, index_provider)
    options = AllPairsOptions(
        use_reachability_filter=use_reachability_filter, vectorized=vectorized
    )
    physical = build_physical_plan(
        run,
        plan,
        l1,
        l2,
        options=options,
        indexes=indexes,
        strategy="frontier" if not plan.is_fully_safe else "auto",
        direction=direction,
        executor=executor,
        push_restrictions=push_restrictions,
        cost_based_routing=cost_based_routing,
    )
    return execute_iter(physical)
