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
paper we use the simple top-down heuristic.  The published scheme,
evaluate-then-restrict, is the baseline
:mod:`repro.baselines.paper_decomposition`.

Restriction pushdown
--------------------

Without node lists the answer is the whole relation, and step 4 runs as
published: bottom-up joins on the packed kernel
(:func:`~repro.core.relations.evaluate_regex_relation_packed`).  With node
lists, this engine replaces step 4 and pushes the caller's ``l1``/``l2``
*into* the evaluation instead of applying them to a whole-run result.  It
rewrites the query with one synthetic *macro* symbol per
label-routed safe subquery, compiles it to a DFA (wildcards never match
macro symbols), and runs one product-DFA frontier sweep from all requested
sources — or, backward over the reversed DFA, from all requested targets —
at once (:func:`~repro.core.relations.frontier_search`), pruned by the
forward/backward ``allowed`` universe and following macro edges through the
label-decoded relations.  Live state is bounded by the nodes reachable from
``l1`` (and co-reachable from ``l2``) rather than by the run.

Planner/executor split
----------------------

This module is the *planner* side of the evaluation stack: everything here —
safe-subtree search, label routing, macro rewriting, (reversed) macro
DFAs — is pure, run-graph-independent where possible, cacheable in the
shared :class:`~repro.service.cache.IndexCache` and serializable by
:mod:`repro.store`.  The *physical* side — direction resolution into one
operator and its execution — lives in :mod:`repro.core.exec`;
:func:`evaluate_general_query` plans with ``build_physical_plan`` and runs
the plan with ``execute``, the executor's one entry.  Its answer is whole:
a packed relation of at most one bit per (source, target) position pair of
the run, which the engine's stream unpacks unordered.  Only safe answers
stream lazily, in constant memory, out of the label decode.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
from repro.core.optimizer import (
    estimate_join_cost,
    estimate_label_all_pairs_cost,
    estimate_relation_size,
    relation_size_cap,
)
from repro.core.query_index import QueryIndex, build_query_index
from repro.core.bitset import PackedRelation
from repro.core.safety import is_safe_query
from repro.obs import get_tracer
from repro.workflow.run import Run
from repro.workflow.spec import Specification

__all__ = [
    "DecompositionPlan",
    "plan_decomposition",
    "evaluate_general_query",
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
    the macro DFAs of the frontier sweep, keyed by the rendered
    macro-rewritten query: one plan instance serves many runs of the same
    grammar.

    One cached plan instance is shared by every thread the service fans a
    batch out to, so the memo lives behind ``_memo_lock`` (an RLock: the
    reversed-DFA builder memoizes the forward DFA while holding it).  The
    lock is created in ``__post_init__`` rather than as a field so plan
    equality and JSON serialization (``plan_to_dict``) never see it.
    """

    spec: Specification
    root: RegexNode
    safe_subtrees: list[RegexNode] = field(default_factory=list)
    _dfa_memo: dict[str, DFA] = field(  # guarded-by: _memo_lock
        default_factory=dict, repr=False, compare=False
    )
    _mutations: int = field(default=0, repr=False, compare=False)  # guarded-by: _memo_lock

    def __post_init__(self) -> None:
        self._memo_lock = threading.RLock()

    @property
    def mutations(self) -> int:
        """How many macro DFAs this plan instance has built.  The cache layer
        compares this against the count it last persisted to decide whether
        the store copy is stale."""
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
        for the given run?  Two O(tree) estimates, computed fresh."""
        return estimate_join_cost(run, node) > estimate_label_all_pairs_cost(
            run.node_count
        )

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
        _collect_safe_subtrees(root, probe, set(), plan.safe_subtrees)
        span.set("safe_subtrees", len(plan.safe_subtrees))
        span.set("fully_safe", plan.is_fully_safe)
        return plan


def _collect_safe_subtrees(
    node: RegexNode,
    probe: Callable[[RegexNode], bool],
    seen: set[RegexNode],
    found: list[RegexNode],
) -> None:
    """Append the maximal safe subtrees under ``node`` to ``found``, left to
    right, each once.  Module-level, not a closure in
    :func:`plan_decomposition`: a recursive closure is a reference cycle, and
    this one would hold the probe (and a cache's probe holds the cache)
    until the cycle collector runs."""
    if node in seen:
        return
    if probe(node):
        seen.add(node)
        found.append(node)
        return
    for child in node.children():
        _collect_safe_subtrees(child, probe, seen, found)


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


def label_routed_subtrees(plan: DecompositionPlan, run: Run) -> list[RegexNode]:
    """The safe subtrees of the plan that the evaluator answers with the
    labeling engine for the given run (the rest stay in the frontier
    remainder).

    A subtree goes to the labels only when it is worth it
    (:func:`worth_label_evaluation`) *and* the cost model of
    :mod:`repro.core.optimizer` predicts that its join-based evaluation would
    be more expensive — the paper's future-work remark about a cost-based
    optimizer, which matters because routing a highly selective safe
    subquery to an all-pairs label scan would be wasted work.  The paper's
    own always-use-labels scheme is the baseline
    :mod:`repro.baselines.paper_decomposition`.

    A subtree whose estimated size (:func:`estimate_relation_size`) reaches
    the estimator's cap (:func:`relation_size_cap`) stays in the remainder:
    the sweep decodes a routed subtree's whole relation on first touch, and
    near ``|V|^2`` that costs far more time and memory than the remainder's
    own product search.
    """
    cap = relation_size_cap(run)
    return [
        node
        for node in plan.safe_subtrees
        if worth_label_evaluation(node)
        and estimate_relation_size(run, node) < cap
        and plan.estimate_prefers_labels(run, node)
    ]


# ---------------------------------------------------------------------------
# Frontier sweep: macro-DFA product search with restriction pushdown
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
    plan: DecompositionPlan, run: Run, *, direction: str = "forward"
) -> DFA:
    """Build (and memoize on the plan) the macro DFA the frontier sweep
    will use for this run's routing decision, without evaluating anything.

    Called by warm-up paths (``QueryService.warm``, ``repro store warm``) so
    that the DFA lands in the plan's memo — and, through the cache's store
    write-back, on disk — before the first real request arrives.
    ``direction="backward"`` warms the reversed automaton of the backward
    frontier search instead.
    """
    routed = label_routed_subtrees(plan, run)
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
    index_provider: IndexProvider | None = None,
    direction: str = "auto",
) -> PackedRelation:
    """Answer a general all-pairs query, safe or not, as its interned answer:
    a :class:`~repro.core.bitset.PackedRelation` over
    ``run.packed.interner`` (``to_pairs`` unpacks it in sorted order,
    ``iter_pairs`` unordered).

    ``l1`` and ``l2`` default to all run nodes and are pushed down into the
    evaluation (see the module notes); ids absent from the run are ignored,
    matching the semantics of restricting a whole-run result.  A precomputed
    ``plan`` (and therefore its safety checks) may be supplied so benchmarks
    can separate planning overhead from evaluation time; ``index_provider``
    lets a shared cache supply the safe subqueries'
    :class:`~repro.core.query_index.QueryIndex` objects.  Safe subqueries
    go to the labeling engine as :func:`label_routed_subtrees` decides.

    Without node lists the unsafe remainder is joined bottom-up; with them
    it is one multi-source product-DFA sweep.  ``direction`` orients the
    sweep: ``"forward"`` from the sources, ``"backward"`` from the targets
    over the reversed macro DFA, or ``"auto"`` to go backward exactly when
    the target list has fewer seeds.
    """
    from repro.core.exec import build_physical_plan, execute

    plan, indexes = _prepare(run, query, plan, index_provider)
    physical = build_physical_plan(
        run, plan, l1, l2, indexes=indexes, direction=direction
    )
    return execute(physical)

