"""The physical planner: logical plan + workload → operator tree.

``build_physical_plan`` is the single seam between the planner layer
(:mod:`repro.core.decomposition` — safety, decomposition, macro DFAs, cost
memos) and the executors (:mod:`repro.core.exec.executor`).  It resolves

* the **strategy** of the unsafe remainder — per-seed frontier search vs the
  bottom-up join evaluation — with the cost model of
  :mod:`repro.core.optimizer`, and
* the frontier **direction**: forward runs one product search per requested
  source over the macro DFA; backward runs one per requested *target* over
  the reversed macro DFA (:meth:`repro.automata.dfa.DFA.reversed`),
  following run and macro edges against their direction.  ``auto`` compares
  the two seed counts under the same per-seed cost bound, so a query with a
  handful of targets and thousands of sources flips to backward instead of
  sweeping the run forward.

The decision itself is O(1) arithmetic and is always computed fresh; used
decisions are *recorded* on the :class:`DecompositionPlan` (keyed by a
log-bucketed workload shape) and persisted with it as an inspectable routing
history — and, more importantly, the reversed macro DFA is stored alongside
the forward one, so a restarted service pays no re-reversal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.automata.regex import RegexNode
from repro.core.allpairs import AllPairsOptions, all_pairs_iter
from repro.core.decomposition import (
    DecompositionPlan,
    IndexProvider,
    _macro_dfa,
    _reversed_macro_dfa,
    _substitute_macros,
    label_routed_subtrees,
)
from repro.core.exec.config import DIRECTIONS, ExecutorConfig
from repro.core.exec.ops import (
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    MacroRelation,
    PhysicalOp,
    RestrictOp,
)
from repro.core.optimizer import estimate_frontier_search_cost, estimate_join_cost
from repro.core.relations import restriction_universe
from repro.obs import get_tracer
from repro.workflow.run import Run

__all__ = ["PhysicalPlan", "build_physical_plan"]

_STRATEGIES = ("auto", "frontier", "join")


@dataclass
class PhysicalPlan:
    """A fully resolved physical plan: the operator tree plus everything the
    executor needs to run it (run, options, index provider, executor
    config).  ``strategy`` and ``direction`` record the resolved choices for
    reporting (``direction`` is ``"-"`` for non-frontier plans)."""

    run: Run
    logical: DecompositionPlan
    root: PhysicalOp
    options: AllPairsOptions
    indexes: IndexProvider
    executor: ExecutorConfig
    strategy: str
    direction: str

    def describe(self) -> str:
        parts = f"strategy={self.strategy}"
        if self.strategy == "frontier":
            parts += f", direction={self.direction}, workers={self.executor.workers}"
        return f"PhysicalPlan({parts}) over run of {self.run.node_count} nodes"


def _seed_count(
    run: Run, side: Sequence[str] | None, allowed: frozenset[str] | None
) -> int:
    """How many frontier searches one direction would launch."""
    if side is None:
        return len(allowed) if allowed is not None else run.node_count
    seeds = set(side)
    if allowed is not None:
        seeds &= allowed
    return len(seeds)


def _resolve_direction(
    run: Run,
    plan: DecompositionPlan,
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    allowed: frozenset[str] | None,
    requested: str,
) -> tuple[str, float]:
    """The frontier direction and its estimated cost for this workload.

    Always computed from the exact seed counts — the per-seed bound is
    direction-independent, so the comparison is O(1) arithmetic and caching
    it could only ever get it wrong.  (The decision is *recorded* on the
    plan afterwards, when a frontier plan actually uses it — see
    ``_record_direction`` — purely so it round-trips through the store as
    an inspectable routing history, never as a routing input.)
    """
    allowed_count = len(allowed) if allowed is not None else None
    forward_seeds = _seed_count(run, l1, allowed)
    backward_seeds = _seed_count(run, l2, allowed)

    def cost(seed_count: int) -> float:
        return estimate_frontier_search_cost(
            run, plan.root, seed_count, allowed_count=allowed_count
        )

    if requested == "forward":
        return "forward", cost(forward_seeds)
    if requested == "backward":
        return "backward", cost(backward_seeds)
    if l2 is None:
        # No target list: a backward sweep would seed from the whole run.
        return "forward", cost(forward_seeds)
    forward_cost = cost(forward_seeds)
    backward_cost = cost(backward_seeds)
    if backward_cost < forward_cost:
        return "backward", backward_cost
    return "forward", forward_cost


def _record_direction(
    run: Run,
    plan: DecompositionPlan,
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    allowed: frozenset[str] | None,
    direction: str,
) -> None:
    """Record a *used* frontier direction under a log-bucketed workload
    shape.  The direction is part of the key, so two workloads that share a
    bucket but resolve differently (or a config-forced override) coexist as
    separate records instead of flapping — each (shape, direction) pair is
    written once, and the store entry is only re-persisted when a genuinely
    new combination appears."""
    forward_seeds = _seed_count(run, l1, allowed)
    backward_seeds = _seed_count(run, l2, allowed)
    key = f"{forward_seeds.bit_length()}:{backward_seeds.bit_length()}:{direction}"
    if plan.cached_direction(key) != direction:
        plan.remember_direction(key, direction)


def _macro_decoder(
    run: Run,
    subtree: RegexNode,
    indexes: IndexProvider,
    allowed: frozenset[str] | None,
    options: AllPairsOptions,
) -> Callable[[], Iterable[tuple[str, str]]]:
    """The lazy label decode of one routed safe subquery's relation,
    restricted to the ``allowed`` universe (runs once per MacroRelation)."""

    def decode() -> Iterable[tuple[str, str]]:
        index = indexes(subtree)
        universe = list(allowed) if allowed is not None else list(run.node_ids())
        return all_pairs_iter(run, universe, universe, index, options)

    return decode


def _frontier_op(
    run: Run,
    plan: DecompositionPlan,
    routed: list[RegexNode],
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    allowed: frozenset[str] | None,
    direction: str,
    options: AllPairsOptions,
    indexes: IndexProvider,
) -> FrontierSearchOp:
    rewritten, macro_map = (
        _substitute_macros(plan.root, routed) if routed else (plan.root, {})
    )
    macro_tags = set(macro_map)
    if direction == "backward":
        dfa = _reversed_macro_dfa(plan, rewritten, macro_tags)
        seeds = tuple(dict.fromkeys(l2)) if l2 is not None else run.node_ids()
        emit_filter = frozenset(l1) if l1 is not None else None
    else:
        dfa = _macro_dfa(plan, rewritten, macro_tags)
        seeds = tuple(dict.fromkeys(l1)) if l1 is not None else run.node_ids()
        emit_filter = frozenset(l2) if l2 is not None else None
    macros = {
        tag: MacroRelation(_macro_decoder(run, subtree, indexes, allowed, options))
        for tag, subtree in macro_map.items()
    }
    return FrontierSearchOp(
        direction=direction,
        dfa=dfa,
        seeds=seeds,
        emit_filter=emit_filter,
        allowed=allowed,
        macros=macros,
    )


def build_physical_plan(
    run: Run,
    plan: DecompositionPlan,
    l1: Sequence[str] | None = None,
    l2: Sequence[str] | None = None,
    *,
    options: AllPairsOptions = AllPairsOptions(),
    indexes: IndexProvider,
    strategy: str = "auto",
    direction: str = "auto",
    executor: ExecutorConfig | None = None,
    push_restrictions: bool = True,
    cost_based_routing: bool = True,
) -> PhysicalPlan:
    """Resolve a logical decomposition plan into a physical operator tree.

    Pure and cheap: no relation is materialized, no search runs, and the
    only side effects are memoizations on the logical plan (macro DFAs,
    direction decisions) — exactly the artifacts the cache layer persists.
    ``direction`` overrides the executor config's when not ``"auto"``.
    """
    with get_tracer().span("exec.plan", requested=strategy) as span:
        physical = _build_physical_plan(
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
        span.set("strategy", physical.strategy)
        span.set("direction", physical.direction)
        return physical


def _build_physical_plan(
    run: Run,
    plan: DecompositionPlan,
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    *,
    options: AllPairsOptions,
    indexes: IndexProvider,
    strategy: str,
    direction: str,
    executor: ExecutorConfig | None,
    push_restrictions: bool,
    cost_based_routing: bool,
) -> PhysicalPlan:
    if strategy not in _STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; use 'auto', 'frontier' or 'join'"
        )
    if direction not in DIRECTIONS:
        raise ValueError(
            f"unknown direction {direction!r}; use one of {list(DIRECTIONS)}"
        )
    config = executor if executor is not None else ExecutorConfig()
    if direction != "auto":
        config = replace(config, direction=direction)

    if plan.is_fully_safe:
        op = LabelDecodeOp(
            node=plan.root,
            l1=tuple(l1) if l1 is not None else run.node_ids(),
            l2=tuple(l2) if l2 is not None else run.node_ids(),
        )
        return PhysicalPlan(
            run=run,
            logical=plan,
            root=op,
            options=options,
            indexes=indexes,
            executor=config,
            strategy="safe",
            direction="-",
        )

    allowed = restriction_universe(run, l1, l2) if push_restrictions else None
    routed = label_routed_subtrees(plan, run, cost_based_routing=cost_based_routing)

    resolved_direction: str | None = None
    if strategy != "auto":
        chosen = strategy
    elif not push_restrictions or (l1 is None and l2 is None):
        # The pre-pushdown reference point — and the unrestricted case, whose
        # relations the pruning cannot shrink — evaluate with joins.
        chosen = "join"
    else:
        resolved_direction, frontier_cost = _resolve_direction(
            run, plan, l1, l2, allowed, config.direction
        )
        chosen = (
            "frontier"
            if frontier_cost <= estimate_join_cost(run, plan.root)
            else "join"
        )

    if chosen == "frontier":
        if resolved_direction is None:
            resolved_direction, _ = _resolve_direction(
                run, plan, l1, l2, allowed, config.direction
            )
        _record_direction(run, plan, l1, l2, allowed, resolved_direction)
        op: PhysicalOp = _frontier_op(
            run, plan, routed, l1, l2, allowed, resolved_direction, options, indexes
        )
    else:
        resolved_direction = "-"
        op = RestrictOp(
            child=JoinOp(root=plan.root, routed=frozenset(routed), allowed=allowed),
            l1=tuple(l1) if l1 is not None else None,
            l2=tuple(l2) if l2 is not None else None,
        )
    return PhysicalPlan(
        run=run,
        logical=plan,
        root=op,
        options=options,
        indexes=indexes,
        executor=config,
        strategy=chosen,
        direction=resolved_direction,
    )
