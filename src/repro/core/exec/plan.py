"""The physical planner: logical plan + workload → one physical operator.

``build_physical_plan`` is the single seam between the planner layer
(:mod:`repro.core.decomposition` — safety, decomposition, macro DFAs, cost
memos) and the executors (:mod:`repro.core.exec.executor`).  It resolves

* the **strategy** of the unsafe remainder — frontier search vs the
  bottom-up join evaluation — with the cost model of
  :mod:`repro.core.optimizer`, and
* the frontier **direction**: forward seeds the product search with the
  requested sources over the macro DFA; backward seeds it with the requested
  *targets* over the reversed macro DFA
  (:meth:`repro.automata.dfa.DFA.reversed`), following run and macro edges
  against their direction.  ``auto`` compares the two seed counts under the
  same per-seed cost bound, so a query with a handful of targets and
  thousands of sources flips to backward.

The decision itself is O(1) arithmetic and is computed fresh on every plan.
What the :class:`DecompositionPlan` memoizes (and the store persists) is the
forward and the reversed macro DFA, so a restarted service pays neither the
determinization nor the reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.automata.regex import RegexNode
from repro.core.allpairs import all_pairs_iter
from repro.core.decomposition import (
    DecompositionPlan,
    IndexProvider,
    _macro_dfa,
    _reversed_macro_dfa,
    _substitute_macros,
    label_routed_subtrees,
)
from repro.core.exec.ops import (
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    MacroRelation,
    PhysicalOp,
)
from repro.core.optimizer import estimate_frontier_search_cost, estimate_join_cost
from repro.core.relations import restriction_universe
from repro.obs import get_tracer
from repro.workflow.run import Run

__all__ = [
    "DIRECTIONS",
    "STRATEGIES",
    "PhysicalPlan",
    "build_physical_plan",
    "check_routing",
]

#: How the unsafe remainder may be evaluated (``auto`` lets the cost model pick).
STRATEGIES = ("auto", "frontier", "join")
#: Which way a frontier sweep may run (``auto`` compares the seed counts).
DIRECTIONS = ("auto", "forward", "backward")


def check_routing(strategy: str, direction: str) -> None:
    """Raise ``ValueError`` unless both routing choices are known values."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"unknown strategy {strategy!r}; use one of {list(STRATEGIES)}"
        )
    if direction not in DIRECTIONS:
        raise ValueError(
            f"unknown direction {direction!r}; use one of {list(DIRECTIONS)}"
        )


@dataclass
class PhysicalPlan:
    """A fully resolved physical plan: the root operator plus the run and
    index provider the executor runs it against.  ``strategy`` and
    ``direction`` record the resolved choices for reporting (``direction``
    is ``"-"`` for non-frontier plans)."""

    run: Run
    root: PhysicalOp
    indexes: IndexProvider
    strategy: str
    direction: str

    def describe(self) -> str:
        parts = f"strategy={self.strategy}"
        if self.strategy == "frontier":
            parts += f", direction={self.direction}"
        return f"PhysicalPlan({parts}) over run of {self.run.node_count} nodes"


def _seed_count(
    run: Run, side: Sequence[str] | None, allowed: frozenset[str] | None
) -> int:
    """How many seeds one frontier direction would start from."""
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
    it could only ever get it wrong.
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


def _macro_decoder(
    run: Run,
    subtree: RegexNode,
    indexes: IndexProvider,
    allowed: frozenset[str] | None,
) -> Callable[[], Iterable[tuple[str, str]]]:
    """The lazy label decode of one routed safe subquery's relation,
    restricted to the ``allowed`` universe (runs once per MacroRelation)."""

    def decode() -> Iterable[tuple[str, str]]:
        index = indexes(subtree)
        universe = list(allowed) if allowed is not None else list(run.node_ids())
        return all_pairs_iter(run, universe, universe, index)

    return decode


def _frontier_op(
    run: Run,
    plan: DecompositionPlan,
    routed: list[RegexNode],
    l1: Sequence[str] | None,
    l2: Sequence[str] | None,
    allowed: frozenset[str] | None,
    direction: str,
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
        tag: MacroRelation(_macro_decoder(run, subtree, indexes, allowed))
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
    indexes: IndexProvider,
    strategy: str = "auto",
    direction: str = "auto",
) -> PhysicalPlan:
    """Resolve a logical decomposition plan into one physical operator.

    Pure and cheap: no relation is materialized, no search runs, and the
    only side effects are memoizations on the logical plan (the forward and
    reversed macro DFAs) — exactly the artifacts the cache layer persists.
    """
    check_routing(strategy, direction)
    with get_tracer().span("exec.plan", requested=strategy) as span:
        op: PhysicalOp
        if plan.is_fully_safe:
            chosen, resolved_direction = "safe", "-"
            op = LabelDecodeOp(
                node=plan.root,
                l1=tuple(l1) if l1 is not None else run.node_ids(),
                l2=tuple(l2) if l2 is not None else run.node_ids(),
            )
        else:
            allowed = restriction_universe(run, l1, l2)
            routed = label_routed_subtrees(plan, run)
            resolved_direction = "-"
            if strategy != "auto":
                chosen = strategy
            elif l1 is None and l2 is None:
                # Unrestricted: the pruning cannot shrink any relation, so
                # joins win.
                chosen = "join"
            else:
                resolved_direction, frontier_cost = _resolve_direction(
                    run, plan, l1, l2, allowed, direction
                )
                chosen = (
                    "frontier"
                    if frontier_cost <= estimate_join_cost(run, plan.root)
                    else "join"
                )
            if chosen == "frontier":
                if resolved_direction == "-":
                    resolved_direction, _ = _resolve_direction(
                        run, plan, l1, l2, allowed, direction
                    )
                op = _frontier_op(
                    run, plan, routed, l1, l2, allowed, resolved_direction, indexes
                )
            else:
                resolved_direction = "-"
                op = JoinOp(
                    root=plan.root,
                    routed=frozenset(routed),
                    allowed=allowed,
                    l1=tuple(l1) if l1 is not None else None,
                    l2=tuple(l2) if l2 is not None else None,
                )
        span.set("strategy", chosen)
        span.set("direction", resolved_direction)
        return PhysicalPlan(
            run=run,
            root=op,
            indexes=indexes,
            strategy=chosen,
            direction=resolved_direction,
        )
