"""The physical planner: logical plan + workload → one physical operator.

``build_physical_plan`` is the single seam between the planner layer
(:mod:`repro.core.decomposition` — safety, decomposition, macro DFAs, label
routing) and the executors (:mod:`repro.core.exec.executor`).  The
request's shape alone picks the operator; there is no cost-based choice:

* a fully safe query becomes one :class:`LabelDecodeOp`;
* an unsafe query without node lists becomes one :class:`JoinOp`: its
  answer is the whole relation, which restriction pushdown cannot shrink;
* an unsafe query with a source or target list becomes one
  :class:`FrontierSearchOp`.

This module also resolves the frontier's **direction**: forward seeds the
product search with the requested sources over the macro DFA; backward
seeds it with the requested *targets* over the reversed macro DFA
(:meth:`repro.automata.dfa.DFA.reversed`), following run and macro edges
against their direction.  ``auto`` goes backward exactly when there is a
target list with fewer seeds inside the pruned universe than the sources
have, so a query with a handful of targets and thousands of sources flips
to backward.

The decision is a seed count over the node lists, computed fresh on every
plan.  What the :class:`DecompositionPlan` memoizes (and the store persists)
is the forward and the reversed macro DFA, so a restarted service pays
neither the determinization nor the reversal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
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
from repro.core.relations import restriction_universe
from repro.obs import get_tracer
from repro.workflow.run import Run

__all__ = [
    "DIRECTIONS",
    "PhysicalPlan",
    "build_physical_plan",
    "check_direction",
]

#: Which way a frontier sweep may run (``auto`` compares the seed counts).
DIRECTIONS = ("auto", "forward", "backward")


def check_direction(direction: str) -> None:
    """Raise ``ValueError`` unless ``direction`` is a known value."""
    if direction not in DIRECTIONS:
        raise ValueError(
            f"unknown direction {direction!r}; use one of {list(DIRECTIONS)}"
        )


@dataclass
class PhysicalPlan:
    """A fully resolved physical plan: the root operator plus the run and
    index provider the executor runs it against."""

    run: Run
    root: PhysicalOp
    indexes: IndexProvider

    def describe(self) -> str:
        root = self.root
        if isinstance(root, FrontierSearchOp):
            choice = f"frontier, direction={root.direction}"
        elif isinstance(root, JoinOp):
            choice = "join"
        else:
            choice = "label-decode"
        return f"PhysicalPlan({choice}) over run of {self.run.node_count} nodes"


def _seed_count(run: Run, side: Sequence[int] | None, allowed: bytes | None) -> int:
    """How many seeds one frontier direction would start from: the side's
    run positions inside ``allowed``, or every allowed node without a list."""
    if side is None:
        return allowed.count(1) if allowed is not None else run.node_count
    if allowed is None:
        return len(side)
    return sum(allowed[position] for position in side)


def _resolve_direction(
    run: Run,
    sources: Sequence[int] | None,
    targets: Sequence[int] | None,
    allowed: bytes | None,
    requested: str,
) -> str:
    """The frontier direction for this workload.

    Both directions sweep the same pruned universe once, so ``auto`` only
    compares seed counts: backward iff there is a target list and it has
    fewer seeds inside ``allowed`` than the sources do (ties go forward).
    Only ids present in the run count as seeds.
    """
    if requested != "auto":
        return requested
    if targets is not None and _seed_count(run, targets, allowed) < _seed_count(
        run, sources, allowed
    ):
        return "backward"
    return "forward"


def _flags(node_count: int, positions: Sequence[int] | None) -> bytes | None:
    """One flag byte per run position, set on the distinct ``positions``;
    ``None`` (every node) when there is no list or it names every node."""
    if positions is None or len(positions) == node_count:
        return None
    flags = bytearray(node_count)
    for position in positions:
        flags[position] = 1
    return bytes(flags)


def _macro_decoder(
    run: Run,
    subtree: RegexNode,
    indexes: IndexProvider,
    allowed: bytes | None,
) -> Callable[[], Iterable[tuple[int, int]]]:
    """The lazy label decode of one routed safe subquery's relation over the
    ``allowed`` universe, as run positions (runs once per MacroRelation)."""

    def decode() -> Iterable[tuple[int, int]]:
        interner = run.packed.interner
        index = interner.index
        universe = (
            list(compress(interner.ids, allowed)) if allowed is not None else list(interner.ids)
        )
        return (
            (index[source], index[target])
            for source, target in all_pairs_iter(run, universe, universe, indexes(subtree))
        )

    return decode


def _frontier_op(
    run: Run,
    plan: DecompositionPlan,
    routed: list[RegexNode],
    sources: Sequence[int] | None,
    targets: Sequence[int] | None,
    allowed: bytes | None,
    direction: str,
    indexes: IndexProvider,
) -> FrontierSearchOp:
    rewritten, macro_map = (
        _substitute_macros(plan.root, routed) if routed else (plan.root, {})
    )
    macro_tags = set(macro_map)
    if direction == "backward":
        dfa = _reversed_macro_dfa(plan, rewritten, macro_tags)
        seeds, emitted = targets, sources
    else:
        dfa = _macro_dfa(plan, rewritten, macro_tags)
        seeds, emitted = sources, targets
    macros = {
        tag: MacroRelation(_macro_decoder(run, subtree, indexes, allowed))
        for tag, subtree in macro_map.items()
    }
    return FrontierSearchOp(
        direction=direction,
        dfa=dfa,
        seeds=tuple(seeds) if seeds is not None else tuple(range(run.node_count)),
        emit_filter=_flags(run.node_count, emitted),
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
    direction: str = "auto",
) -> PhysicalPlan:
    """Resolve a logical decomposition plan into one physical operator.

    Pure: no relation is materialized, no search runs, and the only side
    effects are memoizations on the logical plan (the forward and reversed
    macro DFAs) — exactly the artifacts the cache layer persists.  A
    frontier plan costs two O(V+E) flag passes over the run (the restriction
    universe) plus one flag array over the emitting side's list; the other
    operators cost O(1) beyond their node lists.
    """
    check_direction(direction)
    with get_tracer().span("exec.plan") as span:
        op: PhysicalOp
        if plan.is_fully_safe:
            op = LabelDecodeOp(
                node=plan.root,
                l1=run.known_ids(l1),
                l2=run.known_ids(l2),
            )
            span.set("operator", "label_decode")
        elif l1 is None and l2 is None:
            op = JoinOp(root=plan.root, routed=frozenset(label_routed_subtrees(plan, run)))
            span.set("operator", "join")
        else:
            allowed = restriction_universe(run, l1, l2)
            interner = run.packed.interner
            sources = interner.positions(l1) if l1 is not None else None
            targets = interner.positions(l2) if l2 is not None else None
            resolved = _resolve_direction(run, sources, targets, allowed, direction)
            op = _frontier_op(
                run,
                plan,
                label_routed_subtrees(plan, run),
                sources,
                targets,
                allowed,
                resolved,
                indexes,
            )
            span.set("operator", "frontier_search")
            span.set("direction", resolved)
        return PhysicalPlan(run=run, root=op, indexes=indexes)
