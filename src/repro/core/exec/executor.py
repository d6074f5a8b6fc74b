"""Physical-plan execution.

``execute`` materializes a plan's answer; ``execute_iter`` streams it.  The
materialized answer is *interned*: every operator returns a
:class:`~repro.core.bitset.PackedRelation` over the run's topologically
numbered positions (source-major rows), and the caller unpacks it once —
:meth:`~repro.core.bitset.PackedRelation.to_pairs` in sorted order, as the
service does, or ``iter_pairs`` unordered.  Each operator has one compute
kernel: a :class:`LabelDecodeOp` is the group-at-a-time label decode of
Algorithm 2, whose pairs are packed as they stream out; a :class:`JoinOp`
is the bottom-up relational evaluation on the packed bitset kernel
(:func:`~repro.core.relations.evaluate_regex_relation_packed`), whose root
relation is the answer as is, or is streamed row by row; and a
:class:`FrontierSearchOp` is one multi-source sweep
(:func:`~repro.core.relations.frontier_search`) that answers every seed in a
single pass over the run's topologically numbered positions, with macro
relations decoded lazily on first use, its hits folded into rows.
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import Callable, Iterator, TypeVar

from repro.automata.regex import RegexNode
from repro.core.allpairs import all_pairs_iter, all_pairs_safe_query
from repro.core.bitset import PackedRelation
from repro.core.exec.ops import FrontierSearchOp, JoinOp, LabelDecodeOp
from repro.core.exec.plan import PhysicalPlan
from repro.core.relations import (
    NodePairs,
    evaluate_regex_relation_packed,
    frontier_search,
    iter_frontier_search,
)
from repro.obs import Span, get_tracer

__all__ = ["execute", "execute_iter"]

_T = TypeVar("_T")


def execute(plan: PhysicalPlan) -> PackedRelation:
    """Run a physical plan to its interned answer: a packed relation over
    ``plan.run.packed.interner``, which the caller unpacks (``to_pairs``
    yields the pairs in ``(source id, target id)`` order)."""
    root = plan.root
    if isinstance(root, LabelDecodeOp):
        with get_tracer().span(
            "exec.label_decode", sources=len(root.l1), targets=len(root.l2)
        ) as span:
            return _counted(
                span,
                PackedRelation.from_pairs(
                    plan.run.packed.interner,
                    all_pairs_iter(
                        plan.run, list(root.l1), list(root.l2), plan.indexes(root.node)
                    ),
                ),
            )
    if isinstance(root, FrontierSearchOp):
        with _frontier_span(plan, root) as span:
            return _counted(span, _sweep(plan, root, frontier_search, span))
    if isinstance(root, JoinOp):
        with _join_span(root) as span:
            return _counted(span, _join(plan, root))
    raise TypeError(f"unknown physical operator {root!r}")


def _counted(span: Span, relation: PackedRelation) -> PackedRelation:
    """Set the span's ``pairs`` when tracing is on: the count is a popcount
    of every row, which an untraced request does not pay."""
    if get_tracer().enabled:
        span.set("pairs", len(relation))
    return relation


def execute_iter(plan: PhysicalPlan) -> Iterator[tuple[str, str]]:
    """Stream a physical plan's pairs (each exactly once, unordered)."""
    root = plan.root
    if isinstance(root, LabelDecodeOp):
        return get_tracer().wrap_iter(
            "exec.label_decode",
            all_pairs_iter(
                plan.run, list(root.l1), list(root.l2), plan.indexes(root.node)
            ),
            sources=len(root.l1),
            targets=len(root.l2),
        )
    if isinstance(root, FrontierSearchOp):
        return _iter_frontier(plan, root)
    if isinstance(root, JoinOp):
        return _iter_join(plan, root)
    raise TypeError(f"unknown physical operator {root!r}")


def _join_span(op: JoinOp) -> AbstractContextManager[Span]:
    return get_tracer().span("exec.join", routed=len(op.routed))


def _join(plan: PhysicalPlan, op: JoinOp) -> PackedRelation:
    """The packed root relation, with routed safe subtrees answered by the
    labeling engine over every node of the run."""
    run, indexes = plan.run, plan.indexes
    nodes = list(run.node_ids())

    def subquery_evaluator(node: RegexNode) -> NodePairs | None:
        if node not in op.routed:
            return None
        return all_pairs_safe_query(run, nodes, nodes, indexes(node))

    return evaluate_regex_relation_packed(run, op.root, subquery_evaluator=subquery_evaluator)


def _iter_join(plan: PhysicalPlan, op: JoinOp) -> Iterator[tuple[str, str]]:
    with _join_span(op):
        yield from _join(plan, op).iter_pairs(plan.run.packed.interner)


def _frontier_span(plan: PhysicalPlan, op: FrontierSearchOp) -> AbstractContextManager[Span]:
    """The sweep's span: its direction, seed count and pruned universe (the
    allowed node count, or the run size when unpruned); the sweep adds how
    many nodes it visited."""
    universe = op.allowed.count(1) if op.allowed is not None else plan.run.node_count
    return get_tracer().span(
        "exec.frontier_search",
        direction=op.direction,
        seeds=len(op.seeds),
        universe=universe,
    )


def _sweep(
    plan: PhysicalPlan, op: FrontierSearchOp, search: Callable[..., _T], span: Span
) -> _T:
    """Hand one operator to a sweep entry point over the run's integer view:
    forward follows successors in topological order, backward follows
    predecessors in reverse order."""
    return search(
        plan.run.packed,
        op.dfa,
        op.seeds,
        allowed=op.allowed,
        emit_filter=op.emit_filter,
        macros={tag: relation.expander(op.direction) for tag, relation in op.macros.items()},
        forward=op.direction == "forward",
        span=span,
    )


def _iter_frontier(plan: PhysicalPlan, op: FrontierSearchOp) -> Iterator[tuple[str, str]]:
    with _frontier_span(plan, op) as span:
        yield from _sweep(plan, op, iter_frontier_search, span)
