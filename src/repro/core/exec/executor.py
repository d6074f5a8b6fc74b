"""Physical-plan execution.

``execute`` is the executor's one entry: it runs a plan to its *interned*
answer.  Every operator returns a :class:`~repro.core.bitset.PackedRelation`
over the run's topologically numbered positions (source-major rows), and
the caller unpacks it once — :meth:`~repro.core.bitset.PackedRelation.to_pairs`
in sorted order, as the service does, or ``iter_pairs`` unordered, as the
engine's unsafe stream does.  Each operator has one compute kernel: a
:class:`LabelDecodeOp` is the group-at-a-time label decode of Algorithm 2,
whose pairs are packed as they stream out; a :class:`JoinOp` is the
bottom-up relational evaluation on the packed bitset kernel
(:func:`~repro.core.relations.evaluate_regex_relation_packed`), whose root
relation is the answer as is; and a :class:`FrontierSearchOp` is one
multi-source sweep (:func:`~repro.core.relations.frontier_search`) that
answers every seed in a single pass over the run's topologically numbered
positions, with macro relations decoded lazily on first use, its hits
folded into rows.
"""

from __future__ import annotations

from repro.automata.regex import RegexNode
from repro.core.allpairs import all_pairs_iter, all_pairs_safe_query
from repro.core.bitset import PackedRelation
from repro.core.exec.ops import FrontierSearchOp, JoinOp, LabelDecodeOp
from repro.core.exec.plan import PhysicalPlan
from repro.core.relations import (
    NodePairs,
    evaluate_regex_relation_packed,
    frontier_search,
)
from repro.obs import Span, get_tracer

__all__ = ["execute"]


def execute(plan: PhysicalPlan) -> PackedRelation:
    """Run a physical plan to its interned answer: a packed relation over
    ``plan.run.packed.interner``, which the caller unpacks (``to_pairs``
    yields the pairs in ``(source id, target id)`` order)."""
    root = plan.root
    tracer = get_tracer()
    if isinstance(root, LabelDecodeOp):
        with tracer.span(
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
        # The pruned universe: the allowed node count, or the run size when
        # unpruned; the sweep adds how many nodes it visited.
        universe = (
            root.allowed.count(1) if root.allowed is not None else plan.run.node_count
        )
        with tracer.span(
            "exec.frontier_search",
            direction=root.direction,
            seeds=len(root.seeds),
            universe=universe,
        ) as span:
            return _counted(span, _sweep(plan, root, span))
    if isinstance(root, JoinOp):
        with tracer.span("exec.join", routed=len(root.routed)) as span:
            return _counted(span, _join(plan, root))
    raise TypeError(f"unknown physical operator {root!r}")


def _counted(span: Span, relation: PackedRelation) -> PackedRelation:
    """Set the span's ``pairs`` when tracing is on: the count is a popcount
    of every row, which an untraced request does not pay."""
    if get_tracer().enabled:
        span.set("pairs", len(relation))
    return relation


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


def _sweep(plan: PhysicalPlan, op: FrontierSearchOp, span: Span) -> PackedRelation:
    """One operator's sweep over the run's integer view: forward follows
    successors in topological order, backward follows predecessors in
    reverse order."""
    return frontier_search(
        plan.run.packed,
        op.dfa,
        op.seeds,
        allowed=op.allowed,
        emit_filter=op.emit_filter,
        macros={tag: relation.expander(op.direction) for tag, relation in op.macros.items()},
        forward=op.direction == "forward",
        span=span,
    )
