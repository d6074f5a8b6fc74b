"""A simple cost model for choosing a query strategy.

The paper's conclusion lists as future work "building a cost model to predict
the intermediate result size so as to optimize the query process": its
experiments show that the index-based baseline G3 wins on *highly selective*
IFQs while the labeling-based engine wins on lowly selective queries and
Kleene stars.  This module implements that missing piece as a small,
statistics-driven selector:

* the per-tag selectivities come from the edge-tag inverted index that
  baseline G3 needs anyway;
* the cost of the labeling engine is modeled as (number of candidate pairs) ×
  (decode cost), with the candidate count taken from the input list sizes;
* the cost of G3 is modeled as the size of the intermediate join chain implied
  by the IFQ's tag selectivities (the quantity the paper identifies as the
  baseline's failure mode);
* Kleene-star-shaped queries route to the labeling engine, mirroring
  Fig. 13g/h.

The estimates are deliberately coarse — the goal is to reproduce the *shape*
of the paper's conclusion (who should win where), not to be a production
optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

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
)
from repro.core.safety import is_safe_query
from repro.datasets.index import EdgeTagIndex
from repro.obs import get_tracer
from repro.workflow.run import Run
from repro.workflow.spec import Specification

__all__ = [
    "StrategyEstimate",
    "CostModel",
    "ifq_tags",
    "relation_size_cap",
    "estimate_relation_size",
    "estimate_join_cost",
    "estimate_label_all_pairs_cost",
]

#: Relative cost of one label decode versus touching one indexed pair.
DECODE_COST = 4.0

#: Cost of one regular-path-label decode relative to one join/probe operation
#: of the relational evaluator.  In the paper's Java implementation the two
#: are comparable; in pure Python the matrix decode is noticeably heavier, so
#: the cost-based router is deliberately conservative about preferring labels.
LABEL_DECODE_VS_JOIN = 30.0

#: Fraction of an all-pairs candidate space that is typically reachable in a
#: workflow DAG (used to size the label engine's candidate set).
REACHABLE_FRACTION = 0.35


def ifq_tags(node: RegexNode) -> list[str] | None:
    """If the query has the IFQ shape ``_* a1 _* a2 _* ... ak _*``, return the
    tag sequence ``[a1, ..., ak]``; otherwise return ``None``.

    The shape is strict (as in the paper's Option G3): the expression starts
    and ends with ``_*`` and consecutive tags are separated by ``_*`` — plain
    concatenations such as ``a b`` are *not* IFQs because they constrain the
    matched edges to be adjacent.
    """

    def is_any_star(part: RegexNode) -> bool:
        return isinstance(part, Star) and isinstance(part.child, AnySymbol)

    if is_any_star(node):
        return []
    if not isinstance(node, Concat):
        return None
    parts = node.parts
    if len(parts) % 2 == 0 or not is_any_star(parts[0]) or not is_any_star(parts[-1]):
        return None
    tags: list[str] = []
    for position, part in enumerate(parts):
        if position % 2 == 0:
            if not is_any_star(part):
                return None
        else:
            if not isinstance(part, Symbol):
                return None
            tags.append(part.tag)
    return tags


def _contains_repetition(node: RegexNode) -> bool:
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, (Star, Plus)) and not isinstance(current.child, AnySymbol):
            return True
        stack.extend(current.children())
    return False


def relation_size_cap(run: Run) -> float:
    """The ``|V|^2`` cap of :func:`estimate_relation_size`: an estimate
    equal to it says only that the subexpression may relate every pair."""
    return float(max(1, run.node_count)) ** 2


def estimate_relation_size(run: Run, node: RegexNode) -> float:
    """Rough estimate of the number of node pairs a subexpression relates.

    Uses only the run's per-tag edge counts (the same statistics the inverted
    index stores); all estimates are capped at :func:`relation_size_cap`.
    """
    node_count = max(1, run.node_count)
    cap = relation_size_cap(run)

    def visit(current: RegexNode) -> float:
        if isinstance(current, Epsilon):
            return float(node_count)
        if isinstance(current, Symbol):
            return float(len(run.edges_by_tag.get(current.tag, ())))
        if isinstance(current, AnySymbol):
            return float(run.edge_count)
        if isinstance(current, Union):
            return min(cap, sum(visit(part) for part in current.parts))
        if isinstance(current, Concat):
            size = None
            for part in current.parts:
                part_size = visit(part)
                size = part_size if size is None else min(cap, size * part_size / node_count)
            return size if size is not None else float(node_count)
        if isinstance(current, (Star, Plus)):
            inner = visit(current.child)
            # A repetition can connect anything its child chains together;
            # the closure of a chain of length L has ~L^2/2 pairs.
            closure = min(cap, inner * inner / 2 + inner)
            if isinstance(current, Star):
                closure = min(cap, closure + node_count)
            return closure
        raise TypeError(f"unknown regex node {current!r}")

    return visit(node)


def estimate_join_cost(run: Run, node: RegexNode) -> float:
    """Rough estimate of the work of evaluating a subexpression with joins
    (Option G1): intermediate relation sizes plus join probe counts."""
    node_count = max(1, run.node_count)

    def visit(current: RegexNode) -> tuple[float, float]:
        """Return ``(cost, size)`` for the subexpression."""
        if isinstance(current, (Epsilon, Symbol, AnySymbol)):
            size = estimate_relation_size(run, current)
            return size, size
        if isinstance(current, Union):
            costs, sizes = zip(*(visit(part) for part in current.parts))
            return sum(costs) + sum(sizes), min(float(node_count) ** 2, sum(sizes))
        if isinstance(current, Concat):
            total = 0.0
            size = None
            for part in current.parts:
                part_cost, part_size = visit(part)
                total += part_cost
                if size is None:
                    size = part_size
                else:
                    total += size * part_size / node_count
                    size = min(float(node_count) ** 2, size * part_size / node_count)
            return total, size if size is not None else float(node_count)
        if isinstance(current, (Star, Plus)):
            child_cost, child_size = visit(current.child)
            closure_size = estimate_relation_size(run, current)
            # Semi-naive closure touches every derived pair at least once and
            # probes the child relation for each frontier pair.
            closure_cost = child_cost + closure_size + child_size
            return closure_cost, closure_size
        raise TypeError(f"unknown regex node {current!r}")

    cost, _ = visit(node)
    return cost


def estimate_label_all_pairs_cost(node_count: int) -> float:
    """Estimated work of answering a safe subquery with the all-pairs label
    engine over the full node set (candidate reachable pairs times the
    relative cost of a decode)."""
    candidates = REACHABLE_FRACTION * float(node_count) ** 2
    return candidates * LABEL_DECODE_VS_JOIN


@dataclass(frozen=True)
class StrategyEstimate:
    """A cost estimate for one evaluation strategy."""

    strategy: str
    cost: float
    reason: str


class CostModel:
    """Chooses between the labeling engine and the baselines for a query."""

    def __init__(self, spec: Specification, index: EdgeTagIndex) -> None:
        self._spec = spec
        self._index = index

    # -- estimates -----------------------------------------------------------------

    def estimate_label_engine(self, query: str | RegexNode, input_pairs: int) -> StrategyEstimate:
        node = parse_regex(query)
        safe = is_safe_query(self._spec, node)
        if safe:
            cost = input_pairs * DECODE_COST
            return StrategyEstimate("optRPL", cost, "safe query: one decode per candidate pair")
        cost = input_pairs * DECODE_COST * 2
        return StrategyEstimate(
            "decomposition", cost, "unsafe query: safe subqueries decoded, remainder joined"
        )

    def estimate_g3(self, query: str | RegexNode, input_pairs: int) -> StrategyEstimate | None:
        """Cost of the index + reachability-label baseline (IFQ shapes only)."""
        tags = ifq_tags(parse_regex(query))
        if tags is None:
            return None
        if not tags:
            return StrategyEstimate("G3", float(input_pairs), "pure reachability")
        counts = [self._index.count(tag) for tag in tags]
        if any(count == 0 for count in counts):
            return StrategyEstimate("G3", 1.0, "some tag never occurs: empty result")
        # The join chain touches |E_ai| x |E_ai+1| candidate pairs per step.
        cost = float(counts[0])
        for previous, current in zip(counts, counts[1:]):
            cost += float(previous) * float(current)
        cost += float(counts[-1])
        return StrategyEstimate("G3", cost, f"join chain over tag counts {counts}")

    def estimate_g1(self, query: str | RegexNode, run_edges: int) -> StrategyEstimate:
        node = parse_regex(query)
        penalty = 50.0 if _contains_repetition(node) else 5.0
        return StrategyEstimate(
            "G1", penalty * run_edges, "join/fixpoint evaluation over the run"
        )

    # -- selection -----------------------------------------------------------------

    def choose(
        self, query: str | RegexNode, *, input_pairs: int, run_edges: int
    ) -> StrategyEstimate:
        """Pick the cheapest strategy for the query under this cost model."""
        with get_tracer().span("planner.cost_choose") as span:
            candidates = [self.estimate_label_engine(query, input_pairs)]
            g3 = self.estimate_g3(query, input_pairs)
            if g3 is not None:
                candidates.append(g3)
            candidates.append(self.estimate_g1(query, run_edges))
            best = min(candidates, key=lambda estimate: estimate.cost)
            span.set("strategy", best.strategy)
            span.set("candidates", len(candidates))
            return best
