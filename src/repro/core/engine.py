"""The public facade: :class:`ProvenanceQueryEngine`.

One engine instance wraps one workflow specification and exposes the whole
query pipeline of the paper:

* derive labeled runs (executions) of the specification,
* check query safety,
* answer pairwise queries from labels alone (Algorithm 1),
* answer all-pairs safe queries (Algorithm 2, decoded group at a time),
* answer general queries through safe-subtree decomposition,
* answer plain reachability queries,

while caching the per-query indices (safety analysis + transition matrices),
which is the query-time "overhead" measured in Fig. 13a/b.

Caching goes through a bounded, shared
:class:`~repro.service.cache.IndexCache` keyed by the specification
fingerprint and the query's canonical normal form, so ``a|b`` and ``b|a``
share one index and several engines (or a whole
:class:`~repro.service.service.QueryService`) can pool their per-query work
by passing the same cache instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.automata.boolean_matrix import BooleanMatrix
from repro.automata.regex import RegexNode, parse_regex
from repro.core.allpairs import all_pairs_iter, all_pairs_reachability
from repro.core.bitset import PackedRelation
from repro.core.decomposition import DecompositionPlan, evaluate_general_query
from repro.core.exec.plan import check_direction
from repro.core.pairwise import answer_pairwise_query, pairwise_reach_matrix
from repro.core.query_index import QueryIndex
from repro.core.safety import SafetyReport
from repro.errors import UnsafeQueryError
from repro.labeling.reachability import is_reachable
from repro.obs import get_tracer
from repro.workflow.derivation import derive_run
from repro.workflow.run import Run
from repro.workflow.spec import Specification

if TYPE_CHECKING:
    from repro.service.cache import IndexCache

__all__ = ["ProvenanceQueryEngine", "DEFAULT_CACHE_ENTRIES"]

DEFAULT_CACHE_ENTRIES = 128


class ProvenanceQueryEngine:
    """Regular path queries over executions of one workflow specification.

    Parameters
    ----------
    spec:
        The workflow specification the engine answers queries against.
    cache:
        An optional shared :class:`~repro.service.cache.IndexCache`.  By
        default each engine gets its own bounded cache
        (``DEFAULT_CACHE_ENTRIES`` entries); passing one cache to several
        engines lets them share per-query indexes across specifications.
    """

    def __init__(self, spec: Specification, *, cache: "IndexCache | None" = None) -> None:
        if cache is None:
            # Imported lazily: repro.service imports this module at load time.
            from repro.service.cache import IndexCache

            cache = IndexCache(max_entries=DEFAULT_CACHE_ENTRIES)
        self._spec = spec
        self._cache = cache

    # -- basics ----------------------------------------------------------------------

    @property
    def spec(self) -> Specification:
        return self._spec

    @property
    def cache(self) -> "IndexCache":
        """The (possibly shared) index cache backing this engine."""
        return self._cache

    def derive(
        self, *, seed: int | None = None, target_edges: int | None = None, **kwargs: Any
    ) -> Run:
        """Derive a labeled run of the specification (see :func:`derive_run`)."""
        return derive_run(self._spec, seed=seed, target_edges=target_edges, **kwargs)

    def _check_run(self, run: Run) -> None:
        # Compare grammar content, not object identity or display name: a run
        # reloaded from JSON (or a renamed spec) must still be answerable.
        if run.spec is not self._spec and run.spec.fingerprint != self._spec.fingerprint:
            raise ValueError(
                "the run was derived from a different specification than this engine's"
            )

    # -- safety ----------------------------------------------------------------------

    def safety_report(self, query: str | RegexNode) -> SafetyReport:
        """The full safety analysis of a query (cached)."""
        return self._cache.safety(self._spec, query)

    def is_safe(self, query: str | RegexNode) -> bool:
        """Is the query safe for this specification (Definition 13)?"""
        return self.safety_report(query).is_safe

    def query_index(self, query: str | RegexNode) -> QueryIndex:
        """The cached :class:`QueryIndex` of a safe query."""
        return self._cache.index(self._spec, query)

    def plan(self, query: str | RegexNode) -> DecompositionPlan:
        """The safe-subtree decomposition plan of a (possibly unsafe) query.

        Plans are cached in the shared :class:`IndexCache` (keyed by the
        query's canonical form), so repeated unsafe queries are planned once
        per specification; planning also warms the safe subqueries' safety
        reports and indexes.
        """
        return self._cache.plan(self._spec, query)

    def _subtree_index_provider(self) -> Callable[[RegexNode], QueryIndex]:
        """Safe-subquery indexes resolved through the shared cache."""
        return lambda node: self._cache.index(self._spec, node)

    # -- pairwise queries ---------------------------------------------------------------

    def reachable(self, run: Run, source: str, target: str) -> bool:
        """Plain reachability ``u ⤳ v`` decoded from labels (prior work [4]).

        An id absent from the run matches nothing, so it reaches nothing.
        """
        self._check_run(run)
        if source not in run or target not in run:
            return False
        return is_reachable(run.label_of(source), run.label_of(target), self._spec)

    def pairwise(self, run: Run, source: str, target: str, query: str | RegexNode) -> bool:
        """Algorithm 1: does a path from ``source`` to ``target`` match the query?

        Requires the query to be safe; unsafe queries raise
        :class:`~repro.errors.UnsafeQueryError` (evaluate them with
        :meth:`evaluate` instead).  An endpoint absent from the run answers
        ``False``.
        """
        self._check_run(run)
        index = self.query_index(query)
        if source not in run or target not in run:
            return False
        return answer_pairwise_query(index, run.label_of(source), run.label_of(target))

    def pairwise_states(
        self, run: Run, source: str, target: str, query: str | RegexNode
    ) -> BooleanMatrix:
        """The full DFA-state relation realized by paths from source to target
        (empty when an endpoint is absent from the run)."""
        self._check_run(run)
        index = self.query_index(query)
        if source not in run or target not in run:
            return BooleanMatrix.zero(index.identity.size)
        return pairwise_reach_matrix(index, run.label_of(source), run.label_of(target))

    # -- all-pairs queries ----------------------------------------------------------------

    def all_pairs_reachability(
        self, run: Run, l1: Sequence[str] | None = None, l2: Sequence[str] | None = None
    ) -> set[tuple[str, str]]:
        """All reachable pairs of ``l1 × l2`` in input+output-linear time."""
        self._check_run(run)
        return all_pairs_reachability(run, run.known_ids(l1), run.known_ids(l2))

    def all_pairs(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
    ) -> set[tuple[str, str]]:
        """Algorithm 2 for a *safe* query (see :mod:`repro.core.allpairs`)."""
        return set(self.all_pairs_iter(run, query, l1, l2))

    def all_pairs_iter(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
    ) -> Iterator[tuple[str, str]]:
        """Stream the matching pairs of a *safe* all-pairs query.

        Pairs are yielded as they are found (each exactly once, in no
        particular order) without ever materializing the result set, so a
        consumer can stop early or process millions of pairs in constant
        memory.  Ids absent from the run are dropped.  Unsafe queries raise
        :class:`~repro.errors.UnsafeQueryError`; use :meth:`evaluate_iter`
        for those.
        """
        self._check_run(run)
        index = self.query_index(query)
        return all_pairs_iter(run, run.known_ids(l1), run.known_ids(l2), index)

    def evaluate(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
        *,
        direction: str = "auto",
    ) -> set[tuple[str, str]]:
        """Answer any all-pairs query, safe or not, as a set of pairs
        (the unordered unpack of :meth:`evaluate_packed`)."""
        relation = self.evaluate_packed(run, query, l1, l2, direction=direction)
        return set(relation.iter_pairs(run.packed.interner))

    def evaluate_packed(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
        *,
        direction: str = "auto",
    ) -> PackedRelation:
        """Answer any all-pairs query, safe or not, as its interned answer:
        a :class:`~repro.core.bitset.PackedRelation` over
        ``run.packed.interner``, which ``to_pairs`` unpacks in sorted order.

        Safe queries go straight to Algorithm 2, whose pairs are packed as
        they stream out; unsafe queries are decomposed into their maximal
        safe subqueries plus an unsafe remainder (Section IV-B) evaluated
        with restriction pushdown: the ``l1``/``l2`` lists bound every
        intermediate relation instead of being applied to a whole-run
        result.  ``direction`` orients the remainder's frontier sweep
        (``"backward"`` searches from the targets over the reversed macro
        DFA; see :func:`~repro.core.decomposition.evaluate_general_query`).
        """
        # Validate up front: safe queries never reach the decomposition
        # engine, so a typo must not pass silently until a query happens to
        # be unsafe.
        check_direction(direction)
        self._check_run(run)
        tracer = get_tracer()
        with tracer.span("query.evaluate", direction=direction) as evaluation:
            with tracer.span("query.parse"):
                node = parse_regex(query)
            safe = True
            try:
                with tracer.span("query.safety"):
                    self.query_index(node)
            except UnsafeQueryError:
                safe = False
            evaluation.set("safe", safe)
            if not safe:
                with tracer.span("query.execute", path="decomposition"):
                    return evaluate_general_query(
                        run,
                        node,
                        l1,
                        l2,
                        plan=self.plan(node),
                        index_provider=self._subtree_index_provider(),
                        direction=direction,
                    )
            with tracer.span("query.execute", path="safe-allpairs"):
                return PackedRelation.from_pairs(
                    run.packed.interner, self.all_pairs_iter(run, node, l1, l2)
                )

    def evaluate_iter(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
        *,
        direction: str = "auto",
    ) -> Iterator[tuple[str, str]]:
        """Stream the answers of any all-pairs query, safe or not, each
        pair exactly once and in no particular order.

        Safe queries stream lazily straight out of the group-at-a-time
        evaluator, in constant memory.  Unsafe queries are computed whole
        on the first draw — the interned answer of :meth:`evaluate_packed`,
        at most one bit per (source, target) position pair of the run — and
        then unpacked unordered, one row's targets at a time.
        Validation (direction, run/spec match, parsing, safety, planning)
        runs eagerly, before the iterator is returned.
        """
        check_direction(direction)
        self._check_run(run)
        tracer = get_tracer()
        with tracer.span("query.parse"):
            node = parse_regex(query)
        safe = True
        try:
            with tracer.span("query.safety"):
                self.query_index(node)
        except UnsafeQueryError:
            safe = False
        if not safe:
            plan = self.plan(node)

            def unpacked() -> Iterator[tuple[str, str]]:
                relation = evaluate_general_query(
                    run,
                    node,
                    l1,
                    l2,
                    plan=plan,
                    index_provider=self._subtree_index_provider(),
                    direction=direction,
                )
                yield from relation.iter_pairs(run.packed.interner)

            return tracer.wrap_iter("query.stream", unpacked(), path="decomposition")
        return tracer.wrap_iter(
            "query.stream", self.all_pairs_iter(run, node, l1, l2), path="safe-allpairs"
        )

    # -- reporting -------------------------------------------------------------------------

    def describe(self) -> str:
        # Count only this specification's entries: the cache may be shared
        # with other engines (or a whole QueryService) serving other specs.
        entries = self._cache.entry_count_for(self._spec.fingerprint)
        return (
            f"ProvenanceQueryEngine over {self._spec.name!r} "
            f"({entries} cached query entries)"
        )
