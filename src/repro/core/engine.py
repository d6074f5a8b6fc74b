"""The public facade: :class:`ProvenanceQueryEngine`.

One engine instance wraps one workflow specification and exposes the whole
query pipeline of the paper:

* derive labeled runs (executions) of the specification,
* check query safety,
* answer pairwise queries from labels alone (Algorithm 1),
* answer all-pairs safe queries with or without the reachability filter
  (Algorithm 2, Options S1/S2),
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

from repro.automata.regex import RegexNode, parse_regex
from repro.core.allpairs import (
    AllPairsOptions,
    all_pairs_iter,
    all_pairs_reachability,
)
from repro.core.decomposition import (
    DecompositionPlan,
    evaluate_general_query,
    evaluate_general_query_iter,
)
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
    from repro.automata.boolean_matrix import BooleanMatrix
    from repro.core.exec import ExecutorConfig
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
        """Plain reachability ``u ⤳ v`` decoded from labels (prior work [4])."""
        self._check_run(run)
        return is_reachable(run.label_of(source), run.label_of(target), self._spec)

    def pairwise(self, run: Run, source: str, target: str, query: str | RegexNode) -> bool:
        """Algorithm 1: does a path from ``source`` to ``target`` match the query?

        Requires the query to be safe; unsafe queries raise
        :class:`~repro.errors.UnsafeQueryError` (evaluate them with
        :meth:`evaluate` instead).
        """
        self._check_run(run)
        index = self.query_index(query)
        return answer_pairwise_query(index, run.label_of(source), run.label_of(target))

    def pairwise_states(
        self, run: Run, source: str, target: str, query: str | RegexNode
    ) -> "BooleanMatrix":
        """The full DFA-state relation realized by paths from source to target."""
        self._check_run(run)
        index = self.query_index(query)
        return pairwise_reach_matrix(index, run.label_of(source), run.label_of(target))

    # -- all-pairs queries ----------------------------------------------------------------

    def all_pairs_reachability(
        self, run: Run, l1: Sequence[str] | None = None, l2: Sequence[str] | None = None
    ) -> set[tuple[str, str]]:
        """All reachable pairs of ``l1 × l2`` in input+output-linear time."""
        self._check_run(run)
        universe1 = list(l1) if l1 is not None else list(run.node_ids())
        universe2 = list(l2) if l2 is not None else list(run.node_ids())
        return all_pairs_reachability(run, universe1, universe2)

    def all_pairs(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
        *,
        use_reachability_filter: bool = True,
        vectorized: bool = True,
    ) -> set[tuple[str, str]]:
        """Algorithm 2 for a *safe* query (vectorized S2 by default; see
        :class:`~repro.core.allpairs.AllPairsOptions`)."""
        return set(
            self.all_pairs_iter(
                run,
                query,
                l1,
                l2,
                use_reachability_filter=use_reachability_filter,
                vectorized=vectorized,
            )
        )

    def all_pairs_iter(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
        *,
        use_reachability_filter: bool = True,
        vectorized: bool = True,
    ) -> Iterator[tuple[str, str]]:
        """Stream the matching pairs of a *safe* all-pairs query.

        Pairs are yielded as they are found (each exactly once, in no
        particular order) without ever materializing the result set, so a
        consumer can stop early or process millions of pairs in constant
        memory.  Unsafe queries raise
        :class:`~repro.errors.UnsafeQueryError`; use :meth:`evaluate_iter`
        for those.
        """
        self._check_run(run)
        index = self.query_index(query)
        universe1 = list(l1) if l1 is not None else list(run.node_ids())
        universe2 = list(l2) if l2 is not None else list(run.node_ids())
        return all_pairs_iter(
            run,
            universe1,
            universe2,
            index,
            AllPairsOptions(
                use_reachability_filter=use_reachability_filter, vectorized=vectorized
            ),
        )

    def evaluate(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
        *,
        use_reachability_filter: bool = True,
        vectorized: bool = True,
        strategy: str = "auto",
        direction: str = "auto",
        executor: "ExecutorConfig | None" = None,
    ) -> set[tuple[str, str]]:
        """Answer any all-pairs query, safe or not.

        Safe queries go straight to Algorithm 2; unsafe queries are
        decomposed into their maximal safe subqueries plus an unsafe
        remainder (Section IV-B) evaluated with restriction pushdown: the
        ``l1``/``l2`` lists bound every intermediate relation instead of
        being applied to a whole-run result.  ``strategy`` routes the unsafe
        remainder (``"auto"``, ``"frontier"``, or ``"join"``), ``direction``
        orients the frontier strategy (``"backward"`` searches from the
        targets over the reversed macro DFA), and ``executor`` tunes the
        physical execution (parallel per-seed fan-out; see
        :class:`~repro.core.exec.ExecutorConfig` and
        :func:`~repro.core.decomposition.evaluate_general_query`).
        """
        if strategy not in ("auto", "frontier", "join"):
            # Validate up front: safe queries never reach the decomposition
            # engine, so a typo must not pass silently until a query happens
            # to be unsafe.
            raise ValueError(
                f"unknown strategy {strategy!r}; use 'auto', 'frontier' or 'join'"
            )
        if direction not in ("auto", "forward", "backward"):
            raise ValueError(
                f"unknown direction {direction!r}; use 'auto', 'forward' or 'backward'"
            )
        self._check_run(run)
        tracer = get_tracer()
        with tracer.span(
            "query.evaluate", strategy=strategy, direction=direction
        ) as evaluation:
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
                        use_reachability_filter=use_reachability_filter,
                        vectorized=vectorized,
                        index_provider=self._subtree_index_provider(),
                        strategy=strategy,
                        direction=direction,
                        executor=executor,
                    )
            with tracer.span("query.execute", path="safe-allpairs"):
                return self.all_pairs(
                    run,
                    node,
                    l1,
                    l2,
                    use_reachability_filter=use_reachability_filter,
                    vectorized=vectorized,
                )

    def evaluate_iter(
        self,
        run: Run,
        query: str | RegexNode,
        l1: Sequence[str] | None = None,
        l2: Sequence[str] | None = None,
        *,
        use_reachability_filter: bool = True,
        vectorized: bool = True,
        direction: str = "auto",
        executor: "ExecutorConfig | None" = None,
    ) -> Iterator[tuple[str, str]]:
        """Stream the answers of any all-pairs query, safe or not.

        Safe queries stream straight out of the group-at-a-time evaluator
        (constant memory).  Unsafe queries stream through the executor
        layer's per-seed frontier search — forward from the sources, or
        backward from the targets over the reversed macro DFA
        (``direction``), optionally fanned across a worker pool whose chunks
        stream in completion order (``executor``; see
        :class:`~repro.core.exec.ExecutorConfig`): memory is bounded by the
        region of the run reachable from ``l1`` (and co-reachable from
        ``l2``) plus the routed safe subqueries' relations — never by the
        result set, and never by materializing a whole-run relation.
        Validation (run/spec match, parsing, safety, planning) runs eagerly,
        before the iterator is returned.
        """
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
            return tracer.wrap_iter(
                "query.stream",
                evaluate_general_query_iter(
                    run,
                    node,
                    l1,
                    l2,
                    plan=self.plan(node),
                    use_reachability_filter=use_reachability_filter,
                    vectorized=vectorized,
                    index_provider=self._subtree_index_provider(),
                    direction=direction,
                    executor=executor,
                ),
                path="decomposition",
            )
        return tracer.wrap_iter(
            "query.stream",
            self.all_pairs_iter(
                run,
                node,
                l1,
                l2,
                use_reachability_filter=use_reachability_filter,
                vectorized=vectorized,
            ),
            path="safe-allpairs",
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
