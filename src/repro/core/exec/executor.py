"""Physical-plan execution: serial, or fanned out over a process pool.

``execute`` materializes a plan's result set; ``execute_iter`` streams it.
The interesting operator is :class:`FrontierSearchOp`:

* **serial** — one pruned product search per seed on the calling thread,
  yielding each seed's pairs as they are found, with macro relations
  decoded lazily on first use;
* **parallel** — the per-seed searches are embarrassingly parallel, so the
  seed list is split into contiguous chunks fanned across a process pool
  (the search is pure Python and holds the GIL, so only processes scale).
  Each worker gets one plain-data
  :class:`~repro.core.exec.worker.SearchContext`; chunks stream in
  completion order.  Where the pool cannot be built, refuses a chunk or
  loses a worker, the affected chunks run in-process through the worker's
  own :func:`~repro.core.exec.worker.run_chunk` on the same context.

Each operator has one compute kernel: joins and closures run on the packed
bitset kernel (:func:`~repro.core.relations.evaluate_regex_relation_packed`),
per-seed frontier searches on the set-based
:func:`~repro.core.relations.frontier_search`, whose per-edge cost tracks a
sparse run's real out-degree instead of the packed row width.

A service-supplied :class:`~repro.core.exec.config.WorkerBudget` caps the
granted fan-out: when the shared pool is saturated the search simply runs
serial instead of oversubscribing the host.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from pickle import PicklingError
import multiprocessing
import threading
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping

from repro.automata.regex import RegexNode
from repro.core.allpairs import all_pairs_iter, all_pairs_safe_query
from repro.core.exec.ops import (
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    RestrictOp,
)
from repro.core.exec.plan import PhysicalPlan
from repro.core.exec.worker import (
    ChunkPayload,
    ChunkRecord,
    ChunkResult,
    SearchContext,
    init_worker,
    search_seeds,
    timed_run_chunk,
    timed_search_chunk,
)
from repro.core.relations import NodePairs, evaluate_regex_relation_packed, restrict
from repro.obs import Span, SpanContext, Tracer, get_tracer

__all__ = ["execute", "execute_iter"]

#: What an unusable process pool raises — at construction, in ``submit`` or
#: from a chunk's future: spawn failures (OSError), a missing start method or
#: a broken pool (RuntimeError), unpicklable initializer arguments.
_POOL_FAILURES = (OSError, RuntimeError, PicklingError)


def execute(plan: PhysicalPlan) -> NodePairs:
    """Run a physical plan to a materialized set of ``(source, target)``."""
    root = plan.root
    if isinstance(root, LabelDecodeOp):
        with get_tracer().span(
            "exec.label_decode", sources=len(root.l1), targets=len(root.l2)
        ) as span:
            result = all_pairs_safe_query(
                plan.run, list(root.l1), list(root.l2), plan.indexes(root.node)
            )
            span.set("pairs", len(result))
            return result
    if isinstance(root, FrontierSearchOp):
        return set(_iter_frontier(plan, root))
    if isinstance(root, RestrictOp):
        with get_tracer().span("exec.restrict") as span:
            inner = _execute_join(plan, root.child)
            result = restrict(inner, root.l1, root.l2)
            span.set("pairs", len(result))
            return result
    if isinstance(root, JoinOp):
        return _execute_join(plan, root)
    raise TypeError(f"unknown physical operator {root!r}")


def execute_iter(plan: PhysicalPlan) -> Iterator[tuple[str, str]]:
    """Stream a physical plan's pairs (each exactly once, unordered).

    Frontier and label-decode plans stream genuinely; join plans materialize
    first (they have no streaming formulation) and then iterate.
    """
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
    return iter(execute(plan))


# ---------------------------------------------------------------------------
# Join execution
# ---------------------------------------------------------------------------


def _execute_join(plan: PhysicalPlan, op: JoinOp) -> NodePairs:
    """Bottom-up relational evaluation with routed safe subtrees answered by
    the labeling engine over the ``allowed`` universe."""
    run, indexes = plan.run, plan.indexes
    universe: list[str] | None = None

    def subquery_evaluator(node: RegexNode) -> NodePairs | None:
        nonlocal universe
        if node not in op.routed:
            return None
        if universe is None:
            universe = (
                list(op.allowed) if op.allowed is not None else list(run.node_ids())
            )
        return all_pairs_safe_query(run, universe, universe, indexes(node))

    with get_tracer().span("exec.join", routed=len(op.routed)) as span:
        result = evaluate_regex_relation_packed(
            run, op.root, subquery_evaluator=subquery_evaluator, allowed=op.allowed
        )
        span.set("pairs", len(result))
        return result


# ---------------------------------------------------------------------------
# Frontier execution
# ---------------------------------------------------------------------------


def _iter_frontier(plan: PhysicalPlan, op: FrontierSearchOp) -> Iterator[tuple[str, str]]:
    tracer = get_tracer()
    config = plan.executor
    requested = min(config.workers, len(op.seeds)) if op.seeds else 1
    if requested <= 1:
        with tracer.span(
            "exec.frontier_search",
            mode="serial",
            direction=op.direction,
            seeds=len(op.seeds),
        ):
            yield from _iter_frontier_serial(plan, op)
        return
    if config.budget is None:
        with tracer.span(
            "exec.frontier_search",
            mode="parallel",
            direction=op.direction,
            seeds=len(op.seeds),
            workers=requested,
        ) as span:
            yield from _iter_frontier_parallel(plan, op, requested, None, span)
        return
    granted = config.budget.acquire(requested)
    if granted <= 1:
        config.budget.release(granted)
        # The budget is saturated, so the search degrades to serial on the
        # calling thread; the mode attribute keeps the degrade visible in
        # traces, still correctly nested under the caller's span.
        with tracer.span(
            "exec.frontier_search",
            mode="serial-degraded",
            direction=op.direction,
            seeds=len(op.seeds),
        ):
            yield from _iter_frontier_serial(plan, op)
        return
    released = False
    release_lock = threading.Lock()

    def release() -> None:
        # The searches are done the moment the last chunk future completes;
        # a slow consumer draining the stream afterwards must not keep
        # budget slots hostage, so release exactly once, as early as that
        # (called from future done-callbacks and, as the safety net, from
        # the finally below — hence the lock).
        nonlocal released
        with release_lock:
            if released:
                return
            released = True
        config.budget.release(granted)

    try:
        with tracer.span(
            "exec.frontier_search",
            mode="parallel",
            direction=op.direction,
            seeds=len(op.seeds),
            workers=granted,
        ) as span:
            yield from _iter_frontier_parallel(plan, op, granted, release, span)
    finally:
        release()


def _graph_adjacency(
    plan: PhysicalPlan, op: FrontierSearchOp
) -> Mapping[str, tuple[tuple[str, str], ...]]:
    return plan.run.successors if op.direction == "forward" else plan.run.predecessors


def _lazy_macro_successors(
    op: FrontierSearchOp,
) -> dict[str, Callable[[str], tuple[str, ...]]] | None:
    return {
        tag: relation.expander(op.direction) for tag, relation in op.macros.items()
    } or None


def _iter_frontier_serial(
    plan: PhysicalPlan, op: FrontierSearchOp
) -> Iterator[tuple[str, str]]:
    adjacency = _graph_adjacency(plan, op)
    macro_successors = _lazy_macro_successors(op)
    for seed in op.seeds:
        yield from search_seeds(
            adjacency,
            op.dfa,
            (seed,),
            allowed=op.allowed,
            emit_filter=op.emit_filter,
            macro_successors=macro_successors,
            forward=op.direction == "forward",
        )


def _chunked(seeds: tuple[str, ...], chunk_count: int) -> list[tuple[str, ...]]:
    """Split the seeds into at most ``chunk_count`` contiguous chunks."""
    size = max(1, -(-len(seeds) // chunk_count))
    return [seeds[offset : offset + size] for offset in range(0, len(seeds), size)]


def _mp_context() -> Any:
    """Prefer a forkserver context: the executor is routinely called from a
    multithreaded QueryService, where plain fork can inherit a lock held
    mid-fork and hang the child; forkserver forks from a clean
    single-threaded server instead."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("forkserver") if "forkserver" in methods else None


@contextmanager
def _worker_pool(
    plan: PhysicalPlan, op: FrontierSearchOp, granted: int
) -> Iterator[tuple[SearchContext, ProcessPoolExecutor | None]]:
    """The plain-data search context plus a process pool initialized with it.

    Workers get the :class:`SearchContext` pickled through the initializer.
    Nothing here waits for a worker to spawn: chunks are submitted straight
    away and overlap with pool startup, so the ``exec.worker_setup`` span
    measures exactly the parent-side fan-out cost — context build and pool
    construction.  A pool that cannot be constructed yields ``None``, and
    the drain loop runs every chunk in-process on the same context.

    Macro relations are materialized here, in the parent, exactly once: a
    deliberate trade — workers cannot label-decode, so the fan-out pays the
    decode up front even when no live product state would ever cross the
    macro edge (serial execution stays lazy).
    """
    pool: ProcessPoolExecutor | None = None
    with get_tracer().span("exec.worker_setup", workers=granted):
        context = SearchContext(
            direction=op.direction,
            adjacency=dict(_graph_adjacency(plan, op)),
            dfa=op.dfa,
            allowed=op.allowed,
            emit_filter=op.emit_filter,
            macros={
                tag: dict(relation.adjacency(op.direction))
                for tag, relation in op.macros.items()
            },
        )
        try:
            pool = ProcessPoolExecutor(
                max_workers=granted,
                initializer=init_worker,
                initargs=(context,),
                mp_context=_mp_context(),
            )
        except _POOL_FAILURES:
            pass
    try:
        yield context, pool
    finally:
        if pool is not None:
            pool.shutdown(wait=True)


def _submit(
    pool: ProcessPoolExecutor | None, payloads: list[ChunkPayload]
) -> tuple[dict["Future[ChunkResult]", ChunkPayload], list[ChunkPayload]]:
    """Submit chunks in order until the pool refuses one.

    Workers spawn, and the initializer arguments are pickled, inside
    ``submit``; a refusal leaves that chunk and the rest to run locally.
    Returns the submitted futures (keyed to their payloads) and the rest."""
    futures: dict["Future[ChunkResult]", ChunkPayload] = {}
    if pool is None:
        return futures, payloads
    for index, payload in enumerate(payloads):
        try:
            futures[pool.submit(timed_search_chunk, payload)] = payload
        except _POOL_FAILURES:
            return futures, payloads[index:]
    return futures, []


def _stitch_chunk(tracer: Tracer, search: Span, record: ChunkRecord) -> None:
    """Adopt a chunk record as a child span of the search, whether a worker
    process or the in-process fallback timed it.

    Worker and parent both read ``CLOCK_MONOTONIC``, so the timestamps are
    directly comparable; the start is still clamped into the search span's
    window to keep profiles well formed against clock weirdness under exotic
    start methods."""
    parent, started, ended, seeds, pairs = record
    started = max(started, search.start)
    tracer.record(
        "exec.frontier_chunk",
        started,
        max(started, ended),
        parent=SpanContext.from_tuple(parent),
        attrs={"seeds": seeds, "pairs": pairs},
        thread="worker",
    )


def _iter_frontier_parallel(
    plan: PhysicalPlan,
    op: FrontierSearchOp,
    granted: int,
    release: Callable[[], None] | None,
    span: Span,
) -> Iterator[tuple[str, str]]:
    tracer = get_tracer()
    parent = span.context.as_tuple() if tracer.enabled else None
    payloads = [(chunk, parent) for chunk in _chunked(op.seeds, granted * 4)]
    with _worker_pool(plan, op, granted) as (context, pool):
        futures, rest = _submit(pool, payloads)
        if release is not None:
            # Completion-driven, not consumption-driven: the budget frees as
            # soon as the pool finishes, however slowly the stream drains.
            remaining = len(futures)
            countdown = threading.Lock()

            def on_done(_finished: "Future[ChunkResult]") -> None:
                nonlocal remaining
                with countdown:
                    remaining -= 1
                    last = remaining == 0
                if last:
                    release()

            if not futures:
                release()
            for future in futures:
                future.add_done_callback(on_done)

        def local(payload: ChunkPayload) -> ChunkResult:
            # The worker's own chunk code on the same plain-data context.
            span.set("fallback", "local")
            return timed_run_chunk(context, payload)

        def merge(result: ChunkResult) -> list[tuple[str, str]]:
            pairs, record = result
            if tracer.enabled:
                _stitch_chunk(tracer, span, record)
            return pairs

        try:
            # Chunks the pool refused run first, overlapping whatever it took.
            for payload in rest:
                yield from merge(local(payload))
            for future in as_completed(futures):
                try:
                    result = future.result()
                except _POOL_FAILURES:
                    # A worker died spawning, unpickling or mid-chunk
                    # (BrokenProcessPool is a RuntimeError): the pool is
                    # gone, but the chunk is not — recompute it in-process.
                    result = local(futures[future])
                yield from merge(result)
        finally:
            for future in futures:
                future.cancel()
