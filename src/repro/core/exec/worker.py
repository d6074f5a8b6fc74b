"""Process-pool worker side of the parallel frontier executor.

A worker receives one :class:`SearchContext` — plain, picklable data: the
run's adjacency view for the chosen direction, the direction-adjusted DFA,
the pruning universe, the emit filter and the *materialized* macro
adjacencies — through the pool initializer.  Keeping the context in a
module global means it is shipped once per worker, not once per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from repro.automata.dfa import DFA
from repro.core.relations import frontier_search
from repro.obs import clock

__all__ = [
    "ChunkPayload",
    "ChunkRecord",
    "ChunkResult",
    "SearchContext",
    "init_worker",
    "run_chunk",
    "search_chunk",
    "search_seeds",
    "timed_search_chunk",
]

#: The picklable trace context a chunk payload carries across the pool
#: boundary: the ``(trace_id, span_id)`` of the submitting search span, or
#: ``None`` when no recording tracer is installed.
ContextTuple = tuple[int, int]

#: What the traced pool entry point takes: the seed chunk plus the parent
#: span context (plain data, so process pools can pickle it).
ChunkPayload = tuple[tuple[str, ...], "ContextTuple | None"]

#: What a worker ships home alongside its pairs: the echoed parent context
#: and the chunk's clock window plus seed/pair counts.  The submitting side
#: stitches this into its trace with :meth:`repro.obs.Tracer.record`.
ChunkRecord = tuple["ContextTuple | None", float, float, int, int]

#: The traced entry point's return shape.  ``None`` in the record slot means
#: the span was already recorded live (the thread backend traces in-process
#: and has nothing to stitch).
ChunkResult = tuple[list[tuple[str, str]], "ChunkRecord | None"]


@dataclass(frozen=True)
class SearchContext:
    """Everything one frontier search needs, as plain data."""

    direction: str
    adjacency: Mapping[str, tuple[tuple[str, str], ...]]
    dfa: DFA
    allowed: frozenset[str] | None
    emit_filter: frozenset[str] | None
    macros: Mapping[str, Mapping[str, tuple[str, ...]]]


_CONTEXT: SearchContext | None = None


def init_worker(context: SearchContext) -> None:
    global _CONTEXT
    _CONTEXT = context


def search_seeds(
    adjacency: Mapping[str, Sequence[tuple[str, str]]],
    dfa: DFA,
    seeds: Iterable[str],
    *,
    allowed: frozenset[str] | None,
    emit_filter: frozenset[str] | None,
    macro_successors: Mapping[str, Callable[[str], Iterable[str]]] | None,
    forward: bool,
) -> list[tuple[str, str]]:
    """The one per-seed search loop every executor path shares.

    Serial, thread-pool and process-pool execution all reduce to this:
    search from each seed, intersect with the emit filter, orient the pairs
    (forward hits are targets, backward hits are sources).  Keeping it in
    one place means the emit/orientation semantics cannot drift between
    backends."""
    pairs: list[tuple[str, str]] = []
    for seed in seeds:
        hits = frontier_search(
            adjacency, dfa, seed, allowed=allowed, macro_successors=macro_successors
        )
        if emit_filter is not None:
            hits &= emit_filter
        if forward:
            pairs.extend((seed, hit) for hit in hits)
        else:
            pairs.extend((hit, seed) for hit in hits)
    return pairs


def run_chunk(context: SearchContext, seeds: tuple[str, ...]) -> list[tuple[str, str]]:
    """Search one chunk against a plain-data context (worker side)."""
    macro_successors = {
        tag: (lambda node, mapping=mapping: mapping.get(node, ()))
        for tag, mapping in context.macros.items()
    } or None
    return search_seeds(
        context.adjacency,
        context.dfa,
        seeds,
        allowed=context.allowed,
        emit_filter=context.emit_filter,
        macro_successors=macro_successors,
        forward=context.direction == "forward",
    )


def search_chunk(seeds: tuple[str, ...]) -> list[tuple[str, str]]:
    """Pool entry point: search one seed chunk against the worker context."""
    assert _CONTEXT is not None, "worker used before init_worker ran"
    return run_chunk(_CONTEXT, seeds)


def timed_search_chunk(payload: ChunkPayload) -> ChunkResult:
    """Traced pool entry point: search one chunk and report *when*.

    A worker process has no tracer (the ambient tracer is per-process), so
    it times itself with the sanctioned clock — ``perf_counter`` reads
    ``CLOCK_MONOTONIC`` on Linux, which is system-wide, so the window is
    directly comparable with the parent's span clock — and echoes the
    payload's parent context back so the submitting side can stitch the
    chunk in as a child span.
    """
    seeds, parent = payload
    started = clock.now()
    pairs = search_chunk(seeds)
    return pairs, (parent, started, clock.now(), len(seeds), len(pairs))
