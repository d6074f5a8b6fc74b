"""A bounded, shared cache of per-query indexes.

The paper's query-time cost splits into a *per-query* part (minimal DFA,
safety analysis, transition matrices — Fig. 13a/b's "overhead") and a
*per-pair* part that is constant once the index exists.  At service scale the
per-query part dominates, so this module centralises it behind one
thread-safe LRU keyed by ``(specification fingerprint, canonical query
text)``:

* the fingerprint (:attr:`~repro.workflow.spec.Specification.fingerprint`)
  makes independently constructed but identical grammars share entries, and
* the canonical query text (:func:`~repro.automata.regex.canonical_query_text`)
  makes syntactically different but equivalent spellings (``a|b`` vs
  ``b|a``, redundant parentheses, ``(e*)*``) hit the same entry.

One entry stores the :class:`~repro.core.safety.SafetyReport`, — for safe
queries — the :class:`~repro.core.query_index.QueryIndex` built from it, and
— on demand — the :class:`~repro.core.decomposition.DecompositionPlan`, so a
safety probe followed by an index build runs the DFA pipeline once and an
unsafe query is planned once per specification instead of once per request.
Unsafe verdicts are cached too: re-asking about an unsafe query is a hit.
Planning probes subtree safety through the cache itself, so the safe
subqueries' reports and indexes land in the cache as a side effect.

The cache is bounded by entry count; eviction is least-recently-used.
Builds for distinct keys run concurrently; concurrent requests for the *same*
key are deduplicated with a per-key build lock so the work happens once.

A persistent second tier can sit underneath: with ``store=``
(:class:`~repro.store.IndexStore`) a memory miss first consults the disk
store — a hit reconstructs the entry with *zero* safety checks, index builds
or plan builds — and every build (and plan attach) is written back, so a
fresh process starts warm from whatever earlier processes computed.  A miss
is ``restore → build → persist`` under the per-key build lock; nothing is
coordinated across processes beyond the store's content-addressed write
skip, so two processes racing on one key may each build it once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.automata.boolean_matrix import MatrixAlgebra
from repro.automata.regex import (
    RegexNode,
    canonical_query_text,
    canonicalize_regex,
    parse_regex,
)
from repro.core.decomposition import DecompositionPlan, plan_decomposition
from repro.core.query_index import QueryIndex
from repro.core.safety import SafetyReport, analyze_safety, query_dfa
from repro.errors import UnsafeQueryError
from repro.obs import get_registry, get_tracer
from repro.workflow.spec import Specification

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store import IndexStore

__all__ = ["CacheStats", "IndexCache"]

CacheKey = tuple[str, str]


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    index_builds: int = 0
    safety_checks: int = 0
    plan_builds: int = 0
    entries: int = 0
    # Disk-tier counters; all zero when no store is attached.
    store_hits: int = 0
    store_misses: int = 0
    store_writes: int = 0
    store_errors: int = 0
    store_evictions: int = 0
    store_skipped_writes: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def describe(self) -> str:
        text = (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"hit_rate={self.hit_rate:.1%}, evictions={self.evictions}, "
            f"index_builds={self.index_builds}, entries={self.entries}"
        )
        if self.store_hits or self.store_misses or self.store_writes:
            text += (
                f", store_hits={self.store_hits}, store_misses={self.store_misses}, "
                f"store_writes={self.store_writes}"
            )
        return text + ")"


@dataclass
class _Entry:
    """One cached query: its safety report, (when safe) its index, and (once
    requested) its decomposition plan.  ``plan_mutations`` is the plan's
    mutation count at the last persist, so a macro DFA memoized since then
    triggers a re-persist."""

    report: SafetyReport
    index: QueryIndex | None
    plan: DecompositionPlan | None = None
    plan_mutations: int = -1


class IndexCache:
    """Thread-safe LRU of ``(spec fingerprint, canonical query)`` → index.

    Parameters
    ----------
    max_entries:
        Upper bound on cached queries; the least recently used entry is
        evicted first.  Must be at least 1.
    store:
        Optional persistent second tier (:class:`~repro.store.IndexStore`).
        Lookups fall back to it before building, and builds are written back,
        so entries survive process restarts.
    """

    def __init__(
        self,
        max_entries: int = 256,
        store: "IndexStore | None" = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._store = store
        self._lock = threading.Lock()
        self._entries: OrderedDict[CacheKey, _Entry] = OrderedDict()  # guarded-by: _lock
        self._build_locks: dict[CacheKey, threading.Lock] = {}  # guarded-by: _lock
        self._hits = 0  # guarded-by: _lock
        self._misses = 0  # guarded-by: _lock
        self._evictions = 0  # guarded-by: _lock
        self._index_builds = 0  # guarded-by: _lock
        self._safety_checks = 0  # guarded-by: _lock
        self._plan_builds = 0  # guarded-by: _lock
        # Process-wide metrics mirror the per-instance counters above (the
        # instruments are leaf locks, safe to bump under ``_lock``); the
        # dataclass snapshot stays the per-cache schema-stable surface.
        registry = get_registry()
        self._hit_counter = registry.counter(
            "repro_cache_hits_total", "in-memory index-cache hits"
        )
        self._miss_counter = registry.counter(
            "repro_cache_misses_total", "in-memory index-cache misses"
        )
        self._eviction_counter = registry.counter(
            "repro_cache_evictions_total", "index-cache LRU evictions"
        )
        self._build_counter = registry.counter(
            "repro_cache_index_builds_total", "query index builds"
        )
        self._safety_counter = registry.counter(
            "repro_cache_safety_checks_total", "query safety analyses"
        )
        self._plan_counter = registry.counter(
            "repro_cache_plan_builds_total", "decomposition plan builds"
        )

    # -- keys --------------------------------------------------------------------

    @staticmethod
    def key_for(spec: Specification, query: str | RegexNode) -> CacheKey:
        """The cache key of a query against a specification."""
        return (spec.fingerprint, canonical_query_text(query))

    # -- lookups -----------------------------------------------------------------

    def safety(self, spec: Specification, query: str | RegexNode) -> SafetyReport:
        """The (cached) safety analysis of a query against a specification."""
        return self._lookup(spec, query).report

    def index(self, spec: Specification, query: str | RegexNode) -> QueryIndex:
        """The (cached) :class:`QueryIndex` of a safe query.

        Raises :class:`~repro.errors.UnsafeQueryError` for unsafe queries;
        the unsafe verdict itself is cached, so repeated probes are cheap.
        """
        entry = self._lookup(spec, query)
        if entry.index is None:
            report = entry.report
            raise UnsafeQueryError(
                f"query {canonical_query_text(query)!r} is not safe for "
                f"specification {spec.name!r}; "
                f"{len(report.violations)} inconsistent module(s): "
                f"{sorted({violation.module for violation in report.violations})}"
            )
        return entry.index

    def plan(self, spec: Specification, query: str | RegexNode) -> DecompositionPlan:
        """The (cached) safe-subtree decomposition plan of a query.

        The plan is built from the query's canonical form (so equivalent
        spellings share one plan) and memoizes its own macro DFAs, which is
        what lets a service answer repeated unsafe queries without
        re-planning.  Subtree safety is probed through this cache, so planning
        also warms the safe subqueries' reports and indexes.

        A plan that memoized macro DFAs since its last persist is
        re-persisted, so the store copy carries them too.
        """
        key = self.key_for(spec, query)
        entry = self._lookup(spec, query)
        plan = entry.plan
        if plan is None:
            plan = plan_decomposition(
                spec,
                canonicalize_regex(parse_regex(query)),
                is_safe=lambda subtree: self.safety(spec, subtree).is_safe,
            )
            # Planning probed subtrees through the cache, which may have
            # evicted the root's entry in a tightly bounded cache — re-fetch
            # so the plan is attached to the entry that is actually cached.
            entry = self._lookup(spec, query)
            with self._lock:
                self._plan_builds += 1
                # Benign race: concurrent builders produce equivalent plans
                # and the last one wins.
                entry.plan = plan
            self._plan_counter.inc()
            self._persist(key, entry)
        elif self._plan_stale(entry):
            self._persist(key, entry)
        return plan

    def sync(self, spec: Specification, query: str | RegexNode) -> None:
        """Re-persist a cached entry whose plan memoized macro DFAs since its
        last persist.

        Evaluators memoize macro DFAs on a plan *after* the entry was
        inserted; warm-up paths call this so the store copy carries them.
        Unknown or evicted keys are a no-op.
        """
        key = self.key_for(spec, query)
        with self._lock:
            entry = self._entries.get(key)
        if entry is not None and self._plan_stale(entry):
            self._persist(key, entry)

    def contains(self, spec: Specification, query: str | RegexNode) -> bool:
        """Is the query cached (without touching recency or statistics)?"""
        return self.contains_key(self.key_for(spec, query))

    def contains_key(self, key: CacheKey) -> bool:
        """Membership test for a precomputed key (no parsing under the lock)."""
        with self._lock:
            return key in self._entries

    def entry_count_for(self, fingerprint: str) -> int:
        """Number of cached entries belonging to one specification
        fingerprint (what an engine sharing this cache should report as its
        own, rather than the whole cache's entry count)."""
        with self._lock:
            return sum(1 for spec_print, _ in self._entries if spec_print == fingerprint)

    # -- internals ---------------------------------------------------------------

    def _lookup(self, spec: Specification, query: str | RegexNode) -> _Entry:
        key = self.key_for(spec, query)
        with get_tracer().span("cache.lookup") as span:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._hits += 1
                    self._hit_counter.inc()
                    self._entries.move_to_end(key)
                    span.set("hit", True)
                    return entry
                build_lock = self._build_locks.setdefault(key, threading.Lock())
            # Build outside the cache lock so distinct keys build in parallel;
            # the per-key lock makes concurrent requests for one key build once.
            with build_lock:
                try:
                    with self._lock:
                        entry = self._entries.get(key)
                        if entry is not None:
                            self._hits += 1
                            self._hit_counter.inc()
                            self._entries.move_to_end(key)
                            span.set("hit", True)
                            return entry
                    entry = self._restore(spec, key)
                    span.set("restored", entry is not None)
                    if entry is None:
                        entry = self._build(spec, parse_regex(query), key)
                        self._persist(key, entry)
                    with self._lock:
                        self._misses += 1
                        self._miss_counter.inc()
                        self._insert(key, entry)
                    span.set("hit", False)
                    return entry
                finally:
                    with self._lock:
                        self._build_locks.pop(key, None)

    def _build(self, spec: Specification, node: RegexNode, key: CacheKey) -> _Entry:
        with get_tracer().span("cache.build") as span:
            dfa = query_dfa(spec, node)
            # One algebra per build: the index reuses the safety check's
            # canonical λ and products, and neither keeps the algebra.
            algebra = MatrixAlgebra(dfa)
            report = analyze_safety(spec, dfa, algebra=algebra)
            with self._lock:
                self._safety_checks += 1
            self._safety_counter.inc()
            index: QueryIndex | None = None
            if report.is_safe:
                # Reuse the safety analysis instead of calling build_query_index,
                # which would redo the DFA construction and the fixpoint.
                index = QueryIndex(
                    spec=spec,
                    dfa=report.dfa,
                    lambdas=report.lambdas,
                    query_text=key[1],
                    algebra=algebra,
                )
                with self._lock:
                    self._index_builds += 1
                self._build_counter.inc()
            span.set("safe", report.is_safe)
            span.set("states", report.dfa.state_count)
            return _Entry(report=report, index=index)

    def _restore(self, spec: Specification, key: CacheKey) -> _Entry | None:
        """Second-tier lookup: reconstruct an entry from the store, if any.

        A restored entry increments no build counters — that is the point of
        the store.
        """
        store = self._store
        if store is None:
            return None
        with get_tracer().span("cache.restore") as span:
            stored = store.load(spec, key[1])
            span.set("hit", stored is not None)
        if stored is None:
            return None
        entry = _Entry(report=stored.report, index=stored.index, plan=stored.plan)
        if entry.plan is not None:
            # The restored plan *is* the store copy: mark it persisted as-is,
            # or the first plan()/sync() after every warm restart would
            # re-serialize the entry only for the content-addressed skip to
            # throw the write away.
            entry.plan_mutations = entry.plan.mutations
        return entry

    @staticmethod
    def _plan_stale(entry: _Entry) -> bool:
        """Has the attached plan memoized anything since the last persist?"""
        return entry.plan is not None and entry.plan.mutations != entry.plan_mutations

    def _persist(self, key: CacheKey, entry: _Entry) -> None:
        """Write an entry through to the store (no-op without one; the store
        swallows and counts its own failures)."""
        store = self._store
        if store is not None:
            if entry.plan is not None:
                entry.plan_mutations = entry.plan.mutations
            store.save(
                key[0], key[1], report=entry.report, index=entry.index, plan=entry.plan
            )

    def _insert(self, key: CacheKey, entry: _Entry) -> None:  # holds-lock: _lock
        """Insert as most recently used, then LRU-evict down to
        ``max_entries`` (cache lock held)."""
        self._entries.pop(key, None)
        self._entries[key] = entry
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._evictions += 1
            self._eviction_counter.inc()

    # -- management --------------------------------------------------------------

    @property
    def store(self) -> "IndexStore | None":
        """The persistent second tier, when one is configured."""
        return self._store

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        attached = self._store
        store = attached.counters if attached is not None else None
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                index_builds=self._index_builds,
                safety_checks=self._safety_checks,
                plan_builds=self._plan_builds,
                entries=len(self._entries),
                store_hits=store.hits if store else 0,
                store_misses=store.misses if store else 0,
                store_writes=store.writes if store else 0,
                store_errors=store.errors if store else 0,
                store_evictions=store.evictions if store else 0,
                store_skipped_writes=store.skipped_writes if store else 0,
            )

    def describe(self) -> str:
        return f"IndexCache(max_entries={self.max_entries}) {self.stats.describe()}"
