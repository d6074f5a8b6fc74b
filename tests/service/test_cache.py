"""Tests for the shared LRU index cache (eviction, statistics, sharing)."""

import threading

import pytest

from repro.datasets import bioaid_specification
from repro.datasets.paper_example import paper_specification
from repro.errors import UnsafeQueryError
from repro.service import IndexCache
from repro.store import IndexStore
from repro.workflow.serialization import specification_from_dict, specification_to_dict

SAFE_QUERIES = ["_* e _*", "_*", "A+", "_* b _*", "_* c _*"]


@pytest.fixture
def spec():
    return paper_specification()


def _run_concurrently(count, call):
    """Release ``count`` threads into ``call`` at once and wait for all."""
    barrier = threading.Barrier(count)

    def worker():
        barrier.wait()
        call()

    threads = [threading.Thread(target=worker) for _ in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestLookups:
    def test_equivalent_spellings_share_one_entry(self, spec):
        cache = IndexCache()
        first = cache.index(spec, "_*  e  _*")
        second = cache.index(spec, "(_)* . e . (_)*")
        assert first is second
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.index_builds) == (1, 1, 1)
        assert stats.entries == 1

    def test_safety_and_index_share_the_analysis(self, spec):
        cache = IndexCache()
        report = cache.safety(spec, "_* e _*")
        index = cache.index(spec, "_* e _*")
        assert index.dfa is report.dfa
        assert cache.stats.safety_checks == 1

    def test_unsafe_verdict_is_cached(self, spec):
        cache = IndexCache()
        with pytest.raises(UnsafeQueryError):
            cache.index(spec, "e")
        with pytest.raises(UnsafeQueryError):
            cache.index(spec, "(e)")
        stats = cache.stats
        assert stats.safety_checks == 1
        assert stats.index_builds == 0
        assert stats.hits == 1
        assert not cache.safety(spec, "e").is_safe

    def test_identical_reconstructed_specs_share_entries(self, spec):
        reloaded = specification_from_dict(specification_to_dict(spec))
        assert reloaded is not spec
        assert reloaded.fingerprint == spec.fingerprint
        cache = IndexCache()
        cache.index(spec, "_* e _*")
        cache.index(reloaded, "_* e _*")
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_contains_does_not_touch_statistics(self, spec):
        cache = IndexCache()
        assert not cache.contains(spec, "_*")
        cache.index(spec, "_*")
        assert cache.contains(spec, "( _ )*")
        assert cache.stats.lookups == 1


    def test_a_request_canonicalizes_its_query_once(self, spec):
        """Pre-build, safety probe and index lookup of a pairwise request key
        the query through one memoized canonicalization: a second service
        answering the same request canonicalizes nothing again."""
        from repro.automata.regex import canonical_query_text
        from repro.datasets.paper_example import paper_run
        from repro.service import QueryService

        request = {
            "op": "pairwise", "run": "r", "query": "_* e _*", "source": "c:1", "target": "b:1"
        }

        def answer():
            service = QueryService(max_workers=1)
            service.register_run(paper_run(), "r")
            results = service.run_batch([request, request])
            assert all(result.ok for result in results)

        canonical_query_text.cache_clear()
        answer()
        first = canonical_query_text.cache_info()
        answer()
        second = canonical_query_text.cache_info()
        assert first.hits > 0
        assert second.misses == first.misses
        assert second.hits > first.hits


class TestPlans:
    def test_plan_cached_per_canonical_query(self, spec):
        cache = IndexCache()
        first = cache.plan(spec, "_* a _*")
        second = cache.plan(spec, "(_)* . a . (_)*")
        assert first is second
        assert cache.stats.plan_builds == 1
        assert not first.is_fully_safe

    def test_plan_for_safe_query_is_fully_safe(self, spec):
        cache = IndexCache()
        plan = cache.plan(spec, "_* e _*")
        assert plan.is_fully_safe

    def test_planning_warms_safe_subquery_entries(self, spec):
        cache = IndexCache()
        plan = cache.plan(spec, "(A)+ . e")
        assert not plan.is_fully_safe
        # The safe subtree's safety analysis (and index) landed in the cache
        # as a side effect of planning: probing it again is a pure hit.
        hits_before = cache.stats.hits
        cache.index(spec, "A+")
        assert cache.stats.hits == hits_before + 1

    def test_plan_entry_survives_repeated_lookups(self, spec):
        cache = IndexCache()
        plan = cache.plan(spec, "_* a _*")
        cache.safety(spec, "_* a _*")
        assert cache.plan(spec, "_* a _*") is plan
        assert cache.stats.plan_builds == 1

    def test_plan_sticks_even_when_probing_evicts_the_entry(self, spec):
        # Planning probes subtree safety through the cache; in a tightly
        # bounded cache those probes can evict the root query's own entry.
        # The plan must still end up attached to a live entry so repeated
        # requests do not re-plan forever.
        cache = IndexCache(max_entries=2)
        cache.plan(spec, "_* a _*")
        cache.plan(spec, "_* a _*")
        assert cache.stats.plan_builds == 1


class TestBounds:
    def test_entry_bound_evicts_least_recently_used(self, spec):
        cache = IndexCache(max_entries=2)
        cache.index(spec, SAFE_QUERIES[0])
        cache.index(spec, SAFE_QUERIES[1])
        cache.index(spec, SAFE_QUERIES[0])  # touch: queries[1] is now LRU
        cache.index(spec, SAFE_QUERIES[2])  # evicts queries[1]
        assert len(cache) == 2
        assert cache.contains(spec, SAFE_QUERIES[0])
        assert not cache.contains(spec, SAFE_QUERIES[1])
        assert cache.stats.evictions == 1

    def test_evicted_entry_rebuilds_on_next_request(self, spec):
        cache = IndexCache(max_entries=1)
        cache.index(spec, SAFE_QUERIES[0])
        cache.index(spec, SAFE_QUERIES[1])
        cache.index(spec, SAFE_QUERIES[0])
        assert cache.stats.index_builds == 3
        assert cache.stats.misses == 3

    def test_invalid_bounds_are_rejected(self):
        with pytest.raises(ValueError, match="max_entries must be at least 1"):
            IndexCache(max_entries=0)

    def test_store_is_fixed_at_construction(self, tmp_path):
        store = IndexStore(tmp_path)
        assert IndexCache(store=store).store is store
        assert IndexCache().store is None

    def test_describe_names_the_entry_bound(self, spec):
        cache = IndexCache(max_entries=7)
        cache.index(spec, "_*")
        assert cache.describe().startswith("IndexCache(max_entries=7) ")

    def test_clear_keeps_statistics(self, spec):
        cache = IndexCache()
        cache.index(spec, "_*")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.misses == 1
        assert cache.stats.entries == 0


class TestPlanSync:
    """``sync`` re-persists plans whose macro-DFA memo grew; it never looks
    anything up."""

    def test_sync_on_unknown_key_is_a_noop(self, spec):
        cache = IndexCache()
        cache.sync(spec, "_* a _*")
        assert cache.stats.lookups == 0

    def test_sync_on_evicted_key_writes_nothing(self, spec, tmp_path):
        cache = IndexCache(max_entries=1, store=IndexStore(tmp_path))
        plan = cache.plan(spec, "_* a _*")
        cache.index(spec, SAFE_QUERIES[1])  # evicts the planned entry
        assert not cache.contains(spec, "_* a _*")
        plan.memoized_dfa("late", lambda: cache.safety(spec, "_*").dfa)
        writes = cache.stats.store_writes
        cache.sync(spec, "_* a _*")
        assert cache.stats.store_writes == writes


class TestStoreTier:
    def test_miss_writes_back_and_restores(self, spec, tmp_path):
        store = IndexStore(tmp_path)
        cache = IndexCache(store=store)
        cache.index(spec, "_* e _*")
        assert cache.stats.store_writes == 1
        warm = IndexCache(store=IndexStore(tmp_path))
        warm.index(spec, "_* e _*")
        stats = warm.stats
        assert (stats.store_hits, stats.index_builds, stats.safety_checks) == (1, 0, 0)

    @pytest.mark.parametrize("lookup", ["safety", "index"])
    def test_cold_build_reads_the_store_once(self, tmp_path, lookup):
        cache = IndexCache(store=IndexStore(tmp_path))
        getattr(cache, lookup)(bioaid_specification(), "_* f5_join _*")
        stats = cache.stats
        assert (stats.store_misses, stats.store_writes) == (1, 1)

    def test_cold_unsafe_verdict_reads_the_store_once(self, spec, tmp_path):
        cache = IndexCache(store=IndexStore(tmp_path))
        assert not cache.safety(spec, "_* a _*").is_safe
        stats = cache.stats
        assert (stats.safety_checks, stats.store_misses, stats.store_writes) == (1, 1, 1)
        warm = IndexCache(store=IndexStore(tmp_path))
        assert not warm.safety(spec, "_* a _*").is_safe
        stats = warm.stats
        assert (stats.safety_checks, stats.store_hits, stats.store_misses) == (0, 1, 0)

    @pytest.mark.parametrize("lookup", ["safety", "index"])
    def test_concurrent_requests_on_a_store_build_and_write_once(
        self, spec, tmp_path, lookup
    ):
        cache = IndexCache(store=IndexStore(tmp_path))
        _run_concurrently(8, lambda: getattr(cache, lookup)(spec, "_* e _*"))
        stats = cache.stats
        assert (stats.safety_checks, stats.store_writes, stats.store_misses) == (1, 1, 1)

    def test_concurrent_requests_on_a_warm_store_restore_once(self, spec, tmp_path):
        IndexCache(store=IndexStore(tmp_path)).index(spec, "_* e _*")
        warm = IndexCache(store=IndexStore(tmp_path))
        _run_concurrently(8, lambda: warm.index(spec, "_* e _*"))
        stats = warm.stats
        assert (stats.store_hits, stats.store_misses, stats.store_writes) == (1, 0, 0)
        assert (stats.safety_checks, stats.index_builds, stats.hits) == (0, 0, 7)

    def test_store_survives_memory_eviction(self, spec, tmp_path):
        cache = IndexCache(max_entries=1, store=IndexStore(tmp_path))
        cache.index(spec, SAFE_QUERIES[0])
        cache.index(spec, SAFE_QUERIES[1])  # evicts [0] from memory only
        cache.index(spec, SAFE_QUERIES[0])
        stats = cache.stats
        assert stats.evictions >= 1
        assert stats.index_builds == 2  # second request for [0] was a store hit
        assert stats.store_hits == 1


    def test_repeated_plan_without_new_memo_writes_nothing(self, spec, tmp_path):
        cache = IndexCache(store=IndexStore(tmp_path))
        cache.plan(spec, "_* a _*")  # first attach persists the plan
        stats = cache.stats
        assert stats.store_writes > 0
        cache.plan(spec, "_* a _*")
        again = cache.stats
        assert (again.store_writes, again.store_skipped_writes) == (
            stats.store_writes,
            stats.store_skipped_writes,
        )

    def test_restored_plan_is_not_rewritten(self, spec, tmp_path):
        IndexCache(store=IndexStore(tmp_path)).plan(spec, "_* a _*")
        restarted = IndexCache(store=IndexStore(tmp_path))
        restarted.plan(spec, "_* a _*")
        restarted.sync(spec, "_* a _*")
        stats = restarted.stats
        assert stats.store_hits > 0
        assert stats.plan_builds == 0
        assert (stats.store_writes, stats.store_skipped_writes) == (0, 0)


class TestStats:
    def test_hit_rate(self, spec):
        cache = IndexCache()
        assert cache.stats.hit_rate == 0.0
        cache.index(spec, "_*")
        cache.index(spec, "_*")
        cache.index(spec, "_*")
        stats = cache.stats
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert "hit_rate" in stats.describe()
        assert "IndexCache" in cache.describe()

    def test_concurrent_requests_build_once(self, spec):
        cache = IndexCache()
        barrier = threading.Barrier(8)
        results = []

        def worker():
            barrier.wait()
            results.append(cache.index(spec, "_* e _*"))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(index) for index in results}) == 1
        assert cache.stats.index_builds == 1
