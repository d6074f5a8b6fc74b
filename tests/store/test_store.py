"""Tests for the persistent index store (round-trips, corruption, gc)."""

import json

import pytest

from repro.core.decomposition import warm_frontier_dfa
from repro.core.engine import ProvenanceQueryEngine
from repro.datasets.paper_example import paper_specification
from repro.service import IndexCache, QueryService
from repro.store import FORMAT_VERSION, IndexStore
from repro.store import store as store_module
from repro.workflow.derivation import derive_run

SAFE_QUERY = "_* e _*"
UNSAFE_QUERY = "_* a _*"


@pytest.fixture(scope="module")
def spec():
    return paper_specification()


@pytest.fixture(scope="module")
def run(spec):
    return derive_run(spec, seed=0, target_edges=60)


def _warmed_store(tmp_path, spec, queries=(SAFE_QUERY, UNSAFE_QUERY)):
    store = IndexStore(tmp_path / "store")
    cache = IndexCache(store=store)
    for query in queries:
        if cache.safety(spec, query).is_safe:
            cache.index(spec, query)
        else:
            cache.plan(spec, query)
    return store


class TestEntryRoundTrip:
    def test_safe_entry_restores_without_builds(self, tmp_path, spec, run):
        store = _warmed_store(tmp_path, spec)
        cache = IndexCache(store=IndexStore(store.root))
        index = cache.index(spec, SAFE_QUERY)
        stats = cache.stats
        assert stats.index_builds == 0
        assert stats.safety_checks == 0
        assert stats.store_hits == 1
        # The restored index shares the restored report's DFA, like a build.
        assert index.dfa is cache.safety(spec, SAFE_QUERY).dfa
        fresh = ProvenanceQueryEngine(spec)
        assert ProvenanceQueryEngine(spec, cache=cache).evaluate(
            run, SAFE_QUERY
        ) == fresh.evaluate(run, SAFE_QUERY)

    def test_unsafe_entry_restores_verdict_and_plan(self, tmp_path, spec, run):
        store = _warmed_store(tmp_path, spec)
        original = IndexCache(store=store).plan(spec, UNSAFE_QUERY)
        cache = IndexCache(store=IndexStore(store.root))
        assert not cache.safety(spec, UNSAFE_QUERY).is_safe
        plan = cache.plan(spec, UNSAFE_QUERY)
        stats = cache.stats
        assert stats.plan_builds == 0
        assert stats.safety_checks == 0
        assert plan.root == original.root
        assert plan.safe_subtrees == original.safe_subtrees
        fresh = ProvenanceQueryEngine(spec)
        assert ProvenanceQueryEngine(spec, cache=cache).evaluate(
            run, UNSAFE_QUERY
        ) == fresh.evaluate(run, UNSAFE_QUERY)

    def test_macro_dfas_persist_after_sync(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        cache = IndexCache(store=store)
        plan = cache.plan(spec, UNSAFE_QUERY)
        warm_frontier_dfa(plan, run)
        assert plan.macro_dfas()
        cache.sync(spec, UNSAFE_QUERY)
        # A second sync with no new macro DFA neither writes nor re-serializes.
        counters = store.counters
        cache.sync(spec, UNSAFE_QUERY)
        assert (store.counters.writes, store.counters.skipped_writes) == (
            counters.writes,
            counters.skipped_writes,
        )
        restored = IndexCache(store=IndexStore(store.root)).plan(spec, UNSAFE_QUERY)
        assert restored.macro_dfas().keys() == plan.macro_dfas().keys()
        for key, dfa in plan.macro_dfas().items():
            assert restored.macro_dfas()[key].transitions == dfa.transitions

    def test_memo_rebuilt_after_reset_is_persisted(self, tmp_path, spec, run):
        """The macro-DFA memo resets at 16 entries, so it can be rebuilt to
        the same size with different keys; ``sync`` must still rewrite the
        store copy (the plan's build count differs)."""
        store = IndexStore(tmp_path / "store")
        cache = IndexCache(store=store)
        plan = cache.plan(spec, UNSAFE_QUERY)
        dfa = warm_frontier_dfa(plan, run)
        for index in range(1, 16):
            plan.memoized_dfa(f"first-{index}", lambda: dfa)
        cache.sync(spec, UNSAFE_QUERY)
        persisted = plan.macro_dfas()
        for index in range(16):
            plan.memoized_dfa(f"second-{index}", lambda: dfa)
        assert len(plan.macro_dfas()) == len(persisted)
        cache.sync(spec, UNSAFE_QUERY)
        restored = IndexCache(store=IndexStore(store.root)).plan(spec, UNSAFE_QUERY)
        assert set(restored.macro_dfas()) == {f"second-{index}" for index in range(16)}

    def test_entry_with_recorded_directions_still_restores(self, tmp_path, spec, run):
        """Entries written while frontier directions were still recorded on
        the plan carry a ``directions`` key; it is ignored, so such an entry
        is a store hit with its macro DFAs intact, not a rebuild."""
        store = IndexStore(tmp_path / "store")
        cache = IndexCache(store=store)
        plan = cache.plan(spec, UNSAFE_QUERY)
        warm_frontier_dfa(plan, run)
        warm_frontier_dfa(plan, run, direction="backward")
        cache.sync(spec, UNSAFE_QUERY)
        path = store.entry_path(*IndexCache.key_for(spec, UNSAFE_QUERY))
        envelope = json.loads(path.read_text())
        payload = store_module._decode_payload(envelope["payload64"])
        assert "directions" not in payload["plan"]
        payload["plan"]["directions"] = {"7:2:backward": "backward"}
        envelope["payload64"] = store_module._encode_payload(payload)
        envelope["checksum"] = store_module._checksum(payload)
        path.write_text(json.dumps(envelope))

        restored_cache = IndexCache(store=IndexStore(store.root))
        restored = restored_cache.plan(spec, UNSAFE_QUERY)
        stats = restored_cache.stats
        assert stats.store_hits == 1
        assert stats.store_errors == 0
        assert stats.plan_builds == 0
        assert len(plan.macro_dfas()) == 2  # forward and reversed
        assert restored.macro_dfas().keys() == plan.macro_dfas().keys()
        for key, dfa in plan.macro_dfas().items():
            assert restored.macro_dfas()[key].transitions == dfa.transitions

    def test_matrix_pool_round_trips(self, tmp_path, spec):
        """Each distinct matrix is stored once and the tables name it by
        position; the restored λs and production tables equal the built
        ones."""
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        built = IndexCache().index(spec, SAFE_QUERY)
        (path,) = store.root.glob("entries/*/*.json")
        payload = store_module._decode_payload(json.loads(path.read_text())["payload64"])
        pool = payload["matrices"]
        assert len({json.dumps(matrix) for matrix in pool}) == len(pool)
        cells = sum(len(row) for row in payload["index"]["to_sink"])
        assert len(pool) < cells + len(payload["report"]["lambdas"])
        restored = IndexCache(store=IndexStore(store.root)).index(spec, SAFE_QUERY)
        assert restored.lambdas == built.lambdas
        assert restored.production_tables() == built.production_tables()
        assert restored.dfa.transitions == built.dfa.transitions

    def test_no_temp_files_left_behind(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec)
        assert not list(store.root.rglob("*.tmp"))


class TestCorruption:
    """Truncation, bad checksums and version bumps must degrade to a clean
    rebuild — never a crash, never a wrong answer."""

    def _entry_file(self, store):
        (path,) = store.root.glob("entries/*/*.json")
        return path

    def _assert_clean_rebuild(self, store, spec):
        cache = IndexCache(store=IndexStore(store.root))
        index = cache.index(spec, SAFE_QUERY)
        assert index is not None
        stats = cache.stats
        assert stats.store_hits == 0
        assert stats.index_builds == 1  # rebuilt from scratch
        assert stats.store_errors >= 1
        # The rebuild overwrote the bad artifact: next process hits again.
        after = IndexCache(store=IndexStore(store.root))
        after.index(spec, SAFE_QUERY)
        assert after.stats.store_hits == 1

    def test_truncated_file(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        self._assert_clean_rebuild(store, spec)

    def test_checksum_mismatch(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        envelope = json.loads(path.read_text())
        # Flip a bit inside the payload (decode, mutate, re-encode) while
        # leaving the recorded checksum untouched.
        payload = store_module._decode_payload(envelope["payload64"])
        payload["report"]["dfa"]["start"] = 1 - int(payload["report"]["dfa"]["start"])
        envelope["payload64"] = store_module._encode_payload(payload)
        path.write_text(json.dumps(envelope))
        self._assert_clean_rebuild(store, spec)

    def test_format_version_mismatch(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        envelope = json.loads(path.read_text())
        envelope["format"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(envelope))
        self._assert_clean_rebuild(store, spec)

    def test_format_two_entry_is_a_counted_miss_and_rebuilt(self, tmp_path, spec):
        """An entry written by the format-2 codec (one matrix per table cell,
        no pool) under a valid checksum is refused by version and rebuilt."""
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        envelope = json.loads(path.read_text())
        payload = store_module._decode_payload(envelope["payload64"])
        pool = payload.pop("matrices")
        report, index = payload["report"], payload["index"]
        report["lambdas"] = {module: pool[ref] for module, ref in report["lambdas"].items()}
        index["cross"] = [
            [[table[i], table[i + 1], pool[table[i + 2]]] for i in range(0, len(table), 3)]
            for table in index["cross"]
        ]
        for name in ("to_sink", "from_source"):
            index[name] = [[pool[ref] for ref in row] for row in index[name]]
        envelope.update(
            format=2,
            checksum=store_module._checksum(payload),
            payload64=store_module._encode_payload(payload),
        )
        path.write_text(json.dumps(envelope))
        self._assert_clean_rebuild(store, spec)

    def test_corrupted_pool_matrix_under_intact_checksum(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        envelope = json.loads(path.read_text())
        payload = store_module._decode_payload(envelope["payload64"])
        pool = payload["matrices"]
        assert len(pool) > 1
        pool[0], pool[-1] = pool[-1], pool[0]
        envelope["payload64"] = store_module._encode_payload(payload)
        path.write_text(json.dumps(envelope))
        self._assert_clean_rebuild(store, spec)

    def test_out_of_range_pool_reference_is_rejected(self, tmp_path, spec):
        """Strict decoding: a table naming a pool position that does not
        exist — negative indexing included — fails even under a matching
        checksum."""
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        path = self._entry_file(store)
        envelope = json.loads(path.read_text())
        payload = store_module._decode_payload(envelope["payload64"])
        payload["index"]["to_sink"][0][0] = -1
        envelope["checksum"] = store_module._checksum(payload)
        envelope["payload64"] = store_module._encode_payload(payload)
        path.write_text(json.dumps(envelope))
        self._assert_clean_rebuild(store, spec)

    def test_not_json_at_all(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec, queries=(SAFE_QUERY,))
        self._entry_file(store).write_text("not json {")
        self._assert_clean_rebuild(store, spec)

    def test_corrupt_run_file_cannot_block_the_others(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("good", run)
        store.run_path("bad").parent.mkdir(parents=True, exist_ok=True)
        store.run_path("bad").write_text("garbage")
        service = QueryService(store_dir=store.root)
        assert service.get_run("good").edges == run.edges
        with pytest.raises(KeyError):
            service.get_run("bad")  # corruption surfaces as unknown-run
        assert service.run_ids() == ("good",)  # ...and drops out of the registry


class TestGc:
    def test_size_budget_evicts_lru(self, tmp_path, spec):
        store = _warmed_store(
            tmp_path, spec, queries=(SAFE_QUERY, "_*", "A+", "_* b _*", "_* c _*")
        )
        infos = store.entries()
        assert len(infos) == 5
        total = store.total_bytes()
        # Touch one entry so it is the most recently used.
        cache = IndexCache(store=store)
        cache.index(spec, SAFE_QUERY)
        result = store.gc(total // 2)
        assert result.removed > 0
        assert result.remaining_bytes <= total // 2
        assert store.total_bytes() == result.remaining_bytes
        surviving = {info.query for info in store.entries()}
        assert "_* . e . _*" in surviving  # the freshly touched entry survived
        assert store.counters.evictions == result.removed

    def test_saves_never_evict(self, tmp_path, spec):
        queries = (SAFE_QUERY, "_*", "A+", "_* b _*", "_* c _*")
        store = _warmed_store(tmp_path, spec, queries=queries)
        assert len(store) == len(queries)
        assert store.counters.evictions == 0

    def test_budget_that_fits_removes_nothing(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec)
        total, count = store.total_bytes(), len(store)
        result = store.gc(total)
        assert (result.removed, result.freed_bytes, result.remaining_bytes) == (0, 0, total)
        assert len(store) == count
        assert store.counters.evictions == 0

    def test_runs_are_never_evicted(self, tmp_path, spec, run):
        store = _warmed_store(tmp_path, spec)
        store.save_run("r", run)
        store.gc(0)
        assert store.run_ids() == ["r"]
        assert len(store) == 0


class TestRunRegistry:
    def test_run_round_trip_preserves_labels(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        loaded = store.load_run("r1")
        assert loaded.spec.fingerprint == run.spec.fingerprint
        assert loaded.nodes == run.nodes  # labels included: no re-labeling
        assert loaded.edges == run.edges

    def test_run_keeps_its_topological_order(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        loaded = store.load_run("r1")
        assert loaded.node_ids() == run.node_ids()
        assert loaded.topological_order == run.topological_order
        assert loaded.packed.successors == run.packed.successors

    @pytest.mark.parametrize("breakage", ["reversed-order", "duplicate-id"])
    def test_run_with_a_broken_order_is_a_counted_error(self, tmp_path, spec, run, breakage):
        """The stored order lets a restore skip the topological sort, so it is
        checked under a matching checksum: an order that is not topological,
        or a node listed twice under one id (the later entry, with another
        node's label, would silently replace the first), is refused."""
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        path = store.run_path("r1")
        envelope = json.loads(path.read_text())
        payload = store_module._decode_payload(envelope["payload64"])
        if breakage == "reversed-order":
            payload["order"].reverse()
        else:
            first, second = payload["nodes"][:2]
            payload["nodes"].append(dict(first, label=second["label"]))
        envelope["checksum"] = store_module._checksum(payload)
        envelope["payload64"] = store_module._encode_payload(payload)
        path.write_text(json.dumps(envelope))
        assert store.load_run("r1") is None
        assert store.counters.errors == 1

    def test_format_two_run_is_a_counted_error(self, tmp_path, spec, run):
        """Runs stored before format 3 name cycles in hash-seed order; they
        are refused, not decoded against another numbering."""
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        path = store.run_path("r1")
        envelope = json.loads(path.read_text())
        envelope["format"] = 2
        path.write_text(json.dumps(envelope))
        assert store.load_run("r1") is None
        assert store.counters.errors == 1

    def test_awkward_run_ids_are_quoted(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("team/a run", run)
        assert store.run_ids() == ["team/a run"]


class TestOrphanGc:
    def test_orphaned_grammar_entries_are_dropped(self, tmp_path, spec, run):
        """Entries of grammars with no registered run are reclaimed; entries
        of registered grammars survive (the gc --orphans satellite)."""
        from repro.datasets.myexperiment import bioaid_specification

        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)  # registers the paper grammar
        cache = IndexCache(store=store)
        cache.index(spec, SAFE_QUERY)  # kept: fingerprint has a run
        orphan_spec = bioaid_specification()
        cache.index(orphan_spec, "_*")  # orphan: no bioaid run registered
        result = store.gc_orphans()
        assert result.removed == 1
        assert result.freed_bytes > 0
        surviving = {info.fingerprint for info in store.entries()}
        assert surviving == {spec.fingerprint}
        assert store.run_ids() == ["r1"]  # runs are never touched
        assert store.counters.evictions == 1

    def test_store_with_no_runs_is_all_orphans(self, tmp_path, spec):
        store = _warmed_store(tmp_path, spec)
        count = len(store.entries())
        result = store.gc_orphans()
        assert result.removed == count
        assert store.entries() == []

    def test_unreadable_entries_count_as_orphans(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        cache = IndexCache(store=store)
        cache.index(spec, SAFE_QUERY)
        path = next(iter(store.entries())).path
        path.write_text("garbage {")
        result = store.gc_orphans()
        assert result.removed == 1
        assert store.entries() == []

    def test_registered_fingerprints_reads_envelopes_only(self, tmp_path, spec, run):
        store = IndexStore(tmp_path / "store")
        store.save_run("r1", run)
        assert store.registered_fingerprints() == frozenset({spec.fingerprint})

    def test_older_builds_leftovers_are_swept(self, tmp_path, spec, run):
        """Lock files and the ``profiles/`` tree of older builds go; their
        bytes count as freed, but ``removed`` counts entries only."""
        store = _warmed_store(tmp_path, spec)
        store.save_run("r1", run)
        entries = sorted(info.path for info in store.entries())
        lock = entries[0].with_name(entries[0].name + ".lock")
        lock.write_bytes(b"1234")
        profile = store.root / "profiles" / "r1" / "stale.json"
        profile.parent.mkdir(parents=True)
        profile.write_bytes(b"{}" * 8)
        result = store.gc_orphans()
        assert result.removed == 0
        assert result.freed_bytes == 4 + 16
        assert not lock.exists()
        assert not (store.root / "profiles").exists()
        assert sorted(info.path for info in store.entries()) == entries
        assert store.counters.evictions == 0

    def test_store_without_leftovers_frees_nothing(self, tmp_path, spec, run):
        store = _warmed_store(tmp_path, spec)
        store.save_run("r1", run)
        count = len(store.entries())
        result = store.gc_orphans()
        assert result.removed == 0
        assert result.freed_bytes == 0
        assert result.remaining_bytes == store.total_bytes()
        assert len(store.entries()) == count


class TestWriterCoordination:
    def test_identical_save_is_skipped(self, tmp_path, spec):
        """Re-saving byte-identical content is a counted no-op (the shared-
        volume content-addressed skip)."""
        store = IndexStore(tmp_path / "store")
        cache = IndexCache(store=store)
        report = cache.safety(spec, SAFE_QUERY)
        index = cache.index(spec, SAFE_QUERY)
        writes = store.counters.writes
        assert store.save(spec.fingerprint, "_* . e . _*", report=report, index=index, plan=None)
        counters = store.counters
        assert counters.writes == writes  # elided
        assert counters.skipped_writes >= 1

    def test_corrupted_artifact_is_still_overwritten(self, tmp_path, spec):
        """A payload corrupted under an intact checksum field must not
        suppress the repairing overwrite."""
        store = IndexStore(tmp_path / "store")
        cache = IndexCache(store=store)
        report = cache.safety(spec, SAFE_QUERY)
        index = cache.index(spec, SAFE_QUERY)
        path = store.entry_path(spec.fingerprint, "_* . e . _*")
        envelope = json.loads(path.read_text())
        payload = store_module._decode_payload(envelope["payload64"])
        payload["report"]["dfa"]["start"] = 1 - int(payload["report"]["dfa"]["start"])
        envelope["payload64"] = store_module._encode_payload(payload)
        path.write_text(json.dumps(envelope))
        writes = store.counters.writes
        assert store.save(spec.fingerprint, "_* . e . _*", report=report, index=index, plan=None)
        assert store.counters.writes == writes + 1  # really rewritten
        restored = IndexStore(store.root).load(spec, "_* . e . _*")
        assert restored is not None

    def test_second_cache_restores_the_first_caches_artifact(self, tmp_path, spec):
        """A second cache on the same directory restores what the first one
        wrote on its first lookup instead of rebuilding it."""
        store = IndexStore(tmp_path / "store")
        IndexCache(store=store).index(spec, SAFE_QUERY)
        second = IndexCache(store=IndexStore(store.root))
        second.index(spec, SAFE_QUERY)
        stats = second.stats
        assert stats.index_builds == 0
        assert stats.store_hits == 1

    def test_leftover_lock_file_changes_nothing(self, tmp_path, spec):
        """An ``<entry>.json.lock`` left by an older build is neither read
        nor removed: the entry beside it is written and restored as usual."""
        store = IndexStore(tmp_path / "store")
        path = store.entry_path(spec.fingerprint, "_* . e . _*")
        lock = path.with_name(path.name + ".lock")
        lock.parent.mkdir(parents=True)
        lock.write_text("12345")
        IndexCache(store=store).index(spec, SAFE_QUERY)
        assert store.counters.writes == 1
        assert IndexStore(store.root).load(spec, "_* . e . _*") is not None
        assert lock.read_text() == "12345"
