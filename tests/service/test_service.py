"""Tests for the batched multi-run query service."""

import json
import time

import pytest

from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.core.decomposition import plan_decomposition
from repro.core.engine import ProvenanceQueryEngine
from repro.core.exec import FrontierSearchOp, JoinOp, LabelDecodeOp, build_physical_plan
from repro.core.query_index import build_query_index
from repro.datasets.paper_example import paper_specification
from repro.service import (
    BatchFormatError,
    QueryRequest,
    QueryService,
    read_requests_jsonl,
    request_from_dict,
    metrics_samples,
    request_to_dict,
    result_to_dict,
)
from repro.obs import NULL_TRACER, Tracer, use_tracer
from repro.workflow.derivation import derive_run
from repro.workflow.serialization import save_run


@pytest.fixture(scope="module")
def spec():
    return paper_specification()


@pytest.fixture(scope="module")
def run(spec):
    return derive_run(spec, seed=0, target_edges=40)


@pytest.fixture
def service(run):
    service = QueryService(max_workers=4)
    service.register_run(run, "r1")
    return service


class TestRegistration:
    def test_register_and_lookup(self, run):
        service = QueryService()
        assert service.register_run(run) == "run-1"
        assert service.run_ids() == ("run-1",)
        assert service.get_run("run-1") is run

    def test_duplicate_id_with_different_run_rejected(self, spec, run):
        service = QueryService()
        service.register_run(run, "r")
        other = derive_run(spec, seed=9, target_edges=40)
        with pytest.raises(ValueError, match="already registered"):
            service.register_run(other, "r")

    def test_reregistering_same_run_is_idempotent(self, run):
        # Replaying registrations against a persistent registry (or a CLI
        # passing --run for a run the store already holds) must be a no-op.
        service = QueryService()
        service.register_run(run, "r")
        assert service.register_run(run, "r") == "r"
        assert service.run_ids() == ("r",)

    def test_unknown_run_id(self, service):
        with pytest.raises(KeyError):
            service.get_run("nope")

    def test_load_run_file_defaults_to_stem(self, run, tmp_path):
        path = tmp_path / "myrun.json"
        save_run(run, path)
        service = QueryService()
        assert service.load_run_file(path) == "myrun"
        assert service.get_run("myrun").node_count == run.node_count

    def test_runs_of_same_grammar_share_one_engine(self, spec, run, tmp_path):
        path = tmp_path / "copy.json"
        save_run(run, path)
        service = QueryService()
        service.register_run(run, "a")
        service.load_run_file(path, run_id="b")
        assert service.engine_for("a") is service.engine_for("b")

    def test_renamed_grammar_still_served_by_shared_engine(self, spec, run):
        """Engines are shared by grammar *content*; the display name of a
        run's specification must not matter (regression test)."""
        from repro.workflow.serialization import run_to_dict, run_from_dict

        payload = run_to_dict(run)
        payload["specification"]["name"] = "renamed"
        renamed_run = run_from_dict(payload)
        service = QueryService()
        service.register_run(run, "original")
        service.register_run(renamed_run, "renamed")
        assert service.engine_for("original") is service.engine_for("renamed")
        source = renamed_run.node_ids()[0]
        result = service.execute(
            {"op": "reachability", "run": "renamed", "source": source, "target": source}
        )
        assert result.ok
        assert result.answer is True

    def test_engines_share_the_service_cache(self, run):
        service = QueryService(max_entries=8)
        service.register_run(run, "r1")
        engine = service.engine_for("r1")
        assert engine.cache is service.cache
        engine.cache.index(run.spec, "_* e _*")
        assert service.cache.contains(run.spec, "_* e _*")


class TestBatchEvaluation:
    def test_results_match_direct_engine(self, spec, run, service):
        engine = ProvenanceQueryEngine(spec)
        source = run.nodes_named("c")[0]
        target = run.nodes_named("b")[0]
        requests = [
            {"op": "pairwise", "run": "r1", "query": "_* e _*",
             "source": source, "target": target},
            {"op": "reachability", "run": "r1", "source": source, "target": target},
            {"op": "allpairs", "run": "r1", "query": "A+", "id": "all"},
        ]
        results = service.run_batch(requests)
        assert [result.ok for result in results] == [True, True, True]
        assert results[0].answer == engine.pairwise(run, source, target, "_* e _*")
        assert results[1].answer == engine.reachable(run, source, target)
        assert set(results[2].pairs) == engine.evaluate(run, "A+")

    def test_unsafe_pairwise_falls_back_to_decomposition(self, spec, run, service):
        engine = ProvenanceQueryEngine(spec)
        pairs = engine.evaluate(run, "e")
        assert pairs  # the run realizes at least one 'e' edge
        source, target = sorted(pairs)[0]
        [result] = service.run_batch(
            [{"op": "pairwise", "run": "r1", "query": "e",
              "source": source, "target": target}]
        )
        assert result.ok
        assert result.answer is True

    def test_results_keep_request_order_and_ids(self, run, service):
        source = run.node_ids()[0]
        requests = [
            QueryRequest(op="reachability", run="r1", source=source, target=target,
                         request_id=f"req-{position}")
            for position, target in enumerate(run.node_ids()[:10])
        ]
        results = service.run_batch(requests)
        assert [result.request_id for result in results] == [
            f"req-{position}" for position in range(10)
        ]

    def test_failures_become_error_results(self, run, service):
        source = run.node_ids()[0]
        requests = [
            {"op": "pairwise", "run": "missing", "query": "_*",
             "source": source, "target": source},
            {"op": "pairwise", "run": "r1", "query": "((broken",
             "source": source, "target": source},
            {"op": "reachability", "run": "r1", "source": source, "target": source},
        ]
        results = service.run_batch(requests)
        assert [result.ok for result in results] == [False, False, True]
        assert "unknown run id" in results[0].error
        assert "broken" in results[1].error
        assert results[2].answer is True

    def test_ids_absent_from_the_run_match_nothing(self, run, service):
        """One rule on every path: a pairwise or reachability request with an
        absent endpoint answers false, and an all-pairs list drops the id."""
        source = run.nodes_named("c")[0]
        target = run.nodes_named("b")[0]
        ghost = "ghost:0"
        requests = [
            {"op": "pairwise", "run": "r1", "query": "_* e _*",
             "source": source, "target": ghost},
            {"op": "pairwise", "run": "r1", "query": "e",
             "source": ghost, "target": target},
            {"op": "reachability", "run": "r1", "source": ghost, "target": target},
            {"op": "allpairs", "run": "r1", "query": "_* e _*",
             "sources": [source, ghost]},
            {"op": "allpairs", "run": "r1", "query": "_* e _*", "sources": [source]},
        ]
        results = service.run_batch(requests)
        assert [result.error for result in results] == [None] * 5
        assert all(result.ok for result in results)
        assert [result.answer for result in results[:3]] == [False, False, False]
        assert results[4].pairs
        assert results[3].pairs == results[4].pairs

    @pytest.mark.parametrize(
        ("query", "sides", "operator", "direction"),
        [
            ("_* e _*", (3, None), LabelDecodeOp, None),
            ("_* a _*", (None, None), JoinOp, None),
            ("_* a _*", (3, None), FrontierSearchOp, "forward"),
            ("_* a _*", (None, 3), FrontierSearchOp, "backward"),
        ],
        ids=["label-decode", "join", "forward-sweep", "backward-sweep"],
    )
    def test_all_pairs_answers_are_the_oracle_in_sorted_order(
        self, spec, query, sides, operator, direction
    ):
        """Whichever operator answers, ``pairs`` is the product-automaton
        answer sorted by ``(source id, target id)``, and ``stream_pairs``
        yields those pairs, each once.  The run's ids do not sort in
        topological order (``a:10`` sorts before ``a:2``), and the lists
        carry duplicates and an id absent from the run."""
        run = derive_run(spec, seed=1, target_edges=150)
        nodes = list(run.node_ids())
        interner = run.packed.interner
        assert list(interner.ids) != sorted(interner.ids)
        first, last = sides
        l1 = None if first is None else [*nodes[:first], nodes[0], "ghost:0"]
        l2 = None if last is None else [*nodes[-last:], nodes[-1], "ghost:0"]
        physical = build_physical_plan(
            run, plan_decomposition(spec, query), l1, l2,
            indexes=lambda node: build_query_index(spec, node),
        )
        assert type(physical.root) is operator
        assert getattr(physical.root, "direction", None) == direction
        service = QueryService(max_workers=1)
        service.register_run(run, "r")
        request = {"op": "allpairs", "run": "r", "query": query, "sources": l1, "targets": l2}
        result = service.execute(request)
        assert result.ok, result.error
        expected = product_bfs_all_pairs(run, run.known_ids(l1), run.known_ids(l2), query)
        assert expected
        assert result.pairs == tuple(sorted(expected))
        assert tuple(sorted(service.stream_pairs(request))) == result.pairs

    def test_unsafe_pairwise_reads_emptiness(self, spec, run, service):
        """An unsafe pairwise request answers whether its one-pair relation
        is non-empty: true exactly for the oracle's pairs."""
        edges = [edge for edge in run.edges if edge.tag == "e"][:2]
        nodes = list(dict.fromkeys(
            [*(edge.source for edge in edges), *(edge.target for edge in edges),
             *run.node_ids()[:3]]
        ))
        expected = product_bfs_all_pairs(run, nodes, nodes, "e")
        requests = [
            {"op": "pairwise", "run": "r1", "query": "e", "source": source, "target": target}
            for source in nodes
            for target in nodes
        ]
        answers = [result.answer for result in service.run_batch(requests)]
        assert answers == [(source, target) in expected for source in nodes for target in nodes]
        assert any(answers)

    def test_closing_iter_batch_early_drops_queued_requests(self, run, monkeypatch):
        """A consumer that stops after the first result (an exception, a
        closed pipe) must not wait for the rest of the batch to run."""
        service = QueryService(max_workers=1)
        service.register_run(run, "r1")
        executed = []
        execute = service._execute

        def slow_execute(*args, **kwargs):
            executed.append(args[1])
            time.sleep(0.01)
            return execute(*args, **kwargs)

        monkeypatch.setattr(service, "_execute", slow_execute)
        source = run.node_ids()[0]
        request = {"op": "reachability", "run": "r1", "source": source, "target": source}
        results = service.iter_batch([request] * 50)
        assert next(results).ok
        results.close()
        assert len(executed) < 10

    def test_empty_batch(self, service):
        assert service.run_batch([]) == []

    def test_execute_single_request(self, run, service):
        source = run.node_ids()[0]
        result = service.execute(
            {"op": "reachability", "run": "r1", "source": source, "target": source}
        )
        assert result.ok
        assert result.answer is True

    def test_stream_pairs_matches_execute(self, run, service):
        request = {"op": "allpairs", "run": "r1", "query": "A+"}
        streamed = list(service.stream_pairs(request))
        assert len(streamed) == len(set(streamed))
        result = service.execute(request)
        assert result.ok
        assert set(streamed) == set(result.pairs)

    def test_stream_pairs_handles_unsafe_queries(self, run, service):
        request = {"op": "allpairs", "run": "r1", "query": "_* a _*"}
        result = service.execute(request)
        assert set(service.stream_pairs(request)) == set(result.pairs)

    def test_stream_pairs_rejects_other_ops(self, run, service):
        source = run.node_ids()[0]
        with pytest.raises(BatchFormatError):
            service.stream_pairs(
                {"op": "reachability", "run": "r1", "source": source, "target": source}
            )

    def test_stream_pairs_unknown_run_raises_eagerly(self, service):
        with pytest.raises(KeyError):
            service.stream_pairs({"op": "allpairs", "run": "nope", "query": "A+"})

    def test_warm_prebuilds_indexes(self, service):
        report = service.warm("r1", ["_* e _*", "A+"])
        assert report == {"_* e _*": "safe", "A+": "safe"}
        stats = service.cache_stats
        assert stats.index_builds == 2
        service.warm("r1", ["(_* e _*)", "A+"])
        assert service.cache_stats.index_builds == 2

    def test_warm_unsafe_query_caches_plan_and_subqueries(self, service):
        report = service.warm("r1", ["(A)+ . e"])
        assert report["(A)+ . e"].startswith("unsafe: plan cached")
        assert service.cache_stats.plan_builds == 1
        # The plan and its safe subquery index are hot: evaluating the query
        # neither re-plans nor rebuilds indexes.
        builds = service.cache_stats.index_builds
        result = service.execute({"op": "allpairs", "run": "r1", "query": "(A)+ . e"})
        assert result.ok
        assert service.cache_stats.plan_builds == 1
        assert service.cache_stats.index_builds == builds

    def test_warm_reports_bad_queries_instead_of_swallowing(self, service):
        report = service.warm("r1", ["_* e _*", "((("])
        assert report["_* e _*"] == "safe"
        assert report["((("].startswith("error: ")
        # A typo'd query is reported, not silently ignored.
        assert "(((" in report


class TestCacheEffectiveness:
    def test_warm_batch_beats_bare_engines_by_5x(self, spec, run):
        """The acceptance criterion: a repeated-query batch through a warm
        service costs >= 5x fewer index builds than bare per-request engines."""
        source = run.nodes_named("c")[0]
        target = run.nodes_named("b")[0]
        # 30 requests cycling through equivalent spellings of two queries.
        spellings = ["_* e _*", "(_* e _*)", "_*  e  _*", "A+", "(A)+", "A+ | A+"]
        requests = [
            QueryRequest(op="pairwise", run="r1", query=spellings[position % 6],
                         source=source, target=target)
            for position in range(30)
        ]

        # The pre-service behaviour: one fresh engine per request.
        bare_builds = 0
        for request in requests:
            engine = ProvenanceQueryEngine(spec)
            engine.pairwise(run, request.source, request.target, request.query)
            bare_builds += engine.cache.stats.index_builds
        assert bare_builds == 30

        service = QueryService(max_entries=64, max_workers=4)
        service.register_run(run, "r1")
        service.run_batch(requests)  # cold pass warms the cache
        warm_start = service.cache_stats.index_builds
        results = service.run_batch(requests)  # the measured warm batch
        warm_builds = service.cache_stats.index_builds - warm_start

        assert all(result.ok for result in results)
        assert warm_builds == 0
        # Even counting the cold pass, the whole double batch built 5x fewer
        # indexes than bare engines needed for a single pass.
        assert service.cache_stats.index_builds * 5 <= bare_builds

    def test_batch_deduplicates_builds_even_when_cold(self, run):
        service = QueryService(max_workers=4)
        service.register_run(run, "r1")
        source = run.nodes_named("c")[0]
        target = run.nodes_named("b")[0]
        requests = [
            {"op": "pairwise", "run": "r1", "query": query,
             "source": source, "target": target}
            for query in ["_* e _*", "(_* e _*)", "_*  e  _*"] * 5
        ]
        results = service.run_batch(requests)
        assert all(result.ok for result in results)
        assert service.cache_stats.index_builds == 1


class TestMetrics:
    def test_samples_are_read_from_one_service_and_tracer(self, run):
        """Two services in one process report their own counts, not a
        process-wide total."""
        busy = QueryService(max_workers=2)
        busy.register_run(run, "r1")
        tracer = Tracer()
        with use_tracer(tracer):
            busy.run_batch([{"op": "allpairs", "run": "r1", "query": "A+"}] * 3)
        idle = QueryService(max_workers=2)

        samples = metrics_samples(busy, tracer)
        stats = busy.cache_stats
        assert samples["repro_cache_hits_total"] == stats.hits > 0
        assert samples["repro_cache_index_builds_total"] == stats.index_builds == 1
        assert samples["repro_cache_entries"] == stats.entries
        assert samples["repro_service_request_seconds_count"] == 3
        assert samples["repro_obs_spans_total"] == tracer.recorded > 0
        assert set(metrics_samples(idle, NULL_TRACER).values()) == {0.0}

    def test_store_samples_are_the_attached_stores_counts(self, run, tmp_path):
        writer = QueryService(store_dir=tmp_path, max_workers=2)
        writer.register_run(run, "r1")
        writer.warm("r1", ["_* e _*"])
        samples = metrics_samples(writer, NULL_TRACER)
        stats = writer.cache_stats
        assert samples["repro_store_writes_total"] == stats.store_writes > 0
        assert samples["repro_store_misses_total"] == stats.store_misses
        assert samples["repro_store_hits_total"] == stats.store_hits == 0

        reader = QueryService(store_dir=tmp_path, max_workers=2)
        reader.register_run(run, "r1")
        reader.run_batch([{"op": "allpairs", "run": "r1", "query": "_* e _*"}])
        samples = metrics_samples(reader, NULL_TRACER)
        assert samples["repro_store_hits_total"] == reader.cache_stats.store_hits > 0
        assert samples["repro_store_writes_total"] == reader.cache_stats.store_writes


class TestWarmRestart:
    """The acceptance scenario of the persistent store: a restarted service
    answers its first previously-seen query with zero index/plan rebuilds."""

    QUERIES = ["_* e _*", "A+", "_* a _*"]  # two safe, one unsafe

    def _requests(self, run):
        return [
            {"op": "allpairs", "run": "r1", "query": query, "id": f"q{position}"}
            for position, query in enumerate(self.QUERIES)
        ]

    def test_restarted_service_rebuilds_nothing(self, run, tmp_path):
        first = QueryService(store_dir=tmp_path, max_workers=2)
        first.register_run(run, "r1")
        statuses = first.warm("r1", self.QUERIES)
        assert all(not status.startswith("error") for status in statuses.values())
        reference = [result_to_dict(r) for r in first.run_batch(self._requests(run))]

        restarted = QueryService(store_dir=tmp_path, max_workers=2)
        assert restarted.run_ids() == ("r1",)  # registry restored, labels kept
        results = [result_to_dict(r) for r in restarted.run_batch(self._requests(run))]
        stats = restarted.cache_stats
        assert stats.index_builds == 0
        assert stats.safety_checks == 0
        assert stats.plan_builds == 0
        assert stats.store_hits > 0

        def stable(records):
            return [
                {key: value for key, value in record.items() if key != "elapsed_ms"}
                for record in records
            ]

        assert stable(results) == stable(reference)

    def test_cache_and_registry_share_one_store(self, run, tmp_path):
        service = QueryService(max_entries=32, store_dir=tmp_path)
        assert service.cache.store is service.store is not None
        assert service.cache.max_entries == 32
        service.register_run(run, "r1")
        service.warm("r1", ["_* e _*"])
        assert service.cache_stats.store_writes > 0
        assert QueryService(store_dir=tmp_path).run_ids() == ("r1",)

    def test_service_without_store_dir_has_no_store(self, run):
        service = QueryService()
        assert service.store is None
        assert service.cache.store is None
        service.register_run(run, "r1")
        service.warm("r1", ["_* e _*"])
        stats = service.cache_stats
        assert (stats.store_hits, stats.store_misses, stats.store_writes) == (0, 0, 0)

    def test_invalid_entry_bound_rejected(self):
        with pytest.raises(ValueError, match="max_entries must be at least 1"):
            QueryService(max_entries=0)

    def test_store_runs_register_before_new_ones(self, spec, run, tmp_path):
        QueryService(store_dir=tmp_path).register_run(run, "persisted")
        service = QueryService(store_dir=tmp_path)
        other = derive_run(spec, seed=3, target_edges=30)
        service.register_run(other)  # auto id must not collide
        assert set(service.run_ids()) == {"persisted", "run-2"}


class TestWireFormat:
    def test_request_round_trip(self):
        request = QueryRequest(
            op="allpairs", run="r1", query="A+", sources=("x",), targets=("y", "z"),
            request_id="q9",
        )
        assert request_from_dict(request_to_dict(request)) == request

    def test_read_requests_jsonl_skips_blanks_and_comments(self):
        lines = [
            "",
            "# a comment",
            json.dumps({"op": "reachability", "run": "r", "source": "a", "target": "b"}),
        ]
        requests = list(read_requests_jsonl(lines))
        assert len(requests) == 1
        assert requests[0].op == 'reachability'

    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "bogus", "run": "r"},
            {"op": "pairwise", "run": "r"},  # missing query/source/target
            {"op": "allpairs", "run": "r"},  # missing query
            {"op": "reachability", "run": "r", "source": "a"},  # missing target
            {"op": "pairwise"},  # missing run
            {"op": "allpairs", "run": "r", "query": "a", "sources": "not-a-list"},
            {"op": "allpairs", "run": "r", "query": "a", "surprise": 1},
            # The per-pair S1 decode is a baseline, not a request option.
            {"op": "allpairs", "run": "r", "query": "a", "use_reachability_filter": False},
        ],
    )
    def test_malformed_requests_rejected(self, payload):
        with pytest.raises(BatchFormatError):
            request_from_dict(payload)

    def test_malformed_jsonl_line_reports_line_number(self):
        with pytest.raises(BatchFormatError, match="line 2"):
            list(read_requests_jsonl(['{"op": "reachability", "run": "r", "source": "a", "target": "b"}', "{oops"]))

    def test_result_to_dict_shapes(self, run, service):
        source = run.node_ids()[0]
        record = result_to_dict(
            service.execute({"op": "reachability", "run": "r1",
                             "source": source, "target": source})
        )
        assert record['ok'] is True
        assert record['answer'] is True
        assert 'elapsed_ms' in record
        assert 'pairs' not in record
