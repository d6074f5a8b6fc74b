"""Tests for the ProvenanceQueryEngine facade."""

import pytest

from repro import ProvenanceQueryEngine, paper_specification
from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.datasets.paper_example import paper_run
from repro.errors import UnsafeQueryError


@pytest.fixture
def engine():
    return ProvenanceQueryEngine(paper_specification())


@pytest.fixture
def run():
    return paper_run(recursion_depth=3)


class TestEngineBasics:
    def test_derive(self, engine):
        run = engine.derive(seed=1, target_edges=60)
        assert run.edge_count >= 60

    def test_safety_methods(self, engine):
        assert engine.is_safe("_* e _*")
        assert not engine.is_safe("e")
        report = engine.safety_report("e")
        assert not report.is_safe

    def test_query_index_is_cached(self, engine):
        first = engine.query_index("_* e _*")
        second = engine.query_index("_*  e  _*")  # same canonical form
        assert first is second

    def test_plan(self, engine):
        assert engine.plan("_* e _*").is_fully_safe
        assert not engine.plan("_* a _*").is_fully_safe

    def test_describe(self, engine):
        engine.query_index("_*")
        assert "1 cached query" in engine.describe()

    def test_describe_counts_only_own_spec_on_a_shared_cache(self, engine):
        from repro.datasets.myexperiment import bioaid_specification

        other = ProvenanceQueryEngine(bioaid_specification(), cache=engine.cache)
        engine.query_index("_*")
        engine.query_index("_* e _*")
        other.query_index("_*")
        assert "2 cached query" in engine.describe()
        assert "1 cached query" in other.describe()


class TestEngineQueries:
    def test_reachable(self, engine, run):
        assert engine.reachable(run, "c:1", "b:1")
        assert not engine.reachable(run, "b:1", "c:1")

    def test_pairwise(self, engine, run):
        assert engine.pairwise(run, "c:1", "b:1", "_* e _*")
        assert not engine.pairwise(run, "c:1", "b:3", "_* e _*")

    def test_pairwise_states_relation(self, engine, run):
        matrix = engine.pairwise_states(run, "c:1", "b:1", "_* e _*")
        index = engine.query_index("_* e _*")
        assert index.accepts(matrix)

    def test_ids_absent_from_the_run_match_nothing(self, engine, run):
        assert not engine.reachable(run, "ghost", "b:1")
        assert not engine.pairwise(run, "c:1", "ghost", "_* e _*")
        assert engine.pairwise_states(run, "ghost", "b:1", "_* e _*").is_zero()
        assert engine.all_pairs_reachability(run, ["c:1", "ghost"], ["ghost"]) == set()
        assert engine.all_pairs_reachability(
            run, ["c:1", "ghost"], ["b:1"]
        ) == engine.all_pairs_reachability(run, ["c:1"], ["b:1"])
        with pytest.raises(UnsafeQueryError):
            engine.pairwise(run, "ghost", "b:1", "e")

    def test_streamed_all_pairs_drop_ids_absent_from_the_run(self, engine, run):
        with_ghost = list(engine.all_pairs_iter(run, "_* e _*", ["ghost", "c:1"], None))
        assert with_ghost
        assert set(with_ghost) == set(engine.all_pairs_iter(run, "_* e _*", ["c:1"], None))
        assert list(engine.all_pairs_iter(run, "_* e _*", ["ghost"], None)) == []

    def test_pairwise_unsafe_query_raises(self, engine, run):
        with pytest.raises(UnsafeQueryError):
            engine.pairwise(run, "c:1", "b:1", "e")

    def test_all_pairs_matches_oracle(self, engine, run):
        nodes = list(run.node_ids())
        expected = product_bfs_all_pairs(run, nodes, nodes, "A+")
        assert engine.all_pairs(run, "A+") == expected

    def test_all_pairs_reachability(self, engine, run):
        expected = product_bfs_all_pairs(run, None, None, "_*")
        assert engine.all_pairs_reachability(run) == expected

    def test_evaluate_handles_safe_and_unsafe(self, engine, run):
        safe = engine.evaluate(run, "_* e _*")
        assert safe == product_bfs_all_pairs(run, None, None, "_* e _*")
        unsafe = engine.evaluate(run, "_* a _*")
        assert unsafe == product_bfs_all_pairs(run, None, None, "_* a _*")

    def test_all_pairs_iter_streams_each_pair_once(self, engine, run):
        streamed = list(engine.all_pairs_iter(run, "A+"))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == engine.all_pairs(run, "A+")

    def test_all_pairs_iter_unsafe_query_raises(self, engine, run):
        with pytest.raises(UnsafeQueryError):
            engine.all_pairs_iter(run, "e")

    def test_evaluate_iter_handles_safe_and_unsafe(self, engine, run):
        assert set(engine.evaluate_iter(run, "_* e _*")) == engine.evaluate(
            run, "_* e _*"
        )
        assert set(engine.evaluate_iter(run, "_* a _*")) == engine.evaluate(
            run, "_* a _*"
        )

    def test_evaluate_iter_is_lazy_for_safe_queries(self, engine, run):
        iterator = engine.evaluate_iter(run, "_* e _*")
        assert next(iterator) in engine.evaluate(run, "_* e _*")

    def test_evaluate_iter_validates_eagerly(self, engine, run):
        from repro.datasets.myexperiment import bioaid_specification
        from repro.errors import QuerySyntaxError
        from repro.workflow.derivation import derive_run

        with pytest.raises(QuerySyntaxError):
            engine.evaluate_iter(run, "((b")
        foreign = derive_run(bioaid_specification(), seed=0, target_edges=50)
        with pytest.raises(ValueError, match="different specification"):
            engine.evaluate_iter(foreign, "_*")

    def test_run_from_other_spec_rejected(self, engine):
        from repro.datasets.myexperiment import bioaid_specification
        from repro.workflow.derivation import derive_run

        foreign = derive_run(bioaid_specification(), seed=0, target_edges=50)
        with pytest.raises(ValueError, match="different specification"):
            engine.reachable(foreign, foreign.node_ids()[0], foreign.node_ids()[1])
