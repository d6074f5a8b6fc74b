"""Tests for the ProvenanceQueryEngine facade."""

import pytest

from repro import ProvenanceQueryEngine, paper_specification
from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.core import engine as engine_module
from repro.core.decomposition import plan_decomposition
from repro.core.exec import FrontierSearchOp, JoinOp, LabelDecodeOp, build_physical_plan
from repro.core.query_index import build_query_index
from repro.datasets.paper_example import paper_run
from repro.errors import UnsafeQueryError
from repro.obs import Tracer, use_tracer
from repro.workflow.derivation import derive_run


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

    def test_unsafe_stream_computes_on_first_draw(self, engine, run, monkeypatch):
        """An unsafe stream validates eagerly but evaluates nothing until the
        first draw, and then evaluates the whole relation exactly once."""
        calls = []
        evaluate = engine_module.evaluate_general_query

        def counting(*args, **kwargs):
            calls.append(args[1])
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(engine_module, "evaluate_general_query", counting)
        iterator = engine.evaluate_iter(run, "_* a _*")
        assert calls == []
        first = next(iterator)
        assert len(calls) == 1
        assert {first, *iterator} == engine.evaluate(run, "_* a _*")
        assert len(calls) == 2  # the second call is engine.evaluate's own

    @pytest.mark.parametrize(
        "query, path",
        [("_* e _*", "safe-allpairs"), ("_* a _*", "decomposition")],
        ids=["safe", "unsafe"],
    )
    def test_stream_span_names_its_path_and_counts_items(self, engine, run, query, path):
        tracer = Tracer()
        with use_tracer(tracer):
            streamed = list(engine.evaluate_iter(run, query))
        [span] = [span for span in tracer.spans() if span.name == "query.stream"]
        assert span.attrs["path"] == path
        assert span.attrs["items"] == len(streamed)

    def test_run_from_other_spec_rejected(self, engine):
        from repro.datasets.myexperiment import bioaid_specification
        from repro.workflow.derivation import derive_run

        foreign = derive_run(bioaid_specification(), seed=0, target_edges=50)
        with pytest.raises(ValueError, match="different specification"):
            engine.reachable(foreign, foreign.node_ids()[0], foreign.node_ids()[1])


class TestEvaluateIterOperators:
    @pytest.mark.parametrize(
        "query, sides, operator",
        [
            ("_* e _*", (3, None), LabelDecodeOp),
            ("_* a _*", (None, None), JoinOp),
            ("_* a _*", (3, None), FrontierSearchOp),
            ("_* a _*", (None, 3), FrontierSearchOp),
        ],
        ids=["label-decode", "join", "forward-sweep", "backward-sweep"],
    )
    def test_stream_yields_the_packed_answer_each_pair_once(self, query, sides, operator):
        """Whichever operator the planner picks, ``evaluate_iter`` yields
        exactly the pairs of ``evaluate_packed(...).to_pairs``, each once,
        and they are the product-automaton answer.  The lists carry a
        duplicate and an id absent from the run."""
        spec = paper_specification()
        engine = ProvenanceQueryEngine(spec)
        run = derive_run(spec, seed=1, target_edges=150)
        nodes = list(run.node_ids())
        first, last = sides
        l1 = None if first is None else [*nodes[:first], nodes[0], "ghost:0"]
        l2 = None if last is None else [*nodes[-last:], nodes[-1], "ghost:0"]
        physical = build_physical_plan(
            run, plan_decomposition(spec, query), l1, l2,
            indexes=lambda node: build_query_index(spec, node),
        )
        assert type(physical.root) is operator
        streamed = list(engine.evaluate_iter(run, query, l1, l2))
        assert len(streamed) == len(set(streamed))
        packed = engine.evaluate_packed(run, query, l1, l2)
        assert tuple(sorted(streamed)) == packed.to_pairs(run.packed.interner)
        expected = product_bfs_all_pairs(run, run.known_ids(l1), run.known_ids(l2), query)
        assert expected
        assert set(streamed) == expected
