"""Property-based end-to-end tests.

Hypothesis generates random (specification, run, query) triples and checks
that the labeling-based engines agree with the product-automaton oracle, and
that core invariants of the labeling substrate hold on arbitrary runs.
"""

import networkx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.paper_decomposition import paper_decomposition_all_pairs
from repro.baselines.product_bfs import product_bfs_all_pairs, product_bfs_pairwise
from repro.baselines.rpl_per_pair import optrpl_all_pairs, rpl_all_pairs
from repro.core.decomposition import evaluate_general_query
from repro.core.engine import ProvenanceQueryEngine
from repro.core import exec as exec_package
from repro.core.exec import JoinOp
from repro.core.safety import is_safe_query
from repro.datasets.paper_example import paper_specification
from repro.datasets.synthetic import generate_synthetic_specification
from repro.labeling.reachability import is_reachable
from repro.service import QueryService
from repro.workflow.derivation import derive_run

# A small cache of specifications/runs so hypothesis examples stay fast.
_SPECS = {
    "paper": paper_specification(),
    "synthetic-a": generate_synthetic_specification(120, seed=1),
    "synthetic-b": generate_synthetic_specification(160, seed=2, recursion_fraction=0.5),
}
_RUNS = {
    name: [derive_run(spec, seed=seed, target_edges=70) for seed in (0, 1)]
    for name, spec in _SPECS.items()
}


def _tags(spec):
    return sorted(spec.tags)


@st.composite
def spec_run_query(draw):
    name = draw(st.sampled_from(sorted(_SPECS)))
    spec = _SPECS[name]
    run = draw(st.sampled_from(_RUNS[name]))
    tags = _tags(spec)
    # Build a small random query over the spec's tags.
    def leaf():
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return "_"
        if choice == 1:
            return "_*"
        return draw(st.sampled_from(tags))

    shape = draw(st.integers(0, 4))
    if shape == 0:
        query = leaf()
    elif shape == 1:
        query = f"{leaf()} . {leaf()}"
    elif shape == 2:
        query = f"({leaf()} | {leaf()})"
    elif shape == 3:
        query = f"({draw(st.sampled_from(tags))})*"
    else:
        query = f"{leaf()} . ({leaf()} | {leaf()})* . {leaf()}"
    return spec, run, query


@st.composite
def restricted_spec_run_query(draw):
    """A (spec, run, query, l1, l2) tuple where the node lists exercise the
    restriction-pushdown edge cases: ``None``, empty lists, duplicate ids,
    and lists disjoint from the answer."""
    spec, run, query = draw(spec_run_query())
    nodes = list(run.node_ids())

    def node_list():
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return None
        if kind == 1:
            return []
        count = draw(st.integers(1, 8))
        # Sampling with replacement: duplicates are likely and deliberate.
        return [nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(count)]

    return spec, run, query, node_list(), node_list()


class TestEngineAgainstOracle:
    @given(spec_run_query())
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
    def test_general_evaluation_matches_oracle(self, data):
        spec, run, query = data
        expected = product_bfs_all_pairs(run, None, None, query)
        relation = evaluate_general_query(run, query)
        assert relation.to_pairs(run.packed.interner) == tuple(sorted(expected))

    @given(restricted_spec_run_query())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.data_too_large])
    def test_restricted_evaluation_matches_oracle(self, data):
        """The restriction-pushdown evaluator, the engine's stream and the
        paper's evaluate-then-restrict scheme must match the
        product-automaton oracle."""
        spec, run, query, l1, l2 = data
        expected = product_bfs_all_pairs(run, l1, l2, query)
        relation = evaluate_general_query(run, query, l1, l2)
        assert relation.to_pairs(run.packed.interner) == tuple(sorted(expected))
        streamed = list(ProvenanceQueryEngine(spec).evaluate_iter(run, query, l1, l2))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == expected
        assert paper_decomposition_all_pairs(run, l1, l2, query) == expected

    @pytest.mark.parametrize(
        ("name", "queries"),
        [
            ("paper", ["_* a _*", "(A | e)+ . A", "_* a _* e _*", "_ . A*"]),
            ("synthetic-a", ["_* op0 _*", "(op11)+ . _*", "(op3 | op6)+ . op3"]),
            ("synthetic-b", ["(op14)+ . _*", "_ . (op11)*", "op0 . _"]),
        ],
    )
    def test_unrestricted_unsafe_queries_join_on_every_surface(
        self, name, queries, tmp_path, monkeypatch
    ):
        """Unsafe queries without node lists run one packed join through
        the engine, its stream, a cold service and a service restarted from
        the store after ``warm`` — and all of them match the oracle, the
        restarted one without a safety check or a plan build."""
        spec = _SPECS[name]
        run = _RUNS[name][0]
        roots = []
        build = exec_package.build_physical_plan

        def recording(*args, **kwargs):
            physical = build(*args, **kwargs)
            roots.append(physical.root)
            return physical

        monkeypatch.setattr(exec_package, "build_physical_plan", recording)
        warmer = QueryService(store_dir=tmp_path)
        warmer.register_run(run, "r")
        statuses = warmer.warm("r", queries)
        assert all(status.startswith("unsafe") for status in statuses.values())
        restarted = QueryService(store_dir=tmp_path)
        cold = QueryService()
        cold.register_run(run, "r")
        engine = ProvenanceQueryEngine(spec)
        for query in queries:
            assert not is_safe_query(spec, query)
            expected = product_bfs_all_pairs(run, None, None, query)
            assert expected, f"{query!r} should match on this run"
            request = {"op": "allpairs", "run": "r", "query": query}
            roots.clear()
            streamed = list(engine.evaluate_iter(run, query))
            assert len(streamed) == len(set(streamed))
            answers = {
                "evaluate": engine.evaluate(run, query),
                "evaluate_iter": set(streamed),
                "cold service": set(cold.execute(request).pairs),
                "restarted service": set(restarted.execute(request).pairs),
            }
            for surface, answer in answers.items():
                assert answer == expected, f"{surface} diverged for {query!r}"
            assert len(roots) == len(answers)
            assert all(isinstance(root, JoinOp) for root in roots)
        stats = restarted.cache_stats
        assert stats.safety_checks == 0
        assert stats.plan_builds == 0

    @given(spec_run_query(), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_safe_pairwise_matches_oracle(self, data, pick):
        spec, run, query = data
        if not is_safe_query(spec, query):
            return
        engine = ProvenanceQueryEngine(spec)
        nodes = run.node_ids()
        source = nodes[pick % len(nodes)]
        target = nodes[(pick * 7 + 3) % len(nodes)]
        assert engine.pairwise(run, source, target, query) == product_bfs_pairwise(
            run, source, target, query
        )


class TestLabelingInvariants:
    @given(st.sampled_from(sorted(_SPECS)), st.integers(0, 3))
    @settings(max_examples=12, deadline=None)
    def test_labels_unique_and_decode_matches_graph(self, name, seed):
        spec = _SPECS[name]
        run = derive_run(spec, seed=100 + seed, target_edges=60)
        labels = [node.label for node in run]
        assert len(labels) == len(set(labels))

        graph = networkx.DiGraph()
        graph.add_nodes_from(run.node_ids())
        graph.add_edges_from((edge.source, edge.target) for edge in run.edges)
        nodes = list(run.node_ids())[::3]
        for u in nodes:
            reachable = networkx.descendants(graph, u) | {u}
            for v in nodes:
                assert is_reachable(run.label_of(u), run.label_of(v), spec) == (v in reachable)

    @given(st.sampled_from(sorted(_SPECS)), st.integers(0, 3))
    @settings(max_examples=12, deadline=None)
    def test_label_depth_bounded_by_specification(self, name, seed):
        spec = _SPECS[name]
        run = derive_run(spec, seed=200 + seed, target_edges=80)
        # Compressed parse-tree depth is bounded by the number of modules
        # (each level consumes either a production or a recursion chain).
        bound = 2 * len(spec.modules)
        assert all(len(node.label) <= bound for node in run)


class TestAllPairsConsistency:
    @given(spec_run_query())
    @settings(max_examples=25, deadline=None)
    def test_all_four_evaluation_paths_agree(self, data):
        """Per-pair S1 ≡ per-pair S2 ≡ vectorized S2 ≡ streamed results on
        random specifications, runs and safe queries."""
        spec, run, query = data
        if not is_safe_query(spec, query):
            return
        engine = ProvenanceQueryEngine(spec)
        l1 = run.node_ids()[::2]
        l2 = run.node_ids()[1::2]
        index = engine.query_index(query)
        per_pair_s1 = rpl_all_pairs(run, l1, l2, index)
        per_pair_s2 = optrpl_all_pairs(run, l1, l2, index)
        vectorized = engine.all_pairs(run, query, l1, l2)
        streamed = list(engine.all_pairs_iter(run, query, l1, l2))
        assert len(streamed) == len(set(streamed))
        assert per_pair_s1 == per_pair_s2 == vectorized == set(streamed)

    @given(spec_run_query())
    @settings(max_examples=15, deadline=None)
    def test_evaluate_iter_agrees_with_evaluate(self, data):
        spec, run, query = data
        engine = ProvenanceQueryEngine(spec)
        assert set(engine.evaluate_iter(run, query)) == engine.evaluate(run, query)
