"""Tests for general-query decomposition (Section IV-B, "Our approach")."""

from types import SimpleNamespace

import pytest

from repro.automata.regex import parse_regex
from repro.baselines.paper_decomposition import paper_decomposition_all_pairs
from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.core.decomposition import (
    evaluate_general_query,
    label_routed_subtrees,
    plan_decomposition,
)
from repro.core.engine import ProvenanceQueryEngine
from repro.core.optimizer import estimate_relation_size, relation_size_cap
from repro.core.safety import is_safe_query
from repro.datasets.paper_example import paper_run, paper_specification
from repro.datasets.queries import generate_query_suite
from repro.datasets.synthetic import generate_synthetic_specification
from repro.workflow.derivation import derive_run

UNSAFE_QUERIES = [
    "_* a _*",          # the paper's canonical unsafe query
    "e",                # R4
    "e e",              # unsafe concatenation
    "_* a _* e _*",     # unsafe IFQ
    "(c | e) _*",       # union with unsafe parts
    "a* e",             # unsafe star then tag
]


def _answer(run, query, *lists, **kwargs):
    """The general query's answer, unpacked in sorted order."""
    relation = evaluate_general_query(run, query, *lists, **kwargs)
    return relation.to_pairs(run.packed.interner)


def _sorted(pairs):
    return tuple(sorted(pairs))


def _stream(run, query, *lists):
    """The engine's stream of the query's answer, drawn to the end."""
    return list(ProvenanceQueryEngine(run.spec).evaluate_iter(run, query, *lists))


def _tag_stats(**tags):
    """The run statistics the router reads: 100 nodes and the given per-tag
    edge counts."""
    return SimpleNamespace(
        node_count=100,
        edge_count=sum(tags.values()),
        edges_by_tag={tag: (None,) * count for tag, count in tags.items()},
    )


def _always_labels(monkeypatch, plan):
    """Route every worthwhile safe subtree of ``plan`` to the labeling engine,
    whatever the cost model says, so macro edges exist on small runs."""
    monkeypatch.setattr(plan, "estimate_prefers_labels", lambda run, node: True)
    return plan


class TestPlanning:
    def test_fully_safe_query(self):
        plan = plan_decomposition(paper_specification(), "_* e _*")
        assert plan.is_fully_safe
        assert plan.safe_subtrees == [parse_regex("_* e _*")]

    def test_unsafe_query_keeps_safe_parts(self):
        # "_* a _*" is unsafe as a whole; its subexpressions "_*" and even the
        # bare tag "a" are safe (no execution of A provides a path that is a
        # single a-tagged edge, so "a" is consistently unmatched inside A).
        plan = plan_decomposition(paper_specification(), "_* a _*")
        assert not plan.is_fully_safe
        assert plan.has_safe_parts
        assert parse_regex("_*") in plan.safe_subtrees

    def test_plan_describe(self):
        plan = plan_decomposition(paper_specification(), "_* a _*")
        assert "unsafe" in plan.describe()

    def test_composite_unsafe_query(self):
        # Concatenating a safe Kleene part with an unsafe tag keeps the safe
        # part intact in the plan.
        spec = paper_specification()
        plan = plan_decomposition(spec, "(A)+ . e")
        assert not plan.is_fully_safe
        assert parse_regex("A+") in plan.safe_subtrees


class TestEvaluation:
    def test_safe_query_goes_through_safe_engine(self):
        run = paper_run()
        result = _answer(run, "_* e _*")
        expected = _sorted(product_bfs_all_pairs(run, None, None, "_* e _*"))
        assert result == expected

    @pytest.mark.parametrize("query", UNSAFE_QUERIES)
    def test_unsafe_queries_match_oracle(self, query):
        run = paper_run(recursion_depth=3)
        assert not is_safe_query(run.spec, query)
        result = _answer(run, query)
        expected = _sorted(product_bfs_all_pairs(run, None, None, query))
        assert result == expected

    def test_restriction_to_lists(self):
        run = paper_run()
        l1 = ["c:1", "a:1"]
        l2 = ["b:1", "b:3"]
        result = _answer(run, "_* a _*", l1, l2)
        expected = _sorted(product_bfs_all_pairs(run, l1, l2, "_* a _*"))
        assert result == expected

    def test_cost_based_routing_does_not_change_answers(self, monkeypatch):
        run = paper_run(recursion_depth=3)
        query = "(A)+ . e"
        expected = _sorted(product_bfs_all_pairs(run, None, None, query))
        routed = _answer(run, query)
        always_labels = _answer(
            run, query, plan=_always_labels(monkeypatch, plan_decomposition(run.spec, query))
        )
        paper = _sorted(paper_decomposition_all_pairs(run, None, None, query))
        assert routed == always_labels == paper == expected

    def test_precomputed_plan_reuse(self):
        run = paper_run()
        plan = plan_decomposition(run.spec, "_* a _*")
        result = _answer(run, "_* a _*", plan=plan)
        assert result == _sorted(product_bfs_all_pairs(run, None, None, "_* a _*"))

    def test_random_queries_on_synthetic_spec(self):
        spec = generate_synthetic_specification(150, seed=13)
        run = derive_run(spec, seed=13, target_edges=100)
        for query in generate_query_suite(spec, count=6, seed=3, depth=2):
            result = _answer(run, query)
            expected = _sorted(product_bfs_all_pairs(run, None, None, query))
            assert result == expected, f"mismatch for {query!r}"


class TestRestrictionPushdown:
    @pytest.mark.parametrize("query", UNSAFE_QUERIES)
    @pytest.mark.parametrize("direction", ["auto", "forward", "backward"])
    def test_pushdown_agrees_with_oracle_on_lists(self, query, direction):
        run = paper_run(recursion_depth=3)
        nodes = list(run.node_ids())
        l1 = nodes[:4]
        l2 = nodes[2:10]
        expected = _sorted(product_bfs_all_pairs(run, l1, l2, query))
        result = _answer(run, query, l1, l2, direction=direction)
        assert result == expected

    @pytest.mark.parametrize("query", UNSAFE_QUERIES)
    def test_iter_streams_each_pair_once(self, query):
        run = paper_run(recursion_depth=3)
        nodes = list(run.node_ids())
        l1 = nodes[:5]
        streamed = _stream(run, query, l1, None)
        assert len(streamed) == len(set(streamed))
        assert _sorted(streamed) == _sorted(product_bfs_all_pairs(run, l1, None, query))

    def test_duplicate_ids_do_not_duplicate_pairs(self):
        run = paper_run(recursion_depth=2)
        nodes = list(run.node_ids())
        l1 = [nodes[0], nodes[1], nodes[0], nodes[1]]
        l2 = [nodes[2], nodes[2], nodes[3]]
        expected = _sorted(product_bfs_all_pairs(run, l1, l2, "_* a _*"))
        assert _answer(run, "_* a _*", l1, l2) == expected
        streamed = _stream(run, "_* a _*", l1, l2)
        assert _sorted(streamed) == expected

    def test_empty_lists_give_empty_answers(self):
        run = paper_run()
        some = list(run.node_ids())[:3]
        assert _answer(run, "_* a _*", [], None) == ()
        assert _answer(run, "_* a _*", some, []) == ()
        assert _stream(run, "_* a _*", [], []) == []

    def test_ids_absent_from_run_are_ignored(self):
        # The paper's evaluate-then-restrict scheme restricts a whole-run
        # relation, so unknown ids silently match nothing; pushdown keeps
        # that contract.
        run = paper_run()
        ghosts = ["no-such-node", "also-missing"]
        some = list(run.node_ids())[:3]
        assert _answer(run, "_* a _*", ghosts, None) == ()
        mixed = _answer(run, "_* a _*", some + ghosts, None)
        assert mixed == _sorted(product_bfs_all_pairs(run, some, None, "_* a _*"))

    def test_unknown_direction_rejected(self):
        run = paper_run()
        with pytest.raises(ValueError, match="unknown direction"):
            evaluate_general_query(run, "_* a _*", direction="magic")

    def test_engine_rejects_unknown_direction_even_for_safe_queries(self):
        run = paper_run()
        engine = ProvenanceQueryEngine(run.spec)
        with pytest.raises(ValueError, match="unknown direction"):
            engine.evaluate(run, "_* e _*", direction="sideways")
        # Eagerly, before the stream is drawn, like every other validation.
        with pytest.raises(ValueError, match="unknown direction"):
            engine.evaluate_iter(run, "_* e _*", direction="sideways")

    def test_pushdown_matches_the_paper_scheme(self):
        run = paper_run(recursion_depth=3)
        nodes = list(run.node_ids())
        l1, l2 = nodes[:4], nodes[3:9]
        paper = paper_decomposition_all_pairs(run, l1, l2, "_* a _*")
        assert _sorted(paper) == _answer(run, "_* a _*", l1, l2)

    def test_unrestricted_query_joins_without_a_macro_dfa(self, monkeypatch):
        # Without node lists the pruning cannot shrink anything, so the plan
        # takes the join path (a frontier sweep would build a macro DFA,
        # which lands in the plan's memo).
        run = paper_run(recursion_depth=3)
        plan = _always_labels(monkeypatch, plan_decomposition(run.spec, "(A)+ . e"))
        evaluate_general_query(run, "(A)+ . e", plan=plan)
        assert plan._dfa_memo == {}

    def test_label_routing_follows_per_tag_edge_counts(self):
        """The routing decision reads the run's per-tag edge counts on every
        call: two runs with equal node and edge counts but a different tag
        mix route the same safe subtree differently, in either order.  The
        subtree ends in a rare tag, so its size estimate stays below the
        ``|V|^2`` cap while its join cost beats the label cost."""
        plan = plan_decomposition(paper_specification(), "(_* a _*) | (A+ . A+ . c)")
        dense, sparse = _tag_stats(A=90, a=9, c=1), _tag_stats(A=10, a=89, c=1)
        routed = [parse_regex("A+ . A+ . c")]
        assert estimate_relation_size(dense, routed[0]) < relation_size_cap(dense)
        for run in (dense, sparse, dense, sparse):
            expected = routed if run is dense else []
            assert label_routed_subtrees(plan, run) == expected

    def test_capped_size_estimate_is_not_routed(self):
        """A subtree whose size estimate reaches the ``|V|^2`` cap stays in
        the remainder even when the cost model alone would route it: its
        first touch would decode a relation near ``|V|^2``."""
        plan = plan_decomposition(paper_specification(), "(_* a _*) | (A+ . A+)")
        run = _tag_stats(A=90, a=10)
        subtree = parse_regex("A+ . A+")
        assert estimate_relation_size(run, subtree) == relation_size_cap(run)
        assert plan.estimate_prefers_labels(run, subtree)
        assert label_routed_subtrees(plan, run) == []

    def test_macro_dfa_memoized_on_plan(self, monkeypatch):
        run = paper_run(recursion_depth=2)
        plan = _always_labels(monkeypatch, plan_decomposition(run.spec, "(A)+ . e"))
        sources = list(run.node_ids())
        evaluate_general_query(run, "(A)+ . e", sources, plan=plan)
        assert len(plan._dfa_memo) == 1
        dfa = next(iter(plan._dfa_memo.values()))
        evaluate_general_query(run, "(A)+ . e", sources, plan=plan)
        assert next(iter(plan._dfa_memo.values())) is dfa


class TestPlanThreadSafety:
    """Cached plans are shared by every thread of a batch fan-out; their
    memos must not lose updates (regression: the memos and the ``mutations``
    counter used to be unsynchronized)."""

    def test_memoized_dfa_counts_every_build_across_threads(self):
        import threading

        from repro.automata.dfa import dfa_from_regex

        plan = plan_decomposition(paper_specification(), "_* a _*")
        dfa = dfa_from_regex("a", ("a",))
        threads, per_thread = 8, 100
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                plan.memoized_dfa(f"w{worker}:k{i}", lambda: dfa)

        workers = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        # Every key is distinct, so each call builds once and bumps the
        # counter once — also across the memo's 16-entry resets, which is
        # why the cache trusts the counter and not the summed cost.
        assert plan.mutations == threads * per_thread
        assert 0 < len(plan.macro_dfas()) <= 16

    def test_memoized_dfa_builds_once_under_contention(self):
        import threading

        from repro.core.decomposition import warm_frontier_dfa

        spec = paper_specification()
        run = derive_run(spec, seed=11)
        plan = plan_decomposition(spec, "_* a _*")
        threads = 8
        barrier = threading.Barrier(threads)
        results = []

        def warm() -> None:
            barrier.wait()
            results.append(warm_frontier_dfa(plan, run))

        workers = [threading.Thread(target=warm) for _ in range(threads)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        # All threads share the single memoized instance, and the memo
        # recorded exactly one build per distinct key.
        assert len({id(dfa) for dfa in results}) == 1
        assert plan.mutations == len(plan.macro_dfas())
