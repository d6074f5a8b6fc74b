"""Tests for Algorithm 2 (all-pairs safe queries) and the reachability join."""

from collections import Counter

import pytest

from repro.automata.boolean_matrix import BooleanMatrix
from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.baselines.rpl_per_pair import optrpl_all_pairs, rpl_all_pairs
from repro.core.allpairs import (
    all_pairs_iter,
    all_pairs_reachability,
    all_pairs_safe_query,
    pair_blocks,
    structural_join,
)
from repro.core.pairwise import answer_pairwise_query
from repro.core.query_index import build_query_index
from repro.core.safety import is_safe_query
from repro.datasets.myexperiment import (
    BIOAID_KLEENE_TAG,
    QBLAST_KLEENE_TAG,
    bioaid_specification,
    fork_production_indices,
    qblast_specification,
)
from repro.datasets.paper_example import paper_run
from repro.datasets.runs import generate_fork_heavy_run, generate_run
from repro.datasets.synthetic import generate_synthetic_specification
from repro.labeling.labels import RecursionStep
from repro.labeling.parse_tree import LabelTrie
from repro.workflow.derivation import derive_run


def reachability_oracle(run, l1, l2):
    return product_bfs_all_pairs(run, l1, l2, "_*")


def paper_lists():
    run = paper_run(recursion_depth=5)
    nodes = list(run.node_ids())
    return run, nodes, nodes


def qblast_loop_lists():
    """A 1,000-edge QBLast run dominated by the ``q1_loop`` self-recursion:
    long chains whose members land on both lists at different strides."""
    spec = qblast_specification()
    run = generate_fork_heavy_run(
        spec, 1000, fork_production_indices(spec, QBLAST_KLEENE_TAG), seed=0
    )
    nodes = list(run.node_ids())
    return run, nodes[::7], nodes[::5]


def qblast_cycle_run():
    """A QBLast run dominated by the two-production ``qX``/``qY`` cycle."""
    spec = qblast_specification()
    (cycle,) = [cycle for cycle in spec.production_graph.cycles if len(cycle) == 2]
    return generate_fork_heavy_run(spec, 600, tuple(cycle.productions), seed=0)


def every_kth_member(run, k, offset):
    """The nodes under chain members whose ordinal is ``offset`` mod ``k``."""
    return [
        node
        for node in run.node_ids()
        if any(
            isinstance(step, RecursionStep) and step.ordinal % k == offset
            for step in run.label_of(node)
        )
    ]


class TestAllPairsReachability:
    def test_example_31_lists(self):
        run = paper_run()
        l1 = ["d:1", "d:2", "e:2"]
        l2 = ["b:1", "b:2"]
        assert all_pairs_reachability(run, l1, l2) == {
            ("d:1", "b:1"),
            ("d:2", "b:1"),
            ("e:2", "b:1"),
        }

    def test_full_cross_product_matches_oracle(self):
        run = paper_run(recursion_depth=4)
        nodes = list(run.node_ids())
        assert all_pairs_reachability(run, nodes, nodes) == reachability_oracle(
            run, nodes, nodes
        )

    def test_partial_lists_match_oracle(self):
        run = derive_run(paper_run().spec, seed=11, target_edges=80)
        l1 = run.node_ids()[::3]
        l2 = run.node_ids()[1::4]
        assert all_pairs_reachability(run, l1, l2) == reachability_oracle(run, l1, l2)

    def test_empty_lists(self):
        run = paper_run()
        assert all_pairs_reachability(run, [], list(run.node_ids())) == set()
        assert all_pairs_reachability(run, list(run.node_ids()), []) == set()

    def test_bioaid_run_matches_oracle(self):
        spec = bioaid_specification()
        run = generate_run(spec, 200, seed=4)
        l1 = run.node_ids()[::4]
        l2 = run.node_ids()[::5]
        assert all_pairs_reachability(run, l1, l2) == reachability_oracle(run, l1, l2)

    @pytest.mark.parametrize(
        "make_lists", [paper_lists, qblast_loop_lists], ids=["paper", "qblast-loop"]
    )
    def test_groups_only_contain_reachable_pairs(self, make_lists):
        run, l1, l2 = make_lists()
        trie1 = LabelTrie.from_run_nodes(run, l1)
        trie2 = LabelTrie.from_run_nodes(run, l2)
        oracle = reachability_oracle(run, l1, l2)
        seen = set()
        for group in structural_join(trie1, trie2, run.spec):
            for sources, targets in pair_blocks(group):
                for u in sources:
                    for v in targets:
                        assert (u, v) in oracle
                        assert (u, v) not in seen, "pair emitted twice"
                        seen.add((u, v))
        assert seen == oracle


class TestAllPairsSafeQueries:
    def test_example_31_a_plus(self):
        run = paper_run()
        index = build_query_index(run.spec, "A+")
        l1 = ["d:1", "d:2", "e:2"]
        l2 = ["b:1", "b:2"]
        expected = {("d:1", "b:1"), ("d:2", "b:1"), ("e:2", "b:1")}
        assert all_pairs_safe_query(run, l1, l2, index) == expected

    def test_example_31_single_a(self):
        run = paper_run()
        index = build_query_index(run.spec, "A")
        l1 = ["d:1", "d:2", "e:2"]
        l2 = ["b:1", "b:2"]
        assert all_pairs_safe_query(run, l1, l2, index) == {("d:1", "b:1")}

    def test_s1_and_s2_agree(self):
        run = paper_run(recursion_depth=5)
        index = build_query_index(run.spec, "_* e _*")
        nodes = list(run.node_ids())
        s2 = all_pairs_safe_query(run, nodes, nodes, index)
        s1 = rpl_all_pairs(run, nodes, nodes, index)
        assert s1 == s2

    @pytest.mark.parametrize("query", ["_* e _*", "A+", "a+", "c (a|b|A|B|e)* b"])
    def test_oracle_agreement(self, query):
        run = paper_run(recursion_depth=4)
        index = build_query_index(run.spec, query)
        nodes = list(run.node_ids())
        expected = product_bfs_all_pairs(run, nodes, nodes, query)
        assert all_pairs_safe_query(run, nodes, nodes, index) == expected

    def test_kleene_star_on_fork_heavy_run(self):
        spec = bioaid_specification()
        forks = fork_production_indices(spec, BIOAID_KLEENE_TAG)
        run = generate_fork_heavy_run(spec, 220, forks, seed=5)
        query = f"{BIOAID_KLEENE_TAG}*"
        index = build_query_index(spec, query)
        l1 = run.node_ids()[::3]
        l2 = run.node_ids()[::3]
        expected = product_bfs_all_pairs(run, l1, l2, query)
        assert all_pairs_safe_query(run, l1, l2, index) == expected

    def test_synthetic_spec_matches_oracle(self):
        spec = generate_synthetic_specification(200, seed=9)
        run = derive_run(spec, seed=9, target_edges=120)
        l1 = run.node_ids()[::4]
        l2 = run.node_ids()[::4]
        for query in ("_*", "_* op2 _*", "op3*"):
            if not is_safe_query(spec, query):
                continue
            index = build_query_index(spec, query)
            expected = product_bfs_all_pairs(run, l1, l2, query)
            assert all_pairs_safe_query(run, l1, l2, index) == expected


class TestVectorizedDecoding:
    """The group-at-a-time state-vector decode (optRPL-G) and streaming."""

    @pytest.mark.parametrize("query", ["_* e _*", "A+", "a+", "c (a|b|A|B|e)* b", "A"])
    def test_agrees_with_per_pair_and_oracle(self, query):
        run = paper_run(recursion_depth=5)
        index = build_query_index(run.spec, query)
        nodes = list(run.node_ids())
        expected = product_bfs_all_pairs(run, nodes, nodes, query)
        assert all_pairs_safe_query(run, nodes, nodes, index) == expected
        assert optrpl_all_pairs(run, nodes, nodes, index) == expected

    def test_agrees_on_fork_heavy_run(self):
        spec = bioaid_specification()
        forks = fork_production_indices(spec, BIOAID_KLEENE_TAG)
        run = generate_fork_heavy_run(spec, 220, forks, seed=5)
        query = f"{BIOAID_KLEENE_TAG}*"
        index = build_query_index(spec, query)
        l1 = run.node_ids()[::3]
        l2 = run.node_ids()[::2]
        expected = product_bfs_all_pairs(run, l1, l2, query)
        assert all_pairs_safe_query(run, l1, l2, index) == expected

    @pytest.mark.parametrize(
        "query", ["_*", "q1_loop*", "qx_b _*", "(qY|qx_b)*", "(qY qX)*", "_* qX"]
    )
    def test_chain_sweep_on_two_production_cycle(self, query):
        # Lists take every 5th / 7th member of qX/qY chains, so the sweep's gap
        # jumps exceed two cycle lengths (the matrix-power path); (l2, l1)
        # moves the pairs from the red pass to the blue pass.  "q1_loop*" and
        # "(qY|qx_b)*" kill the state vectors at some members' crossings, and
        # "(qY qX)*" and "_* qX" depend on the parity of the gap.
        run = qblast_cycle_run()
        index = build_query_index(run.spec, query)
        l1 = every_kth_member(run, 5, 0)
        l2 = every_kth_member(run, 7, 3)
        for sources, targets in ((l1, l2), (l2, l1), (l1, l1)):
            expected = product_bfs_all_pairs(run, sources, targets, query)
            assert all_pairs_safe_query(run, sources, targets, index) == expected
            assert rpl_all_pairs(run, sources, targets, index) == expected

    def test_warm_chain_sweep_makes_no_matrix_product(self, monkeypatch):
        run, l1, l2 = qblast_loop_lists()
        index = build_query_index(run.spec, f"{QBLAST_KLEENE_TAG}*")
        expected = all_pairs_safe_query(run, l1, l2, index)
        products = Counter()
        multiply = BooleanMatrix.__matmul__

        def counting(left, right):
            products["matmul"] += 1
            return multiply(left, right)

        monkeypatch.setattr(BooleanMatrix, "__matmul__", counting)
        assert all_pairs_safe_query(run, l1, l2, index) == expected
        assert products["matmul"] == 0

    def test_streaming_yields_each_pair_once(self):
        run = paper_run(recursion_depth=5)
        index = build_query_index(run.spec, "A+")
        nodes = list(run.node_ids())
        streamed = list(all_pairs_iter(run, nodes, nodes, index))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == all_pairs_safe_query(run, nodes, nodes, index)

    def test_streaming_is_lazy(self):
        run = paper_run(recursion_depth=5)
        index = build_query_index(run.spec, "_* e _*")
        nodes = list(run.node_ids())
        iterator = all_pairs_iter(run, nodes, nodes, index)
        first = next(iterator)
        assert first in all_pairs_safe_query(run, nodes, nodes, index)

    def test_partial_lists_against_per_pair(self):
        spec = generate_synthetic_specification(150, seed=3, recursion_fraction=0.6)
        run = derive_run(spec, seed=3, target_edges=130)
        l1 = run.node_ids()[::2]
        l2 = run.node_ids()[1::3]
        for query in ("_*", "op1* op2*", "op3*"):
            if not is_safe_query(spec, query):
                continue
            index = build_query_index(spec, query)
            assert all_pairs_safe_query(run, l1, l2, index) == optrpl_all_pairs(
                run, l1, l2, index
            )


class TestDisjointDecoding:
    """Regression for the 'every reachable pair decoded exactly once'
    contract: duplicated input entries used to re-emit their pairs, which
    re-ran the pairwise decode on pairs that had already *failed* the filter
    (the results-set guard only skipped accepted pairs)."""

    def test_no_pair_decoded_twice_on_recursion_heavy_run(self):
        run = paper_run(recursion_depth=6)
        nodes = list(run.node_ids())
        l1 = nodes + nodes[:5]  # duplicated entries, as a caller may pass
        index = build_query_index(run.spec, "A")

        calls = Counter()

        def counting_filter(u, v):
            calls[(u, v)] += 1
            return answer_pairwise_query(index, run.label_of(u), run.label_of(v))

        result = optrpl_all_pairs(run, l1, nodes, index, decode=counting_filter)
        assert result == all_pairs_safe_query(run, nodes, nodes, index)
        assert calls, "the pair filter was never consulted"
        assert max(calls.values()) == 1, "a pair was decoded more than once"

    def test_duplicated_inputs_do_not_change_answers(self):
        spec = generate_synthetic_specification(150, seed=5, recursion_fraction=0.6)
        run = derive_run(spec, seed=5, target_edges=120)
        nodes = run.node_ids()
        index = build_query_index(spec, "_*")
        expected = all_pairs_safe_query(run, nodes, nodes, index)
        doubled = list(nodes) * 2
        assert all_pairs_safe_query(run, doubled, doubled, index) == expected
        streamed = list(all_pairs_iter(run, doubled, doubled, index))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == expected
        assert all_pairs_reachability(run, doubled, doubled) == all_pairs_reachability(
            run, nodes, nodes
        )
