"""Tests for the prior-work baselines: they must all agree with the oracle
(and therefore with each other and with the labeling engine)."""

import pytest

from repro.baselines.g1_parse_tree_joins import g1_all_pairs, g1_pairwise
from repro.baselines.g2_rare_labels import g2_all_pairs, g2_pairwise
from repro.baselines.g3_label_index import g3_all_pairs, g3_pairwise
from repro.baselines.paper_decomposition import paper_decomposition_all_pairs
from repro.baselines.per_seed_frontier import per_seed_all_pairs, per_seed_execute
from repro.baselines.product_bfs import product_bfs_all_pairs, product_bfs_pairwise
from repro.baselines.rpl_per_pair import optrpl_all_pairs, rpl_all_pairs
from repro.core.decomposition import evaluate_general_query, plan_decomposition
from repro.core.exec import build_physical_plan
from repro.core.query_index import build_query_index
from repro.datasets.index import EdgeTagIndex
from repro.datasets.myexperiment import bioaid_specification
from repro.datasets.paper_example import paper_run
from repro.datasets.runs import generate_run
from repro.errors import UnsupportedQueryError


@pytest.fixture(scope="module")
def run():
    return paper_run(recursion_depth=4)


@pytest.fixture(scope="module")
def index(run):
    return EdgeTagIndex.from_run(run)


QUERIES_FOR_ALL = ["_* e _*", "_* a _*", "_* a _* e _*", "A", "a A"]
IFQ_QUERIES = ["_*", "_* e _*", "_* a _*", "_* a _* A _*", "_* nonexistent _*"]


class TestProductBfs:
    def test_pairwise_known_answers(self, run):
        assert product_bfs_pairwise(run, "c:1", "b:1", "_* e _*")
        assert not product_bfs_pairwise(run, "c:1", "b:3", "_* e _*")

    def test_all_pairs_handles_sublists(self, run):
        result = product_bfs_all_pairs(run, ["c:1"], ["b:1", "b:3"], "_* e _*")
        assert result == {("c:1", "b:1")}

    def test_empty_path_included(self, run):
        result = product_bfs_all_pairs(run, ["c:1"], ["c:1"], "A*")
        assert result == {("c:1", "c:1")}


class TestG1:
    @pytest.mark.parametrize("query", QUERIES_FOR_ALL + ["a*", "(a | A)+"])
    def test_matches_oracle(self, run, query):
        expected = product_bfs_all_pairs(run, None, None, query)
        assert g1_all_pairs(run, None, None, query) == expected

    def test_pairwise(self, run):
        assert g1_pairwise(run, "d:2", "b:1", "A+")
        assert not g1_pairwise(run, "d:2", "b:1", "A")

    def test_restricted_lists(self, run):
        l1, l2 = ["d:1", "d:2"], ["b:1", "b:2"]
        expected = product_bfs_all_pairs(run, l1, l2, "A+")
        assert g1_all_pairs(run, l1, l2, "A+") == expected


class TestG2:
    @pytest.mark.parametrize("query", QUERIES_FOR_ALL)
    def test_matches_oracle(self, run, index, query):
        expected = product_bfs_all_pairs(run, None, None, query)
        assert g2_all_pairs(run, None, None, query, index=index) == expected

    def test_falls_back_without_rare_tag(self, run, index):
        # A bare Kleene star has no concatenation element to split at.
        expected = product_bfs_all_pairs(run, None, None, "a*")
        assert g2_all_pairs(run, None, None, "a*", index=index) == expected

    def test_pairwise(self, run, index):
        assert g2_pairwise(run, "c:1", "b:1", "_* e _*", index=index)
        assert not g2_pairwise(run, "c:1", "b:3", "_* e _*", index=index)

    def test_query_with_absent_tag(self, run, index):
        assert g2_all_pairs(run, None, None, "_* zzz _*", index=index) == set()


class TestG3:
    @pytest.mark.parametrize("query", IFQ_QUERIES)
    def test_matches_oracle(self, run, index, query):
        expected = product_bfs_all_pairs(run, None, None, query)
        assert g3_all_pairs(run, None, None, query, index=index) == expected

    def test_rejects_non_ifq(self, run, index):
        with pytest.raises(UnsupportedQueryError):
            g3_all_pairs(run, None, None, "a*", index=index)

    def test_pairwise(self, run, index):
        assert g3_pairwise(run, "c:1", "b:1", "_* e _*", index=index)
        assert not g3_pairwise(run, "c:1", "b:3", "_* e _*", index=index)

    def test_restricted_lists(self, run, index):
        l1 = ["d:1", "d:2", "e:2"]
        l2 = ["b:1", "b:2"]
        expected = product_bfs_all_pairs(run, l1, l2, "_* e _*")
        assert g3_all_pairs(run, l1, l2, "_* e _*", index=index) == expected


class TestPerPairDecodes:
    """Options S1 (RPL) and S2 (optRPL): the per-pair Algorithm-1 decode."""

    @pytest.mark.parametrize("query", ["_* e _*", "A+", "A", "c (a|b|A|B|e)* b"])
    def test_s1_and_s2_match_oracle(self, run, query):
        index = build_query_index(run.spec, query)
        nodes = list(run.node_ids())
        expected = product_bfs_all_pairs(run, nodes, nodes, query)
        assert rpl_all_pairs(run, nodes, nodes, index) == expected
        assert optrpl_all_pairs(run, nodes, nodes, index) == expected

    def test_duplicates_and_empty_lists(self, run):
        index = build_query_index(run.spec, "A+")
        nodes = list(run.node_ids())
        expected = product_bfs_all_pairs(run, nodes[:6], nodes, "A+")
        doubled = nodes[:6] * 2
        assert rpl_all_pairs(run, doubled, nodes, index) == expected
        assert optrpl_all_pairs(run, doubled, nodes, index) == expected
        assert rpl_all_pairs(run, [], nodes, index) == set()
        assert optrpl_all_pairs(run, nodes, [], index) == set()


class TestPaperDecomposition:
    """Section IV-B as published: labels for every safe subquery, whole-run
    joins for the rest, node lists applied last."""

    @pytest.mark.parametrize("query", ["_* a _*", "e", "(A)+ . e", "(c | e) _*", "_* e _*"])
    def test_matches_oracle(self, run, query):
        expected = product_bfs_all_pairs(run, None, None, query)
        assert paper_decomposition_all_pairs(run, None, None, query) == expected

    def test_restricted_lists_with_a_precomputed_plan(self, run):
        l1, l2 = ["c:1", "a:1", "d:2"], ["b:1", "b:3"]
        plan = plan_decomposition(run.spec, "(A)+ . e")
        expected = product_bfs_all_pairs(run, l1, l2, "(A)+ . e")
        assert paper_decomposition_all_pairs(run, l1, l2, "(A)+ . e", plan=plan) == expected


class TestOnBioAid:
    def test_all_engines_agree_on_a_realistic_run(self):
        spec = bioaid_specification()
        run = generate_run(spec, 150, seed=6)
        index = EdgeTagIndex.from_run(run)
        l1 = run.node_ids()[::6]
        l2 = run.node_ids()[::7]
        query = "_* f1_join _*"
        expected = product_bfs_all_pairs(run, l1, l2, query)
        assert g1_all_pairs(run, l1, l2, query) == expected
        assert g2_all_pairs(run, l1, l2, query, index=index) == expected
        assert g3_all_pairs(run, l1, l2, query, index=index) == expected


class TestPerSeedFrontier:
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("query", ["_* a _*", "_* a _* e _*", "a+ e", "(e)+ . (A|B)*"])
    def test_matches_oracle(self, run, query, direction):
        nodes = list(run.node_ids())
        l1, l2 = nodes[::2], nodes[1::3]
        expected = product_bfs_all_pairs(run, l1, l2, query)
        assert per_seed_all_pairs(run, l1, l2, query, direction=direction) == expected
        # ... and with the production sweep on the same frontier plan.
        relation = evaluate_general_query(run, query, l1, l2, direction=direction)
        assert relation.to_pairs(run.packed.interner) == tuple(sorted(expected))

    def test_rejects_a_plan_without_a_frontier_operator(self, run):
        plan = plan_decomposition(run.spec, "_* e _*")  # safe: a label decode
        physical = build_physical_plan(
            run, plan, None, None,
            indexes=lambda node: build_query_index(run.spec, node),
        )
        with pytest.raises(TypeError, match="frontier plan"):
            per_seed_execute(physical)
