"""Tests for the cost-model strategy selector (future-work extension)."""

from repro.automata.regex import parse_regex
from repro.core.optimizer import CostModel, ifq_tags
from repro.datasets.index import EdgeTagIndex
from repro.datasets.paper_example import paper_run


class TestIfqDetection:
    def test_recognizes_ifq_shapes(self):
        assert ifq_tags(parse_regex("_*")) == []
        assert ifq_tags(parse_regex("_* a _*")) == ["a"]
        assert ifq_tags(parse_regex("_* a _* b _*")) == ["a", "b"]

    def test_rejects_non_ifq_shapes(self):
        assert ifq_tags(parse_regex("a")) is None
        assert ifq_tags(parse_regex("a b")) is None
        assert ifq_tags(parse_regex("a*")) is None
        assert ifq_tags(parse_regex("(a | b) _*")) is None
        assert ifq_tags(parse_regex("_* (a b) _*")) is None
        assert ifq_tags(parse_regex("_* a")) is None
        assert ifq_tags(parse_regex("a _*")) is None


class TestRelationEstimates:
    def test_leaf_estimates_are_exact(self):
        from repro.core.optimizer import estimate_relation_size

        run = paper_run(recursion_depth=4)
        assert estimate_relation_size(run, parse_regex("a")) == 4  # four a-tagged edges
        assert estimate_relation_size(run, parse_regex("_")) == run.edge_count
        assert estimate_relation_size(run, parse_regex("~")) == run.node_count

    def test_union_and_concat_estimates(self):
        from repro.core.optimizer import estimate_relation_size

        run = paper_run(recursion_depth=4)
        single = estimate_relation_size(run, parse_regex("a"))
        union = estimate_relation_size(run, parse_regex("a | A"))
        assert union >= single
        concat = estimate_relation_size(run, parse_regex("a . a"))
        assert concat <= single * single

    def test_star_estimate_grows_with_frequency(self):
        from repro.core.optimizer import estimate_relation_size

        run = paper_run(recursion_depth=8)
        rare = estimate_relation_size(run, parse_regex("e*"))
        frequent = estimate_relation_size(run, parse_regex("a*"))
        assert frequent > rare

    def test_join_cost_exceeds_size(self):
        from repro.core.optimizer import estimate_join_cost, estimate_relation_size

        run = paper_run(recursion_depth=6)
        for query in ("a*", "_* a _*", "(a | A)+"):
            node = parse_regex(query)
            assert estimate_join_cost(run, node) >= estimate_relation_size(run, node)

    def test_label_cost_scales_quadratically(self):
        from repro.core.optimizer import estimate_label_all_pairs_cost

        assert estimate_label_all_pairs_cost(200) > 3 * estimate_label_all_pairs_cost(100)


class TestCostModel:
    def make_model(self):
        run = paper_run(recursion_depth=6)
        return run, CostModel(run.spec, EdgeTagIndex.from_run(run))

    def test_highly_selective_ifq_prefers_g3(self):
        run, model = self.make_model()
        # Tag "e" occurs exactly once per run; the join chain is tiny.
        choice = model.choose(
            "_* e _*", input_pairs=run.node_count**2, run_edges=run.edge_count
        )
        assert choice.strategy == "G3"

    def test_lowly_selective_query_prefers_labels(self):
        run, model = self.make_model()
        # With a tiny candidate set, decoding a handful of pairs beats both
        # the join chain and a run traversal.
        choice = model.choose("_* a _* A _*", input_pairs=4, run_edges=run.edge_count)
        assert choice.strategy in {"optRPL", "decomposition"}

    def test_kleene_star_prefers_labels(self):
        run, model = self.make_model()
        choice = model.choose("a*", input_pairs=100, run_edges=run.edge_count)
        assert choice.strategy in {"optRPL", "decomposition"}

    def test_g3_unavailable_for_non_ifq(self):
        run, model = self.make_model()
        assert model.estimate_g3("a*", input_pairs=10) is None

    def test_zero_count_tag_short_circuits(self):
        run, model = self.make_model()
        estimate = model.estimate_g3("_* nonexistent _*", input_pairs=10)
        assert estimate is not None
        assert estimate.cost == 1.0
