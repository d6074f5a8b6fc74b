"""Tests for the derivation engine and run construction."""

import pytest

from repro.datasets.paper_example import W1, W2, W3, W4, paper_run, paper_specification
from repro.errors import DerivationError
from repro.workflow.derivation import Derivation, derive_run, min_completion_cost


class TestPaperRun:
    def test_node_set_matches_figure(self):
        run = paper_run()
        assert set(run.node_ids()) == {
            "c:1",
            "a:1",
            "a:2",
            "e:1",
            "e:2",
            "d:1",
            "d:2",
            "b:1",
            "b:2",
            "b:3",
        }
        assert run.node_count == 10

    def test_edge_set_matches_figure(self):
        run = paper_run()
        edges = {(edge.source, edge.target, edge.tag) for edge in run.edges}
        assert edges == {
            ("c:1", "a:1", "c"),
            ("c:1", "b:2", "c"),
            ("a:1", "a:2", "a"),
            ("a:2", "e:1", "a"),
            ("e:1", "e:2", "e"),
            ("e:2", "d:2", "A"),
            ("d:2", "d:1", "A"),
            ("d:1", "b:1", "A"),
            ("b:2", "b:3", "b"),
            ("b:3", "b:1", "B"),
        }

    def test_deeper_recursion(self):
        run = paper_run(recursion_depth=5)
        assert len(run.nodes_named("a")) == 5
        assert len(run.nodes_named("d")) == 5
        assert len(run.nodes_named("e")) == 2

    def test_zero_recursion(self):
        run = paper_run(recursion_depth=0)
        assert len(run.nodes_named("a")) == 0
        assert len(run.nodes_named("e")) == 2

    def test_run_summary(self):
        run = paper_run()
        assert "10 nodes" in run.describe()

    def test_known_ids_keep_listed_run_nodes_in_order(self):
        run = paper_run()
        assert run.known_ids(None) == run.node_ids()
        assert run.known_ids(["b:1", "ghost", "c:1"]) == ("b:1", "c:1")
        assert run.known_ids(["ghost"]) == ()


class TestDerivationStepping:
    def test_initial_state(self):
        derivation = Derivation(paper_specification())
        assert derivation.composite_nodes == ("S:1",)
        assert derivation.node_count == 1
        assert derivation.edge_count == 0
        assert not derivation.is_complete()

    def test_step_returns_new_ids_in_position_order(self):
        derivation = Derivation(paper_specification())
        new_ids = derivation.step("S:1", W1)
        assert new_ids == ("c:1", "A:1", "B:1", "b:1")

    def test_unknown_node_rejected(self):
        derivation = Derivation(paper_specification())
        with pytest.raises(DerivationError):
            derivation.step("nope:1", W1)

    def test_atomic_node_rejected(self):
        derivation = Derivation(paper_specification())
        derivation.step("S:1", W1)
        with pytest.raises(DerivationError):
            derivation.step("c:1", W2)

    def test_wrong_production_head_rejected(self):
        derivation = Derivation(paper_specification())
        derivation.step("S:1", W1)
        with pytest.raises(DerivationError):
            derivation.step("A:1", W4)  # W4 rewrites B, not A

    def test_production_index_out_of_range(self):
        derivation = Derivation(paper_specification())
        with pytest.raises(DerivationError):
            derivation.step("S:1", 99)

    def test_incomplete_run_cannot_be_frozen(self):
        derivation = Derivation(paper_specification())
        derivation.step("S:1", W1)
        with pytest.raises(DerivationError):
            derivation.to_run()

    def test_complete_after_all_replacements(self):
        derivation = Derivation(paper_specification())
        derivation.step("S:1", W1)
        derivation.step("A:1", W3)
        derivation.step("B:1", W4)
        assert derivation.is_complete()
        run = derivation.to_run()
        # c:1 and b:1 from W1, e:1/e:2 from W3, b:2/b:3 from W4.
        assert run.node_count == 6
        assert run.derivation_steps == 3

    def test_edges_rewired_through_replacement(self):
        derivation = Derivation(paper_specification())
        derivation.step("S:1", W1)
        derivation.step("A:1", W3)  # A:1 becomes e:1 -> e:2
        derivation.step("B:1", W4)
        run = derivation.to_run()
        edges = {(edge.source, edge.target, edge.tag) for edge in run.edges}
        assert ("c:1", "e:1", "c") in edges
        assert ("e:2", "b:1", "A") in edges


class TestDeriveRun:
    def test_deterministic_given_seed(self):
        spec = paper_specification()
        first = derive_run(spec, seed=7, target_edges=60)
        second = derive_run(spec, seed=7, target_edges=60)
        assert set(first.node_ids()) == set(second.node_ids())
        assert {(e.source, e.target, e.tag) for e in first.edges} == {
            (e.source, e.target, e.tag) for e in second.edges
        }

    def test_different_seeds_differ(self):
        # Needs a specification with real derivation choices; the paper's tiny
        # example only recurses through A, so its runs of equal size coincide.
        from repro.datasets.synthetic import generate_synthetic_specification

        spec = generate_synthetic_specification(300, seed=0)
        first = derive_run(spec, seed=1, target_edges=150)
        second = derive_run(spec, seed=2, target_edges=150)
        assert {(e.source, e.target) for e in first.edges} != {
            (e.source, e.target) for e in second.edges
        }

    def test_target_edges_is_roughly_respected(self):
        spec = paper_specification()
        for target in (50, 150, 400):
            run = derive_run(spec, seed=3, target_edges=target)
            assert run.edge_count >= target
            assert run.edge_count <= target + spec.size() * 3

    def test_runs_are_dags(self):
        spec = paper_specification()
        run = derive_run(spec, seed=5, target_edges=120)
        order = run.topological_order
        assert len(order) == run.node_count
        position = {node: index for index, node in enumerate(order)}
        assert all(position[edge.source] < position[edge.target] for edge in run.edges)
        assert run.topological_order is order  # computed once per run

    def test_all_run_nodes_are_atomic(self):
        spec = paper_specification()
        run = derive_run(spec, seed=5, target_edges=120)
        assert all(node.name in spec.atomic_modules for node in run)

    def test_preferred_productions_bias_growth(self):
        spec = paper_specification()
        fast = derive_run(
            spec, seed=9, target_edges=100, preferred_productions=(W2,), recursion_bias=0.95
        )
        assert len(fast.nodes_named("a")) > 10


class TestMinCompletionCost:
    def test_paper_example_costs(self):
        spec = paper_specification()
        costs = min_completion_cost(spec)
        assert costs["a"] == 0
        # A's cheapest completion is W3 (body "e e" with one edge).
        assert costs["A"] == 1
        assert costs["B"] == 1
        # S -> W1 has 4 edges plus the completions of A and B.
        assert costs["S"] == 4 + costs["A"] + costs["B"]
