"""The whole-program semantic layer: call graph, lock-order graph, effect
inference — on fixtures with known shapes and on the real tree.  That the
real tree stays deadlock-free and planner-pure is asserted once, through
the REP108/REP109 rules (``test_rules.py::TestRepositoryIsClean``)."""

from pathlib import Path

import pytest

from repro.analysis.project import load_project
from repro.analysis.semantic import (
    build_call_graph,
    build_semantic_model,
)

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def project(*names: str):
    return load_project([FIXTURES / name for name in names], root=FIXTURES)


class TestCallGraph:
    def test_method_calls_resolve_through_annotations(self):
        graph = build_call_graph(project("rep108_bad.py"))
        edges = {(site.caller, site.callee) for site in graph.calls}
        assert (
            "fixtures.rep108_bad:A.one",
            "fixtures.rep108_bad:B.two",
        ) in edges
        assert (
            "fixtures.rep108_bad:B.three",
            "fixtures.rep108_bad:A.four",
        ) in edges

    def test_cross_module_imports_resolve(self):
        graph = build_call_graph(project("rep109_bad.py", "rep109_helpers.py"))
        edges = {(site.caller, site.callee) for site in graph.calls}
        assert (
            "fixtures.rep109_planner:plan_order",
            "fixtures.rep109_helpers:stamp",
        ) in edges

    def test_call_sites_carry_their_lock_context(self):
        graph = build_call_graph(project("rep101_xcall_bad.py"))
        sites = {
            site.caller: site
            for site in graph.calls
            if site.callee == "fixtures.rep101_xcall_bad:Registry._insert"
        }
        add = sites["fixtures.rep101_xcall_bad:Registry.add"]
        fast = sites["fixtures.rep101_xcall_bad:Registry.add_fast"]
        assert "_lock" in add.bare_held
        assert "_lock" not in fast.bare_held

    def test_holds_lock_annotations_are_read(self):
        graph = build_call_graph(project("rep101_xcall_bad.py"))
        info = graph.functions["fixtures.rep101_xcall_bad:Registry._insert"]
        assert tuple(info.holds_locks) == ("_lock",)

    def test_guarded_classes_are_collected_for_the_sanitizer(self):
        graph = build_call_graph(project("rep101_xcall_bad.py"))
        guarded = graph.guarded_classes["fixtures.rep101_xcall_bad:Registry"]
        assert guarded.guards == {"_items": "_lock"}


class TestLockGraph:
    def test_opposite_orders_make_a_cycle(self):
        model = build_semantic_model(project("rep108_bad.py"))
        assert not model.lock_graph.acyclic
        assert [list(cycle) for cycle in model.lock_graph.cycles] == [
            ["A._lock_a", "B._lock_b"]
        ]

    def test_consistent_order_is_acyclic_with_one_edge(self):
        model = build_semantic_model(project("rep108_good.py"))
        assert model.lock_graph.acyclic
        edges = {(edge.source, edge.target) for edge in model.lock_graph.edges}
        assert edges == {("A._lock_a", "B._lock_b")}

    def test_edges_carry_a_human_readable_witness(self):
        model = build_semantic_model(project("rep108_good.py"))
        (edge,) = model.lock_graph.edges
        assert "A.one" in edge.witness
        assert "acquires" in edge.witness or "calls" in edge.witness


class TestEffects:
    def test_clock_effect_propagates_along_calls(self):
        model = build_semantic_model(project("rep109_bad.py", "rep109_helpers.py"))
        planner = "fixtures.rep109_planner:plan_order"
        helper = "fixtures.rep109_helpers:stamp"
        assert "clock" in model.direct_effects[helper]
        assert "clock" not in model.direct_effects[planner]
        assert "clock" in model.effects[planner]

    def test_witness_names_the_shortest_path(self):
        model = build_semantic_model(project("rep109_bad.py", "rep109_helpers.py"))
        witness = model.witness("fixtures.rep109_planner:plan_order", "clock")
        assert witness == [
            "fixtures.rep109_planner:plan_order",
            "fixtures.rep109_helpers:stamp",
        ]

    def test_pure_chain_has_no_effects(self):
        model = build_semantic_model(project("rep109_good.py", "rep109_helpers.py"))
        assert model.effects["fixtures.rep109_planner:plan_order"] == frozenset()


class TestRealTree:
    """The model of the repository itself is built whole: its known lock
    hierarchy and every graph dimension are present."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_semantic_model(load_project([SRC], root=SRC.parent.parent))

    def test_known_lock_hierarchy_is_present(self, model):
        edges = {(edge.source, edge.target) for edge in model.lock_graph.edges}
        assert ("IndexCache._build_locks", "IndexCache._lock") in edges

    def test_store_lock_is_innermost(self, model):
        """The store coordinates writers through its content-addressed skip
        alone: nothing is acquired while a store lock is held."""
        assert not [
            edge for edge in model.lock_graph.edges if edge.source.startswith("IndexStore.")
        ]

    def test_every_graph_dimension_is_populated(self, model):
        assert model.graph.modules > 50
        assert len(model.graph.functions) > 500
        assert len(model.graph.calls) > 1000
        assert len(model.lock_graph.locks) >= 8
