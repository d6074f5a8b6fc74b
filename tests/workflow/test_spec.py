"""Tests for specifications and the production graph."""

import gc
import weakref

import pytest

from repro.datasets.paper_example import paper_specification
from repro.errors import RecursionError_, SpecificationError
from repro.workflow.serialization import specification_from_dict, specification_to_dict
from repro.workflow.simple import chain
from repro.workflow.spec import Production, Specification


class TestPaperSpecification:
    def test_module_partition(self):
        spec = paper_specification()
        assert spec.start == "S"
        assert spec.composite_modules == {"S", "A", "B"}
        assert spec.atomic_modules == {"a", "b", "c", "d", "e"}
        assert spec.modules == {"S", "A", "B", "a", "b", "c", "d", "e"}

    def test_productions_of(self):
        spec = paper_specification()
        assert spec.productions_of["S"] == (0,)
        assert spec.productions_of["A"] == (1, 2)
        assert spec.productions_of["B"] == (3,)

    def test_size_measure(self):
        # size = sum over productions of (1 + body length) = 5 + 4 + 3 + 3
        assert paper_specification().size() == 15

    def test_tags(self):
        assert paper_specification().tags == {"a", "b", "c", "e", "A", "B"}

    def test_recursion_analysis(self):
        spec = paper_specification()
        graph = spec.production_graph
        assert spec.recursive_modules == {"A"}
        assert graph.is_strictly_linear_recursive
        assert len(graph.cycles) == 1
        cycle = graph.cycles[0]
        assert cycle.modules == ("A",)
        assert cycle.productions == (1,)  # W2 is the recursive production
        assert cycle.positions == (1,)  # A sits at position 1 of W2's body
        assert graph.recursive_productions == {1}

    def test_cycle_lookups(self):
        graph = paper_specification().production_graph
        assert graph.cycle_of("A").index == 0
        assert graph.cycle_of("B") is None
        assert graph.cycle_offset_of("A") == 0

    def test_describe_mentions_key_facts(self):
        text = paper_specification().describe()
        assert "start module : S" in text
        assert "productions  : 4" in text


class TestLifetime:
    def test_freed_without_the_cycle_collector(self):
        # The specification caches its production graph; the graph must not
        # point back, or every specification a process loads lives on until
        # a full collection.
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            spec = specification_from_dict(specification_to_dict(paper_specification()))
            assert spec.recursive_modules == {"A"} and spec.fingerprint
            freed = weakref.ref(spec)
            del spec
            assert freed() is None
        finally:
            if was_enabled:
                gc.enable()


class TestValidation:
    def test_start_module_must_be_composite(self):
        with pytest.raises(SpecificationError, match="start module"):
            Specification(start="X", productions=[Production("S", chain(["a", "b"]))])

    def test_atomic_declaration_conflicts_with_productions(self):
        with pytest.raises(SpecificationError, match="declared atomic"):
            Specification(
                start="S",
                productions=[Production("S", chain(["a", "b"]))],
                atomic_modules=["S"],
            )

    def test_unproductive_module_rejected(self):
        # A can only rewrite to something containing A: it never terminates.
        with pytest.raises(SpecificationError, match="terminate"):
            Specification(
                start="S",
                productions=[
                    Production("S", chain(["x", "A", "y"])),
                    Production("A", chain(["p", "A", "q"])),
                ],
            )

    def test_needs_at_least_one_production(self):
        with pytest.raises(SpecificationError):
            Specification(start="S", productions=[])

    def test_non_strictly_linear_recursion_rejected(self):
        # The Fig. 5 pattern: two cycles through S (S -> a S, S -> S b ... ):
        # here S occurs twice in one body, giving two parallel cycle edges.
        with pytest.raises(RecursionError_):
            Specification(
                start="S",
                productions=[
                    Production("S", chain(["x", "S", "y", "S", "z"])),
                    Production("S", chain(["x", "z"])),
                ],
            )

    def test_two_cycles_sharing_a_module_rejected(self):
        # S -> ... S ... directly, and also S -> A ..., A -> ... S ...:
        # the SCC {S, A} is not a simple cycle.
        with pytest.raises(RecursionError_):
            Specification(
                start="S",
                productions=[
                    Production("S", chain(["x", "S", "y"])),
                    Production("S", chain(["x", "A", "y"])),
                    Production("S", chain(["x", "y"])),
                    Production("A", chain(["p", "S", "q"])),
                    Production("A", chain(["p", "q"])),
                ],
            )

    def test_disjoint_cycles_accepted(self):
        spec = Specification(
            start="S",
            productions=[
                Production("S", chain(["x", "A", "B", "y"])),
                Production("A", chain(["p", "A", "q"])),
                Production("A", chain(["p", "q"])),
                Production("B", chain(["r", "B", "t"])),
                Production("B", chain(["r", "t"])),
            ],
        )
        assert spec.recursive_modules == {"A", "B"}
        assert len(spec.production_graph.cycles) == 2

    def test_two_module_cycle_accepted(self):
        spec = Specification(
            start="S",
            productions=[
                Production("S", chain(["x", "A", "y"])),
                Production("A", chain(["p", "B", "q"])),
                Production("B", chain(["r", "A", "t"])),
                Production("B", chain(["r", "t"])),
            ],
        )
        graph = spec.production_graph
        assert graph.is_strictly_linear_recursive
        assert len(graph.cycles) == 1
        cycle = graph.cycles[0]
        assert set(cycle.modules) == {"A", "B"}
        assert len(cycle) == 2
        # Walking the cycle from A via its step info leads to B and back.
        offset_a = cycle.offset_of("A")
        production_index, position = cycle.step(offset_a)
        assert spec.production(production_index).head == "A"
        assert spec.production(production_index).body.module_at(position) == "B"

    def test_non_recursive_specification(self):
        spec = Specification(
            start="S",
            productions=[
                Production("S", chain(["x", "T", "y"])),
                Production("T", chain(["p", "q"])),
            ],
        )
        assert not spec.is_recursive()
        assert spec.production_graph.cycles == ()


class TestCycleHelpers:
    def test_chain_offset_wraps_around(self):
        spec = Specification(
            start="S",
            productions=[
                Production("S", chain(["x", "A", "y"])),
                Production("A", chain(["p", "B", "q"])),
                Production("B", chain(["r", "A", "t"])),
                Production("B", chain(["r", "t"])),
            ],
        )
        cycle = spec.production_graph.cycles[0]
        start = cycle.offset_of("A")
        assert cycle.module_at(cycle.chain_offset(start, 0)) == "A"
        assert cycle.module_at(cycle.chain_offset(start, 1)) == "B"
        assert cycle.module_at(cycle.chain_offset(start, 2)) == "A"
        assert cycle.module_at(cycle.chain_offset(start, 5)) == "B"


class TestFingerprint:
    def test_stable_across_instances(self):
        assert paper_specification().fingerprint == paper_specification().fingerprint

    def test_survives_serialization_round_trip(self):
        spec = paper_specification()
        reloaded = specification_from_dict(specification_to_dict(spec))
        assert reloaded.fingerprint == spec.fingerprint

    def test_name_does_not_affect_fingerprint(self):
        spec = paper_specification()
        renamed = Specification(
            start=spec.start,
            productions=spec.productions,
            atomic_modules=spec.atomic_modules,
            name="renamed",
        )
        assert renamed.fingerprint == spec.fingerprint

    def test_different_grammars_differ(self):
        first = Specification(start="S", productions=[Production("S", chain(["a", "b"]))])
        second = Specification(start="S", productions=[Production("S", chain(["a", "c"]))])
        assert first.fingerprint != second.fingerprint
