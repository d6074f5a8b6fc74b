"""Property-based round-trip tests for the persistent store.

Hypothesis generates random queries over a few cached specifications; each
query's cache entry is built through a store-backed cache, reloaded by a
*fresh* cache in the same store, and the reloaded artifacts must be
behaviorally identical to freshly built ones: same safety verdict, same DFA,
same all-pairs answers for safe and unsafe queries — with zero
safety checks, index builds or plan builds after the restart.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.regex import canonicalize_regex, parse_regex, regex_to_string
from repro.core.engine import ProvenanceQueryEngine
from repro.datasets.paper_example import paper_specification
from repro.datasets.synthetic import generate_synthetic_specification
from repro.service import IndexCache
from repro.store import IndexStore
from repro.workflow.derivation import derive_run

_SPECS = {
    "paper": paper_specification(),
    "synthetic": generate_synthetic_specification(120, seed=1),
}
_RUNS = {name: derive_run(spec, seed=0, target_edges=60) for name, spec in _SPECS.items()}


@st.composite
def spec_and_query(draw):
    name = draw(st.sampled_from(sorted(_SPECS)))
    spec = _SPECS[name]
    tags = sorted(spec.tags)

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
    return name, spec, query


class TestStoreRoundTrip:
    @given(spec_and_query())
    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    def test_reloaded_entries_answer_identically(self, data):
        name, spec, query = data
        run = _RUNS[name]
        with tempfile.TemporaryDirectory() as tmp:
            builder = IndexCache(store=IndexStore(tmp))
            safe = builder.safety(spec, query).is_safe
            if safe:
                builder.index(spec, query)
            else:
                builder.plan(spec, query)

            restored = IndexCache(store=IndexStore(tmp))
            assert restored.safety(spec, query).is_safe == safe
            reference = ProvenanceQueryEngine(spec)  # store-free fresh build
            engine = ProvenanceQueryEngine(spec, cache=restored)
            if safe:
                expected = reference.evaluate(run, query)
                assert engine.evaluate(run, query) == expected
            else:
                plan = restored.plan(spec, query)
                fresh_plan = reference.plan(query)
                assert plan.root == fresh_plan.root
                assert plan.safe_subtrees == fresh_plan.safe_subtrees
                assert engine.evaluate(run, query) == reference.evaluate(run, query)
            stats = restored.stats
            assert stats.safety_checks == 0
            assert stats.index_builds == 0
            assert stats.plan_builds == 0
            assert stats.store_errors == 0

    @given(spec_and_query())
    @settings(max_examples=50, deadline=None)
    def test_canonical_trees_render_parse_stably(self, data):
        """The plan codec stores syntax trees as query text; canonical trees
        (the only ones the cache ever plans) must round-trip to equal trees,
        subtrees included."""
        _, _, query = data
        canonical = canonicalize_regex(parse_regex(query))
        stack = [canonical]
        while stack:
            node = stack.pop()
            assert parse_regex(regex_to_string(node)) == node
            stack.extend(node.children())
