"""Tests for the restriction-pushdown primitives of :mod:`repro.core.relations`
and the multi-source frontier sweep."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import determinize
from repro.automata.nfa import nfa_from_regex
from repro.automata.regex import Concat, Symbol, parse_regex
from repro.baselines.per_seed_frontier import per_seed_frontier_search
from repro.baselines.product_bfs import product_dfa
from repro.core.relations import (
    all_edge_relation,
    backward_closure_nodes,
    compose,
    evaluate_regex_relation,
    forward_closure_nodes,
    frontier_search,
    identity_relation,
    iter_frontier_search,
    reflexive_transitive_closure,
    restrict,
    restriction_universe,
    tag_relation,
    transitive_closure,
)
from repro.datasets.paper_example import paper_run

#: The macro symbol of the hand-built sweeps below.
_MACRO = "\x00M"

#: x -a-> y -b-> z, plus an isolated w last in the order.
_CHAIN = {"x": (("y", "a"),), "y": (("z", "b"),), "z": (), "w": ()}
_ORDER = ("x", "y", "z", "w")


def _targets(run, dfa, source, **kwargs):
    """The targets of a one-seed forward sweep from ``source``."""
    return {
        target
        for _, target in frontier_search(
            run.successors, dfa, [source], order=run.topological_order, **kwargs
        )
    }


def _dfa(*tags):
    """The DFA of the concatenation of ``tags`` over the chain's alphabet,
    with the wildcard kept off the macro symbol."""
    node = Concat(tuple(Symbol(tag) for tag in tags)) if len(tags) > 1 else Symbol(tags[0])
    return determinize(nfa_from_regex(node), {"a", "b", _MACRO}, wildcard_tags={"a", "b"})


class TestClosures:
    def test_forward_closure_includes_seeds(self):
        run = paper_run()
        seed = run.node_ids()[0]
        closure = forward_closure_nodes(run, [seed])
        assert seed in closure
        assert closure == run.reachable_from(seed) | {seed}

    def test_backward_closure_inverts_forward(self):
        run = paper_run()
        nodes = run.node_ids()
        for target in nodes[:6]:
            backward = backward_closure_nodes(run, [target])
            for source in nodes:
                assert (source in backward) == (
                    target in forward_closure_nodes(run, [source])
                )

    def test_unknown_seed_ids_are_dropped(self):
        run = paper_run()
        assert forward_closure_nodes(run, ["no-such-node"]) == frozenset()
        assert backward_closure_nodes(run, ["no-such-node"]) == frozenset()

    def test_restriction_universe(self):
        run = paper_run()
        nodes = run.node_ids()
        assert restriction_universe(run, None, None) is None
        assert restriction_universe(run, [nodes[0]], None) == forward_closure_nodes(
            run, [nodes[0]]
        )
        assert restriction_universe(run, None, [nodes[-1]]) == backward_closure_nodes(
            run, [nodes[-1]]
        )
        both = restriction_universe(run, [nodes[0]], [nodes[-1]])
        assert both == forward_closure_nodes(run, [nodes[0]]) & backward_closure_nodes(
            run, [nodes[-1]]
        )


class TestFrontierSearch:
    def test_matches_unpruned_search(self):
        run = paper_run(recursion_depth=3)
        dfa = product_dfa(run, "_* a _*")
        targets = set(run.node_ids())
        for source in run.node_ids():
            hits = _targets(run, dfa, source)
            allowed = forward_closure_nodes(run, [source])
            pruned = _targets(run, dfa, source, allowed=allowed)
            assert hits <= targets
            assert pruned == hits  # forward closure never cuts real answers

    def test_unknown_or_disallowed_source_is_empty(self):
        run = paper_run()
        dfa = product_dfa(run, "_*")
        assert _targets(run, dfa, "no-such-node") == set()
        some = run.node_ids()[0]
        assert _targets(run, dfa, some, allowed=frozenset()) == set()

    def test_nullable_query_accepts_source_itself(self):
        run = paper_run()
        dfa = product_dfa(run, "_*")
        source = run.node_ids()[0]
        assert source in _targets(run, dfa, source)

    def test_macro_transitions_follow_supplied_relation(self):
        run = paper_run(recursion_depth=2)
        # A DFA for the single macro symbol M: exactly one macro edge.
        from repro.automata.dfa import determinize
        from repro.automata.nfa import nfa_from_regex
        from repro.automata.regex import Symbol

        macro = "\x00M"
        dfa = determinize(nfa_from_regex(Symbol(macro)), set(run.tags()) | {macro},
                          wildcard_tags=set(run.tags()))
        relation = {}
        nodes = list(run.node_ids())
        relation[nodes[0]] = (nodes[3], nodes[4])
        hits = _targets(
            run, dfa, nodes[0],
            macro_successors={macro: lambda node: relation.get(node, ())},
        )
        assert hits == {nodes[3], nodes[4]}


class TestFrontierSweep:
    """The sweep on hand-built adjacencies, where every case is visible."""

    def test_duplicate_seeds_are_searched_once(self):
        pairs = frontier_search(_CHAIN, _dfa("a"), ["x", "x", "x"], order=_ORDER)
        assert pairs == [("x", "y")]

    def test_seeds_absent_or_disallowed_contribute_nothing(self):
        dfa = _dfa("a")
        assert frontier_search(_CHAIN, dfa, ["ghost"], order=_ORDER) == []
        assert frontier_search(
            _CHAIN, dfa, ["x", "ghost"], order=_ORDER, allowed={"y", "z"}
        ) == []
        # A pruned target also stops the search on its far side.
        assert frontier_search(_CHAIN, _dfa("a", "b"), ["x"], order=_ORDER) == [("x", "z")]
        assert frontier_search(
            _CHAIN, _dfa("a", "b"), ["x"], order=_ORDER, allowed={"x", "z"}
        ) == []

    def test_no_seeds_yield_nothing_and_read_no_order(self):
        def order():
            raise AssertionError("the sweep walked the order without seeds")
            yield  # pragma: no cover

        assert frontier_search(_CHAIN, _dfa("a"), [], order=order()) == []

    def test_backward_pairs_put_the_hit_first(self):
        reverse = {"y": (("x", "a"),), "z": (("y", "b"),), "x": (), "w": ()}
        reversed_dfa = _dfa("b", "a")  # "a b" read backward
        pairs = frontier_search(
            reverse, reversed_dfa, ["z"], order=reversed(_ORDER), forward=False
        )
        assert pairs == [("x", "z")]

    def test_emit_filter_keeps_only_listed_hits(self):
        star = determinize(
            nfa_from_regex(parse_regex("_*")), {"a", "b"}, wildcard_tags={"a", "b"}
        )
        every = frontier_search(_CHAIN, star, ["x", "y"], order=_ORDER)
        assert sorted(every) == [
            ("x", "x"), ("x", "y"), ("x", "z"), ("y", "y"), ("y", "z"),
        ]
        filtered = frontier_search(
            _CHAIN, star, ["x", "y"], order=_ORDER, emit_filter={"z"}
        )
        assert sorted(filtered) == [("x", "z"), ("y", "z")]

    def test_diagonal_macro_pairs_close_over_states(self):
        """A macro relation holding (x, x) — its subquery matched the empty
        path at x — lets 'M M a' take both macro steps without leaving x."""
        dfa = _dfa(_MACRO, _MACRO, "a")
        macros = {_MACRO: lambda node: (node,) if node == "x" else ()}
        pairs = frontier_search(
            _CHAIN, dfa, ["x"], order=_ORDER, macro_successors=macros
        )
        assert pairs == [("x", "y")]
        assert pairs == per_seed_frontier_search(
            _CHAIN, dfa, ["x"], macro_successors=macros
        )

    def test_macro_edges_expand_only_on_a_live_transition(self):
        expanded = []

        def expand(node):
            expanded.append(node)
            return ("z",) if node == "y" else ()

        pairs = frontier_search(
            _CHAIN, _dfa("a", _MACRO), ["x"], order=_ORDER,
            macro_successors={_MACRO: expand},
        )
        assert pairs == [("x", "z")]
        assert expanded == ["y"]  # x needs an 'a' first; z is accepting already

    def test_sweep_stops_after_the_last_live_node(self):
        order = iter(_ORDER)
        assert frontier_search(_CHAIN, _dfa("a"), ["x"], order=order) == [("x", "y")]
        assert list(order) == ["z", "w"]

    def test_pairs_stream_per_node_in_sweep_order(self):
        star = determinize(
            nfa_from_regex(parse_regex("_*")), {"a", "b"}, wildcard_tags={"a", "b"}
        )
        stream = iter_frontier_search(_CHAIN, star, ["x", "y"], order=_ORDER)
        assert next(stream) == ("x", "x")
        assert list(stream) == [("x", "y"), ("y", "y"), ("x", "z"), ("y", "z")]

    @pytest.mark.parametrize("query", ["_* a _*", "a* e", "(c | e) _*", "_"])
    def test_all_seeds_at_once_match_one_search_each(self, query):
        run = paper_run(recursion_depth=3)
        dfa = product_dfa(run, query)
        nodes = list(run.node_ids())
        swept = frontier_search(
            run.successors, dfa, nodes, order=run.topological_order
        )
        assert len(swept) == len(set(swept))
        assert set(swept) == {
            (source, target)
            for source in nodes
            for target in _targets(run, dfa, source)
        }
        assert set(swept) == set(
            per_seed_frontier_search(run.successors, dfa, nodes)
        )


# ---------------------------------------------------------------------------
# The set-based G1 relation algebra, pinned to its definitions
# ---------------------------------------------------------------------------

#: Ids of the random relations below; ``n5`` never appears in a pair.
_IDS = [f"n{index}" for index in range(6)]

_relations = st.sets(
    st.tuples(st.sampled_from(_IDS[:5]), st.sampled_from(_IDS[:5])), max_size=14
)
_node_lists = st.one_of(
    st.none(), st.lists(st.sampled_from([*_IDS, "ghost"]), max_size=6)
)


def _paths(relation, length):
    """Pairs joined by a walk of exactly ``length`` steps of ``relation``."""
    walks = {(node, node) for pair in relation for node in pair}
    for _ in range(length):
        walks = {
            (source, target)
            for source, middle in walks
            for step, target in relation
            if step == middle
        }
    return walks


class TestReferenceAlgebra:
    """The relation algebra behind the G1 baseline and the paper's
    evaluate-then-restrict scheme, which the oracle tests compare against."""

    def test_tag_and_all_edge_relations_are_the_run_edges(self):
        run = paper_run(recursion_depth=3)
        edges = {(edge.source, edge.target, edge.tag) for edge in run.edges}
        for tag in run.tags():
            assert tag_relation(run, tag) == {
                (source, target) for source, target, label in edges if label == tag
            }
        assert all_edge_relation(run) == {(source, target) for source, target, _ in edges}
        assert tag_relation(run, "no-such-tag") == set()

    @given(_relations, _relations)
    @settings(max_examples=60, deadline=None)
    def test_compose_matches_the_definition(self, left, right):
        assert compose(left, right) == {
            (source, target)
            for source, middle in left
            for step, target in right
            if step == middle
        }

    @given(_relations)
    @settings(max_examples=60, deadline=None)
    def test_transitive_closure_is_every_walk_of_one_or_more_steps(self, relation):
        # Five ids bound every simple path, so walks of length 1..5 suffice.
        walks = set().union(*(_paths(relation, length) for length in range(1, 6)))
        assert transitive_closure(relation) == walks

    @given(_relations, st.sets(st.sampled_from(_IDS)))
    @settings(max_examples=60, deadline=None)
    def test_reflexive_closure_adds_the_diagonal_of_the_universe(self, relation, nodes):
        assert reflexive_transitive_closure(relation, nodes) == (
            transitive_closure(relation) | {(node, node) for node in nodes}
        )
        assert identity_relation(nodes) == {(node, node) for node in nodes}

    @given(_relations, _node_lists, _node_lists)
    @settings(max_examples=60, deadline=None)
    def test_restrict_keeps_pairs_inside_the_lists(self, relation, l1, l2):
        expected = {
            (source, target)
            for source, target in relation
            if (l1 is None or source in l1) and (l2 is None or target in l2)
        }
        assert restrict(relation, l1, l2) == expected

    def test_union_is_the_union_of_its_parts(self):
        run = paper_run(recursion_depth=3)
        parts = ("c", "e", "a _", "A+")
        union = evaluate_regex_relation(run, parse_regex(" | ".join(f"({part})" for part in parts)))
        assert union == set().union(
            *(evaluate_regex_relation(run, parse_regex(part)) for part in parts)
        )
