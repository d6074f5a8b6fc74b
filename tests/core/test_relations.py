"""Tests for the restriction-pushdown universe of :mod:`repro.core.relations`
and the multi-source frontier sweep on the run's integer view.

The differential properties run on Hypothesis-drawn runs of a synthetic
grammar with recursion and of the bioaid and qblast grammars: the flag-pass
universe against set-based reachability, and the sweep — both directions,
with a pruning universe, an emit filter and one macro relation whose
subquery may match the empty path — against the per-seed search and the
product-automaton oracle.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.dfa import determinize
from repro.automata.minimize import minimize_dfa
from repro.automata.nfa import nfa_from_regex
from repro.automata.regex import Concat, Symbol, parse_regex
from repro.baselines.per_seed_frontier import per_seed_frontier_search
from repro.baselines.product_bfs import product_bfs_all_pairs, product_dfa
from repro.core.bitset import NodeInterner, PackedRunView
from repro.core.relations import (
    all_edge_relation,
    compose,
    evaluate_regex_relation,
    frontier_search,
    identity_relation,
    reflexive_transitive_closure,
    restrict,
    restriction_universe,
    tag_relation,
    transitive_closure,
)
from repro.datasets.myexperiment import bioaid_specification, qblast_specification
from repro.datasets.paper_example import paper_run
from repro.datasets.synthetic import generate_synthetic_specification
from repro.obs import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.workflow.derivation import derive_run

#: The macro symbol of the hand-built sweeps below.
_MACRO = "\x00M"

_GHOST = "no-such-node"

_DIFF_RUNS = [
    derive_run(spec, seed=seed, target_edges=edges)
    for spec, edges in (
        (generate_synthetic_specification(60, seed=5, recursion_fraction=0.5), 80),
        (bioaid_specification(), 70),
        (qblast_specification(), 70),
    )
    for seed in (0, 1)
]

_DIFF_SETTINGS = dict(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
)


def _flags(view, node_ids):
    """One flag byte per position, set on the known ids (``None`` stays)."""
    if node_ids is None:
        return None
    flags = bytearray(len(view.interner))
    for position in view.interner.positions(node_ids):
        flags[position] = 1
    return bytes(flags)


def _id_set(view, flags):
    if flags is None:
        return None
    return {node for node, flag in zip(view.interner.ids, flags) if flag}


def _reachable(run, seeds, forward=True):
    """Set-based reachability over the run's string adjacency, seeds included
    (ids absent from the run are dropped)."""
    adjacency = run.successors if forward else run.predecessors
    reached = {seed for seed in seeds if seed in run}
    stack = list(reached)
    while stack:
        for neighbour, _ in adjacency[stack.pop()]:
            if neighbour not in reached:
                reached.add(neighbour)
                stack.append(neighbour)
    return reached


def _swept(view, *args, **kwargs):
    """A sweep's packed answer, unpacked in sorted order."""
    return list(frontier_search(view, *args, **kwargs).to_pairs(view.interner))


def _targets(run, dfa, source, allowed=None, **kwargs):
    """The targets of a one-seed forward sweep from ``source``."""
    view = run.packed
    return {
        target
        for _, target in _swept(
            view, dfa, view.interner.positions([source]),
            allowed=_flags(view, allowed), **kwargs,
        )
    }


@st.composite
def run_and_lists(draw):
    """A generated run plus two node lists: ``None``, empty, duplicated, or
    naming ids absent from the run."""
    run = draw(st.sampled_from(_DIFF_RUNS))
    nodes = list(run.node_ids())

    def node_list():
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return None
        if kind == 1:
            return []
        count = draw(st.integers(1, 8))
        picked = [nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(count)]
        if kind == 2:
            picked += [_GHOST, picked[0]]
        return picked

    return run, node_list(), node_list()


class TestRestrictionUniverse:
    @given(run_and_lists())
    @settings(**_DIFF_SETTINGS)
    def test_flag_passes_match_set_based_reachability(self, data):
        """Forward-reachable from ``l1`` ∩ backward-reachable from ``l2``,
        with ``None`` for a side meaning unconstrained and ``None`` returned
        exactly when every node is allowed."""
        run, l1, l2 = data
        universe = restriction_universe(run, l1, l2)
        expected = set(run.node_ids())
        if l1 is not None:
            expected &= _reachable(run, l1)
        if l2 is not None:
            expected &= _reachable(run, l2, forward=False)
        if expected == set(run.node_ids()):
            assert universe is None
        else:
            assert len(universe) == run.node_count
            assert _id_set(run.packed, universe) == expected

    def test_unconstrained_and_unknown_sides(self):
        run = paper_run()
        nodes = run.node_ids()
        assert restriction_universe(run, None, None) is None
        nothing = restriction_universe(run, [_GHOST], None)
        assert nothing == bytes(run.node_count)
        assert restriction_universe(run, None, [_GHOST, _GHOST]) == nothing
        # Every node as a source: the forward side covers the whole run.
        assert restriction_universe(run, nodes, None) is None
        one = restriction_universe(run, [nodes[0], _GHOST, nodes[0]], [nodes[-1]])
        assert _id_set(run.packed, one) == (
            _reachable(run, [nodes[0]]) & _reachable(run, [nodes[-1]], forward=False)
        )


def _chain_view():
    """x -a-> y -b-> z, plus an isolated w last, as a hand-built view."""
    successors = (((1, 0),), ((2, 1),), (), ())
    predecessors = ((), ((0, 0),), ((1, 1),), ())
    return PackedRunView(NodeInterner(["x", "y", "z", "w"]), ("a", "b"), successors, predecessors)


_CHAIN = _chain_view()
_X, _Y, _Z, _W = range(4)


def _dfa(*tags):
    """The DFA of the concatenation of ``tags`` over the chain's alphabet,
    with the wildcard kept off the macro symbol."""
    node = Concat(tuple(Symbol(tag) for tag in tags)) if len(tags) > 1 else Symbol(tags[0])
    return determinize(nfa_from_regex(node), {"a", "b", _MACRO}, wildcard_tags={"a", "b"})


def _star():
    return determinize(nfa_from_regex(parse_regex("_*")), {"a", "b"}, wildcard_tags={"a", "b"})


def _chain_flags(*positions):
    flags = bytearray(4)
    for position in positions:
        flags[position] = 1
    return bytes(flags)


class TestFrontierSearch:
    def test_matches_unpruned_search(self):
        run = paper_run(recursion_depth=3)
        dfa = product_dfa(run, "_* a _*")
        targets = set(run.node_ids())
        for source in run.node_ids():
            hits = _targets(run, dfa, source)
            pruned = _targets(run, dfa, source, allowed=_reachable(run, [source]))
            assert hits <= targets
            assert pruned == hits  # forward closure never cuts real answers

    def test_disallowed_source_is_empty(self):
        run = paper_run()
        dfa = product_dfa(run, "_*")
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
        dfa = determinize(nfa_from_regex(Symbol(_MACRO)), set(run.tags()) | {_MACRO},
                          wildcard_tags=set(run.tags()))
        interner = run.packed.interner
        first, third, fourth = (interner.ids[position] for position in (0, 3, 4))
        hits = _targets(
            run, dfa, first,
            macros={_MACRO: lambda node: (3, 4) if node == 0 else ()},
        )
        assert hits == {third, fourth}


class TestFrontierSweep:
    """The sweep on a hand-built view, where every case is visible."""

    def test_duplicate_seeds_are_searched_once(self):
        pairs = _swept(_CHAIN, _dfa("a"), [_X, _X, _X])
        assert pairs == [("x", "y")]

    def test_disallowed_seeds_contribute_nothing(self):
        dfa = _dfa("a")
        assert _swept(_CHAIN, dfa, [_X], allowed=_chain_flags(_Y, _Z)) == []
        # A pruned target also stops the search on its far side.
        assert _swept(_CHAIN, _dfa("a", "b"), [_X]) == [("x", "z")]
        assert _swept(
            _CHAIN, _dfa("a", "b"), [_X], allowed=_chain_flags(_X, _Z)
        ) == []

    def test_no_seeds_yield_nothing(self):
        assert _swept(_CHAIN, _dfa("a"), []) == []

    def test_backward_pairs_put_the_hit_first(self):
        reversed_dfa = _dfa("b", "a")  # "a b" read backward
        pairs = _swept(_CHAIN, reversed_dfa, [_Z], forward=False)
        assert pairs == [("x", "z")]

    def test_emit_filter_keeps_only_flagged_hits(self):
        every = _swept(_CHAIN, _star(), [_X, _Y])
        assert every == [
            ("x", "x"), ("x", "y"), ("x", "z"), ("y", "y"), ("y", "z"),
        ]
        filtered = _swept(_CHAIN, _star(), [_X, _Y], emit_filter=_chain_flags(_Z))
        assert filtered == [("x", "z"), ("y", "z")]

    def test_diagonal_macro_pairs_close_over_states(self):
        """A macro relation holding (x, x) — its subquery matched the empty
        path at x — lets 'M M a' take both macro steps without leaving x."""
        dfa = _dfa(_MACRO, _MACRO, "a")
        pairs = _swept(
            _CHAIN, dfa, [_X], macros={_MACRO: lambda node: (node,) if node == _X else ()}
        )
        assert pairs == [("x", "y")]
        chain = {"x": (("y", "a"),), "y": (("z", "b"),), "z": (), "w": ()}
        assert pairs == per_seed_frontier_search(
            chain, dfa, ["x"],
            macro_successors={_MACRO: lambda node: (node,) if node == "x" else ()},
        )

    def test_macro_edges_expand_only_on_a_live_transition(self):
        expanded = []

        def expand(node):
            expanded.append(node)
            return (_Z,) if node == _Y else ()

        pairs = _swept(
            _CHAIN, _dfa("a", _MACRO), [_X], macros={_MACRO: expand}
        )
        assert pairs == [("x", "z")]
        assert expanded == [_Y]  # x needs an 'a' first; z is accepting already

    def test_sweep_reports_the_nodes_it_visited(self):
        """The sweep stops after the last live node: from x under 'a' it
        visits x and y, never z or w."""
        span = Tracer(registry=MetricsRegistry())
        with span.span("sweep") as open_span:
            assert _swept(_CHAIN, _dfa("a"), [_X], span=open_span) == [("x", "y")]
        assert open_span.attrs["visited"] == 2
        with span.span("sweep") as open_span:
            assert _swept(_CHAIN, _dfa("a"), [], span=open_span) == []
        assert open_span.attrs["visited"] == 0

    def test_dense_rows_are_built_once_per_dfa(self):
        dfa = _dfa("a", _MACRO)
        rows = _CHAIN.dense_dfa(dfa, (_MACRO,))
        assert _CHAIN.dense_dfa(dfa, (_MACRO,)) is rows
        assert _CHAIN.dense_dfa(dfa) is not rows
        transitions, accepting = rows
        # Symbol ids: a = 0, b = 1, then the macro symbol = 2.
        after_a = transitions[dfa.start][0]
        assert after_a is not None and transitions[dfa.start][1] is None
        assert transitions[after_a][2] is not None
        assert accepting == [state in dfa.accepting for state in range(dfa.state_count)]

    @pytest.mark.parametrize("query", ["_* a _*", "a* e", "(c | e) _*", "_"])
    def test_all_seeds_at_once_match_one_search_each(self, query):
        run = paper_run(recursion_depth=3)
        dfa = product_dfa(run, query)
        nodes = list(run.node_ids())
        swept = _swept(run.packed, dfa, run.packed.interner.positions(nodes))
        assert swept == sorted(
            (source, target)
            for source in nodes
            for target in _targets(run, dfa, source)
        )
        assert swept == sorted(per_seed_frontier_search(run.successors, dfa, nodes))


class TestSharedRunView:
    def test_concurrent_sweeps_share_one_view(self, monkeypatch):
        """Batch threads sweep one run view at once: its lazily built dense
        DFAs (with the memo overflowing and starting over) and packed rows
        must never hand a thread another query's table."""
        import sys
        import threading

        from repro.baselines.product_bfs import product_dfa as build_dfa
        from repro.core import bitset

        run = paper_run(recursion_depth=3)
        queries = ["_* a _*", "a* e", "(c | e) _*", "_", "_* e _*", "b _*"]
        nodes = list(run.node_ids())

        def sweep(view, dfa):
            return _swept(view, dfa, view.interner.positions(nodes))

        dfas = [build_dfa(run, query) for query in queries]
        expected = [sweep(bitset.build_run_view(run), dfa) for dfa in dfas]
        view = bitset.build_run_view(run)
        failures = []
        barrier = threading.Barrier(8)

        def work(worker):
            barrier.wait(timeout=10)
            for round_ in range(12):
                index = (worker + round_) % len(dfas)
                if sweep(view, dfas[index]) != expected[index]:
                    failures.append((worker, queries[index]))
            # The join's rows are packed lazily from the same view.
            if view.any_tag.rows != bitset.build_run_view(run).any_tag.rows:
                failures.append((worker, "any_tag"))

        # Fewer memo slots than queries, so the memo keeps starting over.
        monkeypatch.setattr(bitset, "_DENSE_DFA_MEMO", 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []


@st.composite
def sweep_cases(draw):
    """A run, node lists, and a query ``P . X . S`` whose middle part may be
    answered as a macro relation; a starred ``X`` matches the empty path,
    so its relation has diagonal pairs."""
    run, l1, l2 = draw(run_and_lists())
    tags = sorted(run.tags())

    def leaf():
        return draw(st.one_of(st.sampled_from(["_", "_*"]), st.sampled_from(tags)))

    first, second = draw(st.sampled_from(tags)), draw(st.sampled_from(tags))
    middle = draw(
        st.sampled_from(
            [f"({first})*", f"({first} | {second})*", f"({first} | {second})+", f"{first} _*"]
        )
    )
    return run, l1, l2, leaf(), middle, leaf(), draw(st.booleans())


class TestSweepDifferential:
    @given(sweep_cases(), st.sampled_from(["forward", "backward"]))
    @settings(**_DIFF_SETTINGS)
    def test_sweep_matches_per_seed_search_and_product_bfs(self, data, direction):
        run, l1, l2, prefix, middle, suffix, as_macro = data
        view = run.packed
        forward = direction == "forward"
        query = f"{prefix} . ({middle}) . {suffix}"
        tags = set(run.tags())
        if as_macro:
            rewritten = Concat((parse_regex(prefix), Symbol(_MACRO), parse_regex(suffix)))
            dfa = minimize_dfa(
                determinize(nfa_from_regex(rewritten), tags | {_MACRO}, wildcard_tags=tags)
            )
            relation = evaluate_regex_relation(run, parse_regex(middle))
            index = view.interner.index
            forward_map, backward_map = {}, {}
            for source, target in relation:
                forward_map.setdefault(index[source], []).append(index[target])
                backward_map.setdefault(index[target], []).append(index[source])
            by_position = forward_map if forward else backward_map
            macros = {_MACRO: lambda node: tuple(by_position.get(node, ()))}
            by_id = {
                _MACRO: lambda node: [
                    view.interner.ids[other] for other in by_position.get(index[node], ())
                ]
            }
        else:
            dfa = product_dfa(run, query)
            macros, by_id = {}, None
        if not forward:
            dfa = dfa.reversed()
        seeds, emitted = (l1, l2) if forward else (l2, l1)
        seed_ids = list(run.node_ids()) if seeds is None else seeds
        allowed = restriction_universe(run, l1, l2)
        emit_filter = _flags(view, emitted)
        swept = _swept(
            view, dfa, view.interner.positions(seed_ids),
            allowed=allowed, emit_filter=emit_filter, macros=macros, forward=forward,
        )
        per_seed = per_seed_frontier_search(
            run.successors if forward else run.predecessors,
            dfa,
            [seed for seed in seed_ids if seed in run],
            allowed=_id_set(view, allowed),
            emit_filter=_id_set(view, emit_filter),
            macro_successors=by_id,
            forward=forward,
        )
        assert swept == sorted(per_seed)

        def known(side):
            return None if side is None else [node for node in side if node in run]

        assert swept == sorted(product_bfs_all_pairs(run, known(l1), known(l2), query))

    @given(run_and_lists(), st.sampled_from(["_* {a} _*", "_ _*", "(_ _)* _", "_* {b}"]))
    @settings(**_DIFF_SETTINGS)
    def test_forward_and_backward_sweeps_return_equal_relations(self, data, pattern):
        """Seeding the sources forward and the targets backward (over the
        reversed DFA) packs the same rows: the forward sweep's transposed
        hits and the backward sweep's per-mask rows agree bit for bit."""
        run, l1, l2 = data
        view = run.packed
        tags = sorted(run.tags())
        query = pattern.format(a=tags[0], b=tags[-1])
        dfa = product_dfa(run, query)
        allowed = restriction_universe(run, l1, l2)
        every = list(run.node_ids())
        sources = every if l1 is None else l1
        targets = every if l2 is None else l2
        forward = frontier_search(
            view, dfa, view.interner.positions(sources),
            allowed=allowed, emit_filter=_flags(view, l2),
        )
        backward = frontier_search(
            view, dfa.reversed(), view.interner.positions(targets),
            allowed=allowed, emit_filter=_flags(view, l1), forward=False,
        )
        assert forward.rows == backward.rows
        assert forward.to_pairs(view.interner) == tuple(
            sorted(product_bfs_all_pairs(run, run.known_ids(l1), run.known_ids(l2), query))
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
