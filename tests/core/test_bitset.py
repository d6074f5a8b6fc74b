"""The packed bitset kernel pinned to its set-based reference.

Every word-parallel operation the packed join path performs — tag/all-edge
relations, join composition, the semi-naive closure, restriction universes,
whole-query regex evaluation, and the fixed-width row serialization the
numpy mirror reads — must return exactly what the per-element set machinery
(the G1 baseline) returns, on Hypothesis-generated runs, queries, masks and
node lists (including empty and disjoint ones).  End-to-end tests
additionally hold the executor's frontier (thread *and* process backends)
and join plans to the set reference.
"""

import functools
import operator

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.boolean_matrix import BooleanMatrix
from repro.automata.regex import parse_regex
from repro.core import bitset as bitset_module
from repro.core.bitset import (
    NodeInterner,
    PackedAdjacency,
    PackedRelation,
    bit_indices,
    closure_mask,
    row_byte_width,
    rows_to_bytes,
)
from repro.core.exec import ExecutorConfig, build_physical_plan, execute
from repro.core.query_index import build_query_index
from repro.core.decomposition import plan_decomposition
from repro.core.relations import (
    all_edge_relation,
    compose,
    evaluate_regex_relation,
    evaluate_regex_relation_packed,
    forward_closure_nodes,
    restrict,
    restriction_universe,
    tag_relation,
    transitive_closure,
)
from repro.datasets.paper_example import paper_specification
from repro.datasets.synthetic import generate_synthetic_specification
from repro.workflow.derivation import derive_run

_SPECS = {
    "paper": paper_specification(),
    "synthetic": generate_synthetic_specification(90, seed=3),
}
_RUNS = {
    name: [derive_run(spec, seed=seed, target_edges=60) for seed in (0, 1)]
    for name, spec in _SPECS.items()
}

_SETTINGS = dict(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
)


@st.composite
def run_and_lists(draw):
    """A run plus two node lists covering None/empty/duplicate/disjoint."""
    name = draw(st.sampled_from(sorted(_SPECS)))
    run = draw(st.sampled_from(_RUNS[name]))
    nodes = list(run.node_ids())

    def node_list():
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return None
        if kind == 1:
            return []
        if kind == 2:
            return ["node-that-does-not-exist"]
        count = draw(st.integers(1, 8))
        return [nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(count)]

    return run, node_list(), node_list()


@st.composite
def run_query_lists(draw):
    run, l1, l2 = draw(run_and_lists())
    tags = sorted(run.tags())

    def leaf():
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return "_"
        if choice == 1:
            return "_*"
        return draw(st.sampled_from(tags))

    shape = draw(st.integers(0, 3))
    if shape == 0:
        query = f"{leaf()} . {leaf()}"
    elif shape == 1:
        query = f"({leaf()} | {leaf()})"
    elif shape == 2:
        query = f"({draw(st.sampled_from(tags))})*"
    else:
        query = f"{leaf()} . ({leaf()} | {leaf()})* . {leaf()}"
    return run, query, l1, l2


def _mask_of(run, node_list):
    interner = run.packed.interner
    return None if node_list is None else interner.mask_of(node_list)


def _brute_closure(seeds, adjacency):
    """Per-edge depth-first reachability over ``(neighbour, tag)`` lists."""
    reached = {seed for seed in seeds if seed in adjacency}
    stack = list(reached)
    while stack:
        node = stack.pop()
        for target, _ in adjacency[node]:
            if target not in reached:
                reached.add(target)
                stack.append(target)
    return reached


@st.composite
def adjacency_and_mask(draw):
    """Random packed rows plus a source mask, wide enough (up to 130 nodes,
    masks up to every bit) to reach the vectorized propagation path."""
    size = draw(st.integers(1, 130))
    rows = draw(
        st.lists(
            st.integers(0, (1 << size) - 1), min_size=size, max_size=size
        )
    )
    mask = draw(st.integers(0, (1 << size) - 1))
    return size, rows, mask


# ---------------------------------------------------------------------------
# Interning and the memoized run view
# ---------------------------------------------------------------------------


class TestNodeInterner:
    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_mask_round_trip_keeps_run_order_and_drops_unknown_ids(self, data):
        run, l1, _ = data
        interner = run.packed.interner
        ids = [] if l1 is None else l1
        known = {node for node in ids if node in interner.index}
        expected = [node for node in run.node_ids() if node in known]
        assert interner.nodes_of(interner.mask_of(ids)) == expected

    def test_full_mask_covers_every_run_node_in_order(self):
        run = _RUNS["paper"][0]
        interner = run.packed.interner
        assert len(interner) == len(run.node_ids())
        assert interner.nodes_of(interner.full_mask) == list(run.node_ids())
        assert NodeInterner([]).full_mask == 0


class TestPackedRunView:
    def test_view_is_built_once_per_run(self):
        run = _RUNS["synthetic"][1]
        assert run.packed is run.packed

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_any_tag_rows_are_the_union_of_tag_rows(self, data):
        run, _, _ = data
        view = run.packed
        union = [0] * len(view.interner)
        for adjacency in view.by_tag.values():
            union = [mine | theirs for mine, theirs in zip(union, adjacency.rows)]
        assert view.any_tag.rows == union
        assert set(view.by_tag) == set(run.tags())

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_backward_any_tag_is_the_transposed_forward_adjacency(self, data):
        run, _, _ = data
        view = run.packed
        forward = {
            (source, target)
            for source, row in enumerate(view.any_tag.rows)
            for target in bit_indices(row)
        }
        backward = {
            (source, target)
            for target, row in enumerate(view.backward_any_tag.rows)
            for source in bit_indices(row)
        }
        assert backward == forward

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_backward_closure_mask_matches_per_edge_search(self, data):
        run, _, l2 = data
        seeds = list(run.node_ids())[-3:] if l2 is None else l2
        view = run.packed
        mask = closure_mask(view.backward_any_tag, view.interner.mask_of(seeds))
        assert set(view.interner.nodes_of(mask)) == _brute_closure(
            seeds, run.predecessors
        )


class TestPackedAdjacency:
    @given(adjacency_and_mask())
    @settings(**_SETTINGS)
    def test_propagate_is_the_union_of_selected_rows(self, data):
        size, rows, mask = data
        expected = 0
        for position in bit_indices(mask):
            expected |= rows[position]
        assert PackedAdjacency(size, rows).propagate(mask) == expected

    def test_vectorized_and_big_int_propagation_agree(self, monkeypatch):
        """A wide mask takes the numpy path when numpy is importable; with
        the probe forced off the same call runs the big-int loop."""
        size = 100
        rows = [((position * 2654435761) ^ (position << 37)) % (1 << size)
                for position in range(size)]
        masks = [(1 << size) - 1, int("10" * (size // 2), 2), (1 << 64) - 1]
        default = [PackedAdjacency(size, rows).propagate(mask) for mask in masks]
        monkeypatch.setattr(bitset_module, "_NUMPY", None)
        fallback = [PackedAdjacency(size, rows).propagate(mask) for mask in masks]
        assert default == fallback
        assert default[0] == functools.reduce(operator.or_, rows)

    def test_row_count_must_match_node_count(self):
        with pytest.raises(ValueError, match="expected 3 rows, got 2"):
            PackedAdjacency(3, [0, 0])
        with pytest.raises(ValueError, match="expected 2 rows, got 3"):
            PackedRelation(2, [0, 0, 0])


# ---------------------------------------------------------------------------
# Row serialization: the uint64 word layout of the numpy mirror and store format 2
# ---------------------------------------------------------------------------


class TestRowSerialization:
    @given(
        st.integers(1, 200).flatmap(
            lambda bits: st.tuples(
                st.just(bits),
                st.lists(st.integers(0, (1 << bits) - 1), max_size=8),
            )
        )
    )
    @settings(**_SETTINGS)
    def test_rows_round_trip_through_word_layout(self, data):
        bits, rows = data
        buffer = rows_to_bytes(rows, bits)
        width = row_byte_width(bits)
        assert len(buffer) == width * len(rows)
        parsed = [
            int.from_bytes(buffer[index * width : (index + 1) * width], "little")
            for index in range(len(rows))
        ]
        assert parsed == rows

    @given(st.integers(0, 130))
    @settings(**_SETTINGS)
    def test_bit_indices_inverts_mask_construction(self, seed):
        indices = sorted({(seed * prime) % 131 for prime in (3, 7, 31, 89)})
        mask = sum(1 << index for index in indices)
        assert bit_indices(mask) == indices

    @given(
        st.integers(0, 70).flatmap(
            lambda size: st.tuples(
                st.just(size),
                st.lists(
                    st.integers(0, max(0, (1 << size) - 1)),
                    min_size=size,
                    max_size=size,
                ),
            )
        )
    )
    @settings(**_SETTINGS)
    def test_store_format2_packed_rows_round_trip(self, data):
        """to_packed/from_packed — the store's on-disk row encoding —
        round-trips matrices across the uint64 word boundary."""
        size, rows = data
        matrix = BooleanMatrix(size, rows)
        assert BooleanMatrix.from_packed(size, matrix.to_packed()) == matrix


# ---------------------------------------------------------------------------
# Relation algebra: packed rows vs per-element sets
# ---------------------------------------------------------------------------


class TestRelationAlgebra:
    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_tag_and_all_edge_relations_match(self, data):
        run, l1, _ = data
        view = run.packed
        allowed = None if l1 is None else frozenset(l1)
        allowed_mask = _mask_of(run, l1)
        packed_any = PackedRelation.from_adjacency(view.any_tag, allowed_mask)
        assert packed_any.to_pairs(view.interner) == all_edge_relation(run, allowed)
        for tag, adjacency in view.by_tag.items():
            packed = PackedRelation.from_adjacency(adjacency, allowed_mask)
            assert packed.to_pairs(view.interner) == tag_relation(run, tag, allowed)

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_join_composition_matches(self, data):
        run, l1, l2 = data
        view = run.packed
        left = tag_relation(run, sorted(run.tags())[0])
        right = all_edge_relation(run, None if l2 is None else frozenset(l2))
        packed = PackedRelation.from_pairs(view.interner, left).compose(
            PackedRelation.from_pairs(view.interner, right)
        )
        assert packed.to_pairs(view.interner) == compose(left, right)

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_semi_naive_closure_matches(self, data):
        run, l1, _ = data
        relation = all_edge_relation(run, None if l1 is None else frozenset(l1))
        view = run.packed
        packed = PackedRelation.from_pairs(view.interner, relation).transitive_closure()
        assert packed.to_pairs(view.interner) == transitive_closure(relation)

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_restriction_universe_matches_explicit_closures(self, data):
        """The packed wavefront closure behind ``restriction_universe``
        agrees with a per-edge breadth-first reference."""
        run, l1, l2 = data
        universe = restriction_universe(run, l1, l2)
        if l1 is None and l2 is None:
            assert universe is None
            return
        expected = None
        if l1 is not None:
            expected = _brute_closure(l1, run.successors)
        if l2 is not None:
            backward = _brute_closure(l2, run.predecessors)
            expected = backward if expected is None else expected & backward
        assert universe == frozenset(expected)

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_closure_mask_matches_forward_closure_nodes(self, data):
        run, l1, _ = data
        seeds = list(run.node_ids())[:3] if l1 is None else l1
        view = run.packed
        mask = closure_mask(view.any_tag, view.interner.mask_of(seeds))
        in_run = [seed for seed in seeds if seed in view.interner.index]
        assert frozenset(view.interner.nodes_of(mask)) == forward_closure_nodes(
            run, in_run
        )

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_restrict_matches_set_restrict(self, data):
        run, l1, l2 = data
        relation = all_edge_relation(run)
        view = run.packed
        packed = PackedRelation.from_pairs(view.interner, relation).restrict(
            _mask_of(run, l1), _mask_of(run, l2)
        )
        assert packed.to_pairs(view.interner) == restrict(relation, l1, l2)

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_union_matches_set_union(self, data):
        run, l1, _ = data
        view = run.packed
        tags = sorted(run.tags())
        allowed = None if l1 is None else frozenset(l1)
        left = tag_relation(run, tags[0], allowed)
        right = tag_relation(run, tags[-1])
        packed = PackedRelation.from_pairs(view.interner, left).union(
            PackedRelation.from_pairs(view.interner, right)
        )
        assert packed.to_pairs(view.interner) == left | right

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_identity_union_equals_with_diagonal(self, data):
        """``R ∪ id(U)`` built both ways — the diagonal ``X*`` adds for the
        empty path — is the set reference's ``R`` plus ``(u, u)`` per node."""
        run, l1, _ = data
        view = run.packed
        interner = view.interner
        universe = interner.full_mask if l1 is None else interner.mask_of(l1)
        relation = PackedRelation.from_adjacency(view.any_tag, None)
        identity = PackedRelation.identity(len(interner), universe)
        expected = all_edge_relation(run) | {
            (node, node) for node in interner.nodes_of(universe)
        }
        assert relation.with_diagonal(universe).to_pairs(interner) == expected
        assert relation.union(identity).to_pairs(interner) == expected

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_pair_count_and_emptiness_match_the_unpacked_pairs(self, data):
        run, l1, _ = data
        view = run.packed
        packed = PackedRelation.from_adjacency(view.any_tag, _mask_of(run, l1))
        pairs = packed.to_pairs(view.interner)
        assert packed.pair_count() == len(pairs)
        assert packed.is_empty() == (not pairs)
        assert PackedRelation.empty(len(view.interner)).is_empty()

    def test_from_pairs_drops_pairs_with_unknown_ids(self):
        interner = NodeInterner(["a", "b", "c"])
        packed = PackedRelation.from_pairs(
            interner, {("a", "b"), ("b", "zz"), ("zz", "c"), ("c", "a")}
        )
        assert packed.to_pairs(interner) == {("a", "b"), ("c", "a")}
        assert packed.rows == [0b010, 0, 0b001]

    @given(run_query_lists())
    @settings(**_SETTINGS)
    def test_packed_regex_evaluation_matches_set_reference(self, data):
        run, query, l1, _ = data
        node = parse_regex(query)
        allowed = None if l1 is None else frozenset(l1)
        assert evaluate_regex_relation_packed(
            run, node, allowed=allowed
        ) == evaluate_regex_relation(run, node, allowed=allowed)


# ---------------------------------------------------------------------------
# End to end: frontier plans on both pool backends, packed join plans
# ---------------------------------------------------------------------------


class TestExecutorEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_frontier_matches_reference(self, backend):
        run = _RUNS["synthetic"][0]
        tags = sorted(run.tags())
        query = f"_* {tags[0]} _*"
        l1 = list(run.node_ids())
        l2 = l1[:4]
        reference = restrict(
            evaluate_regex_relation(run, parse_regex(query)), l1, l2
        )
        plan = plan_decomposition(run.spec, query)
        physical = build_physical_plan(
            run,
            plan,
            l1,
            l2,
            indexes=lambda node: build_query_index(run.spec, node),
            strategy="frontier",
            executor=ExecutorConfig(workers=2, backend=backend),
        )
        assert set(execute(physical)) == set(reference)

    @pytest.mark.parametrize("spec_name", sorted(_SPECS))
    def test_join_strategy_matches_reference(self, spec_name):
        run = _RUNS[spec_name][0]
        tags = sorted(run.tags())
        query = f"_* {tags[0]} _*"
        reference = evaluate_regex_relation(run, parse_regex(query))
        plan = plan_decomposition(run.spec, query)
        physical = build_physical_plan(
            run,
            plan,
            None,
            None,
            indexes=lambda node: build_query_index(run.spec, node),
            strategy="join",
        )
        assert set(execute(physical)) == set(reference)
