"""The packed bitset kernel pinned to its set-based reference.

Every word-parallel operation the packed join performs — tag/all-edge
relations, join composition, the semi-naive closure and whole-query regex
evaluation — must return exactly what the per-element set machinery (the G1
baseline) returns, on Hypothesis-generated runs, queries, masks and node
lists (including empty and disjoint ones).  The run view's integer
adjacency must list exactly the run's edges, both ways.  End-to-end tests
additionally hold the executor's frontier and join plans to the set
reference.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.boolean_matrix import BooleanMatrix
from repro.automata.regex import parse_regex
from repro.core.allpairs import all_pairs_safe_query
from repro.core.bitset import (
    NodeInterner,
    PackedAdjacency,
    PackedRelation,
    bit_indices,
)
from repro.core.exec import JoinOp, build_physical_plan, execute
from repro.core.query_index import build_query_index
from repro.core.decomposition import plan_decomposition
from repro.core.relations import (
    all_edge_relation,
    compose,
    evaluate_regex_relation,
    evaluate_regex_relation_packed,
    restrict,
    tag_relation,
    transitive_closure,
)
from repro.core.safety import is_safe_query
from repro.datasets.paper_example import paper_specification
from repro.datasets.synthetic import generate_synthetic_specification
from repro.errors import RelationOrderError
from repro.workflow.derivation import derive_run

_SPECS = {
    "paper": paper_specification(),
    "synthetic": generate_synthetic_specification(90, seed=3),
}
_RUNS = {
    name: [derive_run(spec, seed=seed, target_edges=60) for seed in (0, 1)]
    for name, spec in _SPECS.items()
}


def _safe_closure_queries(spec):
    """Safe queries whose label-decoded relations feed the closure property;
    the starred ones carry diagonal (empty-path) pairs."""
    candidates = ["_*", "_+"]
    for tag in sorted(spec.tags):
        candidates += [f"({tag})*", f"({tag} | _)*", f"_* {tag} _*"]
    return [query for query in candidates if is_safe_query(spec, query)]


_SAFE_CLOSURE_QUERIES = {name: _safe_closure_queries(spec) for name, spec in _SPECS.items()}

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


def _inside(relation, nodes):
    """The pairs with both ends in ``nodes`` (``None`` keeps every pair)."""
    if nodes is None:
        return relation
    kept = set(nodes)
    return {(source, target) for source, target in relation if source in kept and target in kept}


def _sorted(pairs):
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# Interning and the memoized run view
# ---------------------------------------------------------------------------


class TestNodeInterner:
    def test_ids_are_the_topological_order(self):
        run = _RUNS["paper"][0]
        interner = run.packed.interner
        assert interner.ids == run.topological_order
        assert len(interner) == len(run.node_ids())
        assert all(interner.index[node] == position for position, node in enumerate(interner.ids))
        assert len(NodeInterner([])) == 0

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_adjacency_rows_point_strictly_forward(self, data):
        """Topological numbering makes every run edge ``i → j`` have
        ``i < j``: no adjacency row has a bit at or below its own index."""
        run, _, _ = data
        view = run.packed
        for adjacency in (*view.by_tag.values(), view.any_tag):
            for position, row in enumerate(adjacency.rows):
                assert not row & ((1 << (position + 1)) - 1)
        for position in range(len(view.interner)):
            assert all(target > position for target, _ in view.successors[position])
            assert all(source < position for source, _ in view.predecessors[position])

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_positions_dedupe_in_order_and_drop_unknown_ids(self, data):
        run, l1, _ = data
        interner = run.packed.interner
        names = l1 or []
        positions = interner.positions([*names, *names, "ghost"])
        assert [interner.ids[position] for position in positions] == list(
            dict.fromkeys(node for node in names if node in run)
        )


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
    def test_integer_adjacency_lists_every_edge_both_ways(self, data):
        """``successors``/``predecessors`` hold each run edge once per
        direction, as positions and tag ids."""
        run, _, _ = data
        view = run.packed
        ids = view.interner.ids
        edges = sorted((edge.source, edge.target, edge.tag) for edge in run.edges)
        forward = sorted(
            (ids[source], ids[target], view.tags[tag])
            for source, pairs in enumerate(view.successors)
            for target, tag in pairs
        )
        backward = sorted(
            (ids[source], ids[target], view.tags[tag])
            for target, pairs in enumerate(view.predecessors)
            for source, tag in pairs
        )
        assert forward == edges
        assert backward == edges
        assert sorted(view.tags) == sorted(run.tags())


class TestPackedAdjacency:
    def test_row_count_must_match_node_count(self):
        with pytest.raises(ValueError, match="expected 3 rows, got 2"):
            PackedAdjacency(3, [0, 0])
        with pytest.raises(ValueError, match="expected 2 rows, got 3"):
            PackedRelation(2, [0, 0, 0])


_SERVE_ONE_UNSAFE_QUERY = """
import sys

from repro import QueryService
from repro.datasets.paper_example import paper_specification
from repro.workflow.derivation import derive_run

service = QueryService()
service.register_run(derive_run(paper_specification(), seed=0, target_edges=60), "r")
result = service.execute({"op": "allpairs", "run": "r", "query": "_* a _*"})
assert result.ok and result.pairs, result
print("numpy" in sys.modules)
"""


def test_serving_imports_no_optional_accelerator():
    """The kernel is pure Python, so a fresh process that serves an unsafe
    all-pairs query (packed joins and closures) never loads numpy, and
    local runs execute the same code as numpy-less CI runs."""
    src = Path(__file__).resolve().parents[2] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else str(src))
    completed = subprocess.run(
        [sys.executable, "-c", _SERVE_ONE_UNSAFE_QUERY],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# Row serialization: mask decoding and store format 2's packed matrix rows
# ---------------------------------------------------------------------------


class TestRowSerialization:
    @given(st.integers(0, 130))
    @settings(**_SETTINGS)
    def test_bit_indices_inverts_mask_construction(self, seed):
        indices = sorted({(seed * prime) % 131 for prime in (3, 7, 31, 89)})
        mask = sum(1 << index for index in indices)
        assert bit_indices(mask) == indices

    @given(st.integers(65, 3000), st.integers(1, 8), st.integers(0, 7))
    @settings(**_SETTINGS)
    def test_bit_indices_of_wide_masks(self, width, stride, offset):
        """Wide masks of any density decode to their ascending indices."""
        indices = [*range(offset % stride, width - 1, stride), width - 1]
        mask = sum(1 << index for index in indices)
        assert bit_indices(mask) == indices

    @given(st.sets(st.integers(0, 6000), max_size=40))
    @settings(**_SETTINGS)
    def test_bit_indices_of_sparse_masks(self, indices):
        """A few bits spread over a wide mask decode like dense ones."""
        mask = sum(1 << index for index in indices)
        assert bit_indices(mask) == sorted(indices)

    def test_bit_indices_edge_masks(self):
        assert bit_indices(0) == []
        assert bit_indices(1) == [0]
        assert bit_indices((1 << 64) - 1) == list(range(64))
        assert bit_indices(1 << 5000) == [5000]
        assert bit_indices((1 << 5000) - 1) == list(range(5000))

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
        run, _, _ = data
        view = run.packed
        node_count = len(view.interner)
        packed_any = PackedRelation(node_count, view.any_tag.rows)
        assert packed_any.to_pairs(view.interner) == _sorted(all_edge_relation(run))
        for tag, adjacency in view.by_tag.items():
            packed = PackedRelation(node_count, adjacency.rows)
            assert packed.to_pairs(view.interner) == _sorted(tag_relation(run, tag))

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_join_composition_matches(self, data):
        run, l1, l2 = data
        view = run.packed
        left = tag_relation(run, sorted(run.tags())[0])
        right = _inside(all_edge_relation(run), l2)
        packed = PackedRelation.from_pairs(view.interner, left).compose(
            PackedRelation.from_pairs(view.interner, right)
        )
        assert packed.to_pairs(view.interner) == _sorted(compose(left, right))

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_semi_naive_closure_matches(self, data):
        run, l1, _ = data
        relation = _inside(all_edge_relation(run), l1)
        view = run.packed
        packed = PackedRelation.from_pairs(view.interner, relation).transitive_closure()
        assert packed.to_pairs(view.interner) == _sorted(transitive_closure(relation))

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_closure_keeps_diagonal_bits(self, data):
        """``any-edge ∪ id(U)`` carries diagonal bits the one-pass closure
        leaves in place: ``(R ∪ D)+ = R+ ∪ D``."""
        run, l1, _ = data
        view = run.packed
        interner = view.interner
        universe = run.node_ids() if l1 is None else l1
        relation = all_edge_relation(run) | {(node, node) for node in universe if node in run}
        packed = PackedRelation.from_pairs(interner, relation).transitive_closure()
        assert packed.to_pairs(interner) == _sorted(transitive_closure(relation))

    @given(st.data())
    @settings(**_SETTINGS)
    def test_closure_of_label_decoded_relations_matches(self, data):
        """Label-decoded shortcut relations (the join path's ``from_pairs``
        boundary) close like their set-based reference, diagonal pairs of
        empty-path queries included."""
        name = data.draw(st.sampled_from(sorted(_SPECS)))
        run = data.draw(st.sampled_from(_RUNS[name]))
        query = data.draw(st.sampled_from(_SAFE_CLOSURE_QUERIES[name]))
        nodes = list(run.node_ids())
        relation = all_pairs_safe_query(
            run, nodes, nodes, build_query_index(run.spec, query)
        )
        interner = run.packed.interner
        packed = PackedRelation.from_pairs(interner, relation).transitive_closure()
        assert packed.to_pairs(interner) == _sorted(transitive_closure(relation))

    def test_backward_pair_raises_typed_error(self):
        interner = NodeInterner(["a", "b", "c"])
        packed = PackedRelation.from_pairs(interner, {("a", "b"), ("c", "b")})
        with pytest.raises(RelationOrderError, match="row 2"):
            packed.transitive_closure()

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_union_matches_set_union(self, data):
        run, l1, _ = data
        view = run.packed
        tags = sorted(run.tags())
        left = _inside(tag_relation(run, tags[0]), l1)
        right = tag_relation(run, tags[-1])
        packed = PackedRelation.from_pairs(view.interner, left).union(
            PackedRelation.from_pairs(view.interner, right)
        )
        assert packed.to_pairs(view.interner) == _sorted(left | right)

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_identity_union_equals_with_diagonal(self, data):
        """``R ∪ id`` built both ways — the diagonal ``X*`` adds for the
        empty path — is the set reference's ``R`` plus ``(u, u)`` per node."""
        run, _, _ = data
        view = run.packed
        interner = view.interner
        relation = PackedRelation(len(interner), view.any_tag.rows)
        identity = PackedRelation.identity(len(interner))
        expected = all_edge_relation(run) | {(node, node) for node in run.node_ids()}
        assert relation.with_diagonal().to_pairs(interner) == _sorted(expected)
        assert relation.union(identity).to_pairs(interner) == _sorted(expected)

    @given(run_and_lists())
    @settings(**_SETTINGS)
    def test_streamed_pairs_and_emptiness_match_the_unpacked_pairs(self, data):
        run, l1, _ = data
        view = run.packed
        packed = PackedRelation.from_pairs(view.interner, _inside(all_edge_relation(run), l1))
        pairs = packed.to_pairs(view.interner)
        streamed = list(packed.iter_pairs(view.interner))
        assert _sorted(streamed) == pairs
        assert len(packed) == len(pairs)
        assert packed.is_empty() == (not pairs)
        assert PackedRelation.empty(len(view.interner)).is_empty()

    def test_from_pairs_drops_pairs_with_unknown_ids(self):
        interner = NodeInterner(["a", "b", "c"])
        packed = PackedRelation.from_pairs(
            interner, {("a", "b"), ("b", "zz"), ("zz", "c"), ("c", "a")}
        )
        assert packed.to_pairs(interner) == _sorted({("a", "b"), ("c", "a")})
        assert packed.rows == [0b010, 0, 0b001]

    @given(run_query_lists())
    @settings(**_SETTINGS)
    def test_packed_regex_evaluation_matches_set_reference(self, data):
        run, query, _, _ = data
        node = parse_regex(query)
        packed = evaluate_regex_relation_packed(run, node)
        assert packed.to_pairs(run.packed.interner) == _sorted(evaluate_regex_relation(run, node))


@st.composite
def interned_relations(draw):
    """An interner over ``n0 .. n{k-1}`` in a drawn order — so ``n9`` may
    come before ``n10`` or after it, and id order differs from position
    order — and a relation over it, dense rows and sparse wide ones mixed,
    with repeated row values."""
    size = draw(st.integers(1, 40))
    ids = draw(st.permutations([f"n{index}" for index in range(size)]))
    row = st.one_of(
        st.integers(0, (1 << size) - 1),
        st.sets(st.integers(0, size - 1), max_size=3).map(
            lambda bits: sum(1 << bit for bit in bits)
        ),
    )
    values = draw(st.lists(row, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    return NodeInterner(ids), PackedRelation(size, rows)


class TestOrderedUnpack:
    @given(interned_relations())
    @settings(**_SETTINGS)
    def test_to_pairs_is_the_sorted_unordered_unpack(self, data):
        interner, relation = data
        pairs = relation.to_pairs(interner)
        assert pairs == tuple(sorted(relation.iter_pairs(interner)))
        assert len(pairs) == len(relation)

    def test_ids_sort_as_text_not_by_position(self):
        interner = NodeInterner(["n9", "n10", "n1"])
        relation = PackedRelation(3, [0b110, 0b101, 0b011])
        assert relation.to_pairs(interner) == (
            ("n1", "n10"), ("n1", "n9"),
            ("n10", "n1"), ("n10", "n9"),
            ("n9", "n1"), ("n9", "n10"),
        )

    def test_rank_table_is_built_once_per_interner(self):
        interner = NodeInterner(["n9", "n10", "n1"])
        table = interner.rank_table
        assert table == ([2, 1, 0], [2, 1, 0])
        PackedRelation(3, [0b110, 0, 0]).to_pairs(interner)
        PackedRelation(3, [0, 0b001, 0b010]).to_pairs(interner)
        assert interner.rank_table is table
        # A run's interner is memoized with its view, so the table is too.
        run = _RUNS["paper"][0]
        assert run.packed.interner.rank_table is run.packed.interner.rank_table


# ---------------------------------------------------------------------------
# End to end: frontier sweeps, packed join plans
# ---------------------------------------------------------------------------


class TestExecutorEquivalence:
    def test_frontier_sweep_matches_reference(self):
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
        )
        assert execute(physical).to_pairs(run.packed.interner) == _sorted(reference)

    @pytest.mark.parametrize("spec_name", sorted(_SPECS))
    def test_unrestricted_join_matches_reference(self, spec_name):
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
        )
        assert isinstance(physical.root, JoinOp)
        assert execute(physical).to_pairs(run.packed.interner) == _sorted(reference)
