"""The executor layer: planner resolution, the join and the frontier sweep.

The load-bearing property tests: every physical execution path — forward
frontier, backward frontier, auto direction and, without node lists, the
packed join — returns exactly the pair
set of the set-based join reference on Hypothesis-generated
(specification, run, query, l1, l2) tuples, including empty and disjoint
node lists; and the multi-source sweep agrees with the product-automaton
oracle and with the per-seed search it replaced, in both directions, with
label routing forced so macro edges (diagonal ones included) occur.
"""

import contextlib
import typing
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.regex import parse_regex
from repro.baselines.per_seed_frontier import per_seed_execute
from repro.baselines.product_bfs import product_bfs_all_pairs
from repro.core.decomposition import plan_decomposition
from repro.core.exec import (
    DIRECTIONS,
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    PhysicalOp,
    build_physical_plan,
    check_direction,
    execute,
)
from repro.core.exec import executor as executor_module
from repro.core.exec import ops
from repro.core.query_index import build_query_index
from repro.core.relations import evaluate_regex_relation, restrict
from repro.datasets.paper_example import paper_specification
from repro.datasets.synthetic import generate_synthetic_specification
from repro.obs import Tracer, use_tracer
from repro.obs.metrics import MetricsRegistry
from repro.workflow.derivation import derive_run

_SPECS = {
    "paper": paper_specification(),
    "synthetic": generate_synthetic_specification(120, seed=1),
}
_RUNS = {
    name: [derive_run(spec, seed=seed, target_edges=70) for seed in (0, 1)]
    for name, spec in _SPECS.items()
}


def _indexes(spec):
    return lambda node: build_query_index(spec, node)


def _unpacked(physical):
    """A plan's materialized answer, unpacked in sorted order."""
    return execute(physical).to_pairs(physical.run.packed.interner)


def _streamed(physical):
    """A plan's materialized answer, unpacked unordered as the engine's
    stream unpacks it."""
    return list(execute(physical).iter_pairs(physical.run.packed.interner))


def _sorted(pairs):
    return tuple(sorted(pairs))


def _physical(run, query, l1, l2, **kwargs):
    plan = plan_decomposition(run.spec, query)
    kwargs.setdefault("indexes", _indexes(run.spec))
    return build_physical_plan(run, plan, l1, l2, **kwargs)


#: An id no run contains: node lists may name it, and it must be ignored.
_GHOST = "ghost:0"


@st.composite
def spec_run_query_lists(draw):
    """Random runs + queries + node lists covering the pushdown edge cases:
    ``None``, empty lists, duplicates, ids absent from the run, and lists
    disjoint from each other or from the answer.  Some queries star a union
    of tags, a safe subtree that matches the empty path."""
    name = draw(st.sampled_from(sorted(_SPECS)))
    spec = _SPECS[name]
    run = draw(st.sampled_from(_RUNS[name]))
    tags = sorted(spec.tags)

    def leaf():
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return "_"
        if choice == 1:
            return "_*"
        return draw(st.sampled_from(tags))

    def tag():
        return draw(st.sampled_from(tags))

    shape = draw(st.integers(0, 5))
    if shape == 0:
        query = f"{leaf()} . {leaf()}"
    elif shape == 1:
        query = f"({leaf()} | {leaf()})"
    elif shape == 2:
        query = f"({tag()})*"
    elif shape == 3:
        query = f"{leaf()} . ({leaf()} | {leaf()})* . {leaf()}"
    elif shape == 4:
        query = f"({tag()})+ . ({tag()} | {tag()})*"
    else:
        query = f"({tag()} | {tag()})* . {leaf()} . ({tag()})*"
    nodes = list(run.node_ids())

    def node_list():
        kind = draw(st.integers(0, 5))
        if kind == 0:
            return None
        if kind == 1:
            return []
        count = draw(st.integers(1, 8))
        picked = [nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(count)]
        if kind == 2:
            picked.append(_GHOST)
        return picked

    l1 = node_list()
    if l1 and draw(st.booleans()):
        # Disjoint from l1: every other node of the run.
        l2 = [node for node in nodes if node not in set(l1)]
    else:
        l2 = node_list()
    return run, query, l1, l2


def _oracle(run, query, l1, l2):
    """The product-automaton answer; ids absent from the run are ignored."""
    def known(side):
        return None if side is None else [node for node in side if node in run]

    return product_bfs_all_pairs(run, known(l1), known(l2), query)


class TestExecutorEquivalence:
    @given(spec_run_query_lists())
    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    def test_all_executors_match_the_join_reference(self, data):
        """Forward, backward and auto executions (a join without node
        lists) all return the set-based join reference's pair set, and their
        unordered unpacks yield each pair once."""
        run, query, l1, l2 = data
        reference = restrict(evaluate_regex_relation(run, parse_regex(query)), l1, l2)
        for label, kwargs in (
            ("forward", {"direction": "forward"}),
            ("backward", {"direction": "backward"}),
            ("auto", {}),
        ):
            physical = _physical(run, query, l1, l2, **kwargs)
            assert _unpacked(physical) == _sorted(reference), f"{label} diverged for {query!r}"
            streamed = _streamed(physical)
            assert len(streamed) == len(set(streamed)), f"{label} duplicated pairs"
            assert set(streamed) == reference, f"{label} stream diverged for {query!r}"

    @given(
        spec_run_query_lists(),
        st.sampled_from(["forward", "backward"]),
        st.booleans(),
    )
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    def test_sweep_matches_the_oracle_and_the_per_seed_search(
        self, data, direction, force_labels
    ):
        """The multi-source sweep against the product-BFS oracle and the
        per-seed baseline on the same operator.  Forcing label routing turns
        every worthwhile safe subtree into a macro edge; a starred one
        matches the empty path, so its macro relation has diagonal pairs."""
        run, query, l1, l2 = data
        plan = plan_decomposition(run.spec, query)
        routing = (
            mock.patch.object(plan, "estimate_prefers_labels", lambda run, node: True)
            if force_labels
            else contextlib.nullcontext()
        )
        with routing:
            physical = build_physical_plan(
                run, plan, l1, l2, indexes=_indexes(run.spec),
                direction=direction,
            )
            oracle = _oracle(run, query, l1, l2)
            streamed = _streamed(physical)
            assert len(streamed) == len(set(streamed)), f"duplicated pairs for {query!r}"
            assert set(streamed) == oracle, f"sweep stream diverged for {query!r}"
            assert _unpacked(physical) == _sorted(oracle), f"sweep diverged for {query!r}"
            if isinstance(physical.root, FrontierSearchOp):
                assert per_seed_execute(physical) == oracle

    def test_backward_execution_crosses_macro_edges(self, monkeypatch):
        """Backward searches must follow macro relations against their
        direction; force label routing so a macro edge actually exists."""
        run = _RUNS["paper"][0]
        # Unsafe overall, with '(A | B)+' as a routable maximal safe subtree.
        query = "(e)+ . (A|B)+"
        nodes = list(run.node_ids())
        l1, l2 = nodes, nodes[-3:]
        reference = restrict(evaluate_regex_relation(run, parse_regex(query)), l1, l2)
        plan = plan_decomposition(run.spec, query)
        monkeypatch.setattr(plan, "estimate_prefers_labels", lambda run, node: True)
        physical = build_physical_plan(
            run, plan, l1, l2, indexes=_indexes(run.spec),
            direction="backward",
        )
        assert isinstance(physical.root, FrontierSearchOp)
        assert physical.root.macros, "expected a macro-routed safe subtree"
        assert _unpacked(physical) == _sorted(reference)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_starred_macro_matches_the_empty_path(self, monkeypatch, direction):
        """'(A|B)*' routed to the labels relates every node to itself, so
        pairs matched by '(e)+' alone must survive the macro step."""
        run = _RUNS["paper"][0]
        query = "(e)+ . (A|B)*"
        nodes = list(run.node_ids())
        plan = plan_decomposition(run.spec, query)
        monkeypatch.setattr(plan, "estimate_prefers_labels", lambda run, node: True)
        physical = build_physical_plan(
            run, plan, nodes, nodes, indexes=_indexes(run.spec),
            direction=direction,
        )
        assert physical.root.macros, "expected a macro-routed safe subtree"
        e_only = evaluate_regex_relation(run, parse_regex("(e)+"))
        result = _unpacked(physical)
        assert e_only and e_only <= set(result)
        assert result == _sorted(evaluate_regex_relation(run, parse_regex(query)))


class TestFrontierExecution:
    def test_one_sweep_per_operator(self, monkeypatch):
        """Every seed of the operator goes into a single search call."""
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        calls = []
        original = executor_module.frontier_search

        def counting(*args, **kwargs):
            calls.append(tuple(args[2]))
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "frontier_search", counting)
        physical = _physical(run, "_* a _*", nodes, None)
        assert len(physical.root.seeds) == len(nodes)
        execute(physical)
        assert calls == [physical.root.seeds]

    def test_search_span_reports_direction_seeds_and_pairs(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes, nodes[:2], direction="backward")
        tracer = Tracer(registry=MetricsRegistry())
        with use_tracer(tracer):
            result = execute(physical)
        [search] = [span for span in tracer.spans() if span.name == "exec.frontier_search"]
        assert {key: search.attrs[key] for key in ("direction", "seeds", "pairs")} == {
            "direction": "backward", "seeds": 2, "pairs": len(result)
        }

    def test_search_span_reports_universe_and_visited(self):
        """``universe`` is the pruned node count (the run size when nothing
        is pruned) and ``visited`` counts the nodes the sweep reached; both
        explain a slow sweep without a profiler."""
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        sink = run.topological_order[-1]
        ancestors = {node for node in nodes if sink in run.reachable_from(node)} | {sink}
        cases = [
            # Every node as a source and no target list: nothing is pruned.
            (nodes, None, "forward", run.node_count),
            # Only the sink's ancestors can lie on a path into it.
            (nodes, [sink], "backward", len(ancestors)),
        ]
        for l1, l2, direction, universe in cases:
            physical = _physical(run, "_* a _*", l1, l2, direction=direction)
            tracer = Tracer(registry=MetricsRegistry())
            with use_tracer(tracer):
                execute(physical)
            [search] = [s for s in tracer.spans() if s.name == "exec.frontier_search"]
            assert search.attrs["universe"] == universe
            if direction == "forward":
                reached = set(l1).union(*(run.reachable_from(seed) for seed in l1))
            else:
                reached = ancestors
            # "_* a _*" dies on no tag, so every reachable node is visited.
            assert search.attrs["visited"] == len(reached)


class TestPlannerResolution:
    def test_fully_safe_plans_to_label_decode(self):
        run = _RUNS["paper"][0]
        physical = _physical(run, "_* e _*", None, None)
        assert isinstance(physical.root, LabelDecodeOp)

    def test_auto_picks_backward_on_small_l2_large_l1(self):
        """The acceptance criterion: a handful of targets against the whole
        run flips the frontier to the reversed-DFA backward search."""
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes, nodes[:2])
        assert isinstance(physical.root, FrontierSearchOp)
        assert physical.root.direction == "backward"
        assert len(physical.root.seeds) == 2

    def test_auto_picks_forward_on_small_l1_no_l2(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes[:2], None)
        assert isinstance(physical.root, FrontierSearchOp)
        assert physical.root.direction == "forward"

    def test_unrestricted_unsafe_query_plans_to_join(self):
        run = _RUNS["paper"][0]
        physical = _physical(run, "_* a _*", None, None)
        assert isinstance(physical.root, JoinOp)
        assert physical.root.root == parse_regex("_* a _*")

    def test_join_span_reports_the_pair_count_and_streams_the_same_pairs(self):
        run = _RUNS["paper"][0]
        physical = _physical(run, "_* a _*", None, None)
        tracer = Tracer(registry=MetricsRegistry())
        with use_tracer(tracer):
            result = execute(physical)
        pairs = result.to_pairs(run.packed.interner)
        assert pairs == _sorted(product_bfs_all_pairs(run, None, None, "_* a _*"))
        assert [span.name for span in tracer.spans() if span.name.startswith("exec.")] == [
            "exec.join"
        ]
        [join] = tracer.spans()
        assert join.attrs["pairs"] == len(result)
        streamed = list(result.iter_pairs(run.packed.interner))
        assert _sorted(streamed) == pairs

    def test_direction_is_resolved_fresh_on_every_plan(self):
        run = _RUNS["paper"][0]
        plan = plan_decomposition(run.spec, "_* a _*")
        nodes = list(run.node_ids())
        # Nothing is remembered between plans: each call re-derives the
        # same decision from the seed counts.
        for _ in range(2):
            physical = build_physical_plan(
                run, plan, nodes, nodes[:2], indexes=_indexes(run.spec)
            )
            assert physical.root.direction == "backward"

    def test_one_plan_follows_each_workload_shape(self):
        """A single plan serves every shape, whichever came first: backward
        exactly when there is a target list with fewer seeds inside the
        pruned universe than the sources have; equal counts go forward."""
        run = _RUNS["paper"][0]
        plan = plan_decomposition(run.spec, "_* a _*")
        nodes = list(run.node_ids())
        sink = run.topological_order[-1]
        feeders = sorted(node for node in nodes if sink in run.reachable_from(node))[:2]
        assert len(feeders) == 2
        shapes = [
            # no target list
            (nodes[:2], None, "forward"),
            # fewer targets than sources
            (nodes, nodes[:2], "backward"),
            # more targets than sources
            (nodes[:2], nodes, "forward"),
            # equal counts
            (nodes, nodes, "forward"),
            # more targets as written, one inside the pruned universe
            (feeders, [sink, _GHOST, "ghost:1", "ghost:2"], "backward"),
            (nodes[:2], None, "forward"),
        ]
        for l1, l2, expected in shapes:
            physical = build_physical_plan(
                run, plan, l1, l2, indexes=_indexes(run.spec)
            )
            assert isinstance(physical.root, FrontierSearchOp)
            assert physical.root.direction == expected, (l1, l2)

    def test_ids_absent_from_the_run_are_not_seeds(self):
        """When the universe covers the whole run (every node a source, every
        sink a target), only the targets present in the run are counted:
        padding the list with unknown ids does not flip the direction."""
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        sinks = [node for node in nodes if not run.successors[node]]
        ghosts = [f"ghost:{index}" for index in range(len(nodes))]
        physical = _physical(run, "_* a _*", nodes, sinks + ghosts)
        assert physical.root.allowed is None
        assert physical.root.direction == "backward"
        assert len(physical.root.seeds) == len(sinks)

    @pytest.mark.parametrize(
        ("forced", "seeds_side", "filter_side"),
        [("forward", 0, 1), ("backward", 1, 0)],
    )
    def test_explicit_direction_overrides_the_seed_counts(
        self, forced, seeds_side, filter_side
    ):
        """A forced direction wins over the count rule in both shapes, and
        seeds the sweep from its own side while the other side filters."""
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        for lists in ((nodes, nodes[:2]), (nodes[:2], nodes)):
            physical = _physical(run, "_* a _*", *lists, direction=forced)
            assert physical.root.direction == forced
            ids = run.packed.interner.ids
            assert [ids[seed] for seed in physical.root.seeds] == lists[seeds_side]
            # A filter naming every node is no filter.
            emit_filter = physical.root.emit_filter or b"\x01" * len(ids)
            assert {node for node, flag in zip(ids, emit_filter) if flag} == set(
                lists[filter_side]
            )

    def test_bad_direction_raises(self):
        run = _RUNS["paper"][0]
        with pytest.raises(ValueError, match="unknown direction"):
            _physical(run, "_* a _*", None, None, direction="sideways")
        # A fully safe query never sweeps, yet a typo still fails.
        with pytest.raises(ValueError, match="unknown direction"):
            _physical(run, "_* e _*", None, None, direction="magic")

    def test_check_direction_accepts_exactly_the_published_values(self):
        for direction in DIRECTIONS:
            check_direction(direction)
        with pytest.raises(ValueError, match=r"\['auto', 'forward', 'backward'\]"):
            check_direction("")
        with pytest.raises(ValueError, match="unknown direction 'Forward'"):
            check_direction("Forward")


class TestOperatorCatalog:
    """Every physical operator is a member of the ``PhysicalOp`` union,
    exported, built by the planner for one request shape, and run by
    ``execute`` to an answer whose sorted and unordered unpacks agree."""

    #: One request shape per operator: (query, l1 size, l2 size).
    SHAPES = {
        LabelDecodeOp: ("_* e _*", None, None),
        JoinOp: ("_* a _*", None, None),
        FrontierSearchOp: ("_* a _*", 5, None),
    }

    def test_union_is_the_exported_operators(self):
        exported = {
            getattr(ops, name)
            for name in ops.__all__
            if name.endswith("Op") and isinstance(getattr(ops, name), type)
        }
        assert set(typing.get_args(PhysicalOp)) == exported
        assert set(self.SHAPES) == exported

    @pytest.mark.parametrize("operator", list(SHAPES), ids=lambda op: op.__name__)
    def test_each_operator_is_planned_and_executed_alike(self, operator):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        query, *sides = self.SHAPES[operator]
        l1, l2 = (None if side is None else nodes[:side] for side in sides)
        physical = _physical(run, query, l1, l2)
        assert type(physical.root) is operator
        materialized = _unpacked(physical)
        streamed = _streamed(physical)
        assert materialized
        assert _sorted(streamed) == materialized


class TestPhysicalPlanReporting:
    def test_describe_names_the_choices(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes, nodes[:2])
        text = physical.describe()
        assert 'frontier' in text
        assert 'backward' in text
        assert 'workers' not in text

    def test_describe_names_the_label_decode(self):
        run = _RUNS["paper"][0]
        text = _physical(run, "_* e _*", None, None).describe()
        assert text == f"PhysicalPlan(label-decode) over run of {run.node_count} nodes"
        text = _physical(run, "_* a _*", None, None).describe()
        assert text == f"PhysicalPlan(join) over run of {run.node_count} nodes"

    @pytest.mark.parametrize(
        ("query", "sides", "attrs"),
        [
            ("_* e _*", (None, None), {"operator": "label_decode"}),
            ("_* a _*", (None, None), {"operator": "join"}),
            ("_* a _*", (2, None), {"operator": "frontier_search", "direction": "forward"}),
            ("_* a _*", (None, 2), {"operator": "frontier_search", "direction": "backward"}),
        ],
        ids=["safe", "join", "forward", "backward"],
    )
    def test_plan_span_reports_the_operator(self, query, sides, attrs):
        """``exec.plan`` names the chosen operator, and for a sweep the
        direction it resolved to; a label decode or a join has no
        direction."""
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        l1, l2 = (None if side is None else nodes[:side] for side in sides)
        tracer = Tracer(registry=MetricsRegistry())
        with use_tracer(tracer):
            _physical(run, query, l1, l2)
        [span] = [span for span in tracer.spans() if span.name == "exec.plan"]
        assert {key: span.attrs[key] for key in attrs} == attrs
        assert ("direction" in span.attrs) == ("direction" in attrs)


class TestMacroRelationThreadSafety:
    """The lazily decoded macro relation decodes once however many threads
    read it at once (regression: readers used to peek at the half-built
    fields outside the lock instead of working off the materialized maps)."""

    def test_concurrent_readers_decode_once_and_agree(self):
        import threading

        from repro.core.exec.ops import MacroRelation

        pairs = [(i, 100 + i % 3) for i in range(30)]
        decodes = []

        def decode():
            decodes.append(1)
            return list(pairs)

        relation = MacroRelation(decode)
        threads = 8
        barrier = threading.Barrier(threads)
        seen = []

        def read(worker: int) -> None:
            barrier.wait()
            if worker % 2:
                seen.append(("succ", relation.successors(1)))
            else:
                seen.append(("pred", relation.predecessors(101)))

        workers = [
            threading.Thread(target=read, args=(worker,)) for worker in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        assert len(decodes) == 1  # one shared materialization
        for kind, result in seen:
            if kind == "succ":
                assert result == (101,)
            else:
                assert set(result) == {i for i in range(30) if i % 3 == 1}
