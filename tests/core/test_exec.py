"""The executor layer: planner resolution and the frontier sweep.

The load-bearing property tests: every physical execution path — forward
frontier, backward frontier, the packed join and auto routing — returns
exactly the pair set of the set-based join reference on Hypothesis-generated
(specification, run, query, l1, l2) tuples, including empty and disjoint
node lists; and the multi-source sweep agrees with the product-automaton
oracle and with the per-seed search it replaced, in both directions, with
label routing forced so macro edges (diagonal ones included) occur.
"""

import contextlib
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
    STRATEGIES,
    FrontierSearchOp,
    JoinOp,
    LabelDecodeOp,
    build_physical_plan,
    check_routing,
    execute,
    execute_iter,
)
from repro.core.exec import executor as executor_module
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


def _runnable(run, query, l1, l2):
    """The node lists with :data:`_GHOST` kept only for unsafe queries: the
    label decode of a fully safe query takes run nodes only."""
    if not plan_decomposition(run.spec, query).is_fully_safe:
        return l1, l2

    def known(side):
        return None if side is None else [node for node in side if node in run]

    return known(l1), known(l2)


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
        """Forward, backward, packed-join and auto executions all return the
        set-based join reference's pair set, and their streams yield each
        pair once.  The join arm restricts to the node lists while packed."""
        run, query, l1, l2 = data
        l1, l2 = _runnable(run, query, l1, l2)
        reference = restrict(evaluate_regex_relation(run, parse_regex(query)), l1, l2)
        for label, kwargs in (
            ("forward", {"strategy": "frontier", "direction": "forward"}),
            ("backward", {"strategy": "frontier", "direction": "backward"}),
            ("join", {"strategy": "join"}),
            ("auto", {}),
        ):
            physical = _physical(run, query, l1, l2, **kwargs)
            assert execute(physical) == reference, f"{label} diverged for {query!r}"
            streamed = list(execute_iter(physical))
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
        l1, l2 = _runnable(run, query, l1, l2)
        plan = plan_decomposition(run.spec, query)
        routing = (
            mock.patch.object(plan, "estimate_prefers_labels", lambda run, node: True)
            if force_labels
            else contextlib.nullcontext()
        )
        with routing:
            physical = build_physical_plan(
                run, plan, l1, l2, indexes=_indexes(run.spec),
                strategy="frontier", direction=direction,
            )
            oracle = _oracle(run, query, l1, l2)
            streamed = list(execute_iter(physical))
            assert len(streamed) == len(set(streamed)), f"duplicated pairs for {query!r}"
            assert set(streamed) == oracle, f"sweep stream diverged for {query!r}"
            assert execute(physical) == oracle, f"sweep diverged for {query!r}"
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
            strategy="frontier", direction="backward",
        )
        assert isinstance(physical.root, FrontierSearchOp)
        assert physical.root.macros, "expected a macro-routed safe subtree"
        assert execute(physical) == reference

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
            strategy="frontier", direction=direction,
        )
        assert physical.root.macros, "expected a macro-routed safe subtree"
        e_only = evaluate_regex_relation(run, parse_regex("(e)+"))
        result = execute(physical)
        assert e_only and e_only <= result
        assert result == evaluate_regex_relation(run, parse_regex(query))


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
        physical = _physical(run, "_* a _*", nodes, None, strategy="frontier")
        assert len(physical.root.seeds) == len(nodes)
        execute(physical)
        assert calls == [physical.root.seeds]

    def test_search_span_reports_direction_seeds_and_pairs(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(
            run, "_* a _*", nodes, nodes[:2], strategy="frontier", direction="backward"
        )
        tracer = Tracer(registry=MetricsRegistry())
        with use_tracer(tracer):
            result = execute(physical)
        [search] = [span for span in tracer.spans() if span.name == "exec.frontier_search"]
        assert search.attrs == {"direction": "backward", "seeds": 2, "pairs": len(result)}

    def test_execute_iter_searches_on_first_draw(self, monkeypatch):
        """Building the stream runs nothing; the sweep starts when the first
        pair is drawn, and the stream then matches the materialized set."""
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        started = []
        original = executor_module.iter_frontier_search

        def tracking(*args, **kwargs):
            started.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(executor_module, "iter_frontier_search", tracking)
        physical = _physical(run, "_* a _*", nodes, None, strategy="frontier")
        stream = execute_iter(physical)
        assert started == []
        pairs = list(stream)
        assert started == [1]
        assert set(pairs) == execute(physical)


class TestPlannerResolution:
    def test_fully_safe_plans_to_label_decode(self):
        run = _RUNS["paper"][0]
        physical = _physical(run, "_* e _*", None, None)
        assert isinstance(physical.root, LabelDecodeOp)
        assert physical.strategy == "safe"

    def test_auto_picks_backward_on_small_l2_large_l1(self):
        """The acceptance criterion: a handful of targets against the whole
        run flips the frontier to the reversed-DFA backward search."""
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes, nodes[:2])
        assert physical.strategy == "frontier"
        assert physical.direction == "backward"
        assert isinstance(physical.root, FrontierSearchOp)
        assert physical.root.direction == "backward"
        assert len(physical.root.seeds) == 2

    def test_auto_picks_forward_on_small_l1_no_l2(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes[:2], None)
        assert physical.strategy == "frontier"
        assert physical.direction == "forward"

    def test_unrestricted_unsafe_query_plans_to_join(self):
        run = _RUNS["paper"][0]
        physical = _physical(run, "_* a _*", None, None)
        assert isinstance(physical.root, JoinOp)
        assert (physical.root.l1, physical.root.l2) == (None, None)
        assert physical.strategy == "join"
        assert physical.direction == "-"

    def test_forced_join_carries_the_node_lists(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(
            run, "_* a _*", nodes[:3], [nodes[4], nodes[4]], strategy="join"
        )
        assert isinstance(physical.root, JoinOp)
        assert physical.root.l1 == tuple(nodes[:3])
        assert physical.root.l2 == (nodes[4], nodes[4])

    def test_join_span_reports_the_restricted_pair_count(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes[:3], None, strategy="join")
        tracer = Tracer(registry=MetricsRegistry())
        with use_tracer(tracer):
            result = execute(physical)
        whole = execute(_physical(run, "_* a _*", None, None))
        assert result == restrict(whole, nodes[:3], None) != whole
        assert [span.name for span in tracer.spans() if span.name.startswith("exec.")] == [
            "exec.join"
        ]
        [join] = [span for span in tracer.spans() if span.name == "exec.join"]
        assert join.attrs["pairs"] == len(result)

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
            assert physical.direction == "backward"

    def test_one_plan_follows_each_workload_shape(self):
        """A single plan serves both shapes: few sources search forward,
        few targets search backward, whichever came first."""
        run = _RUNS["paper"][0]
        plan = plan_decomposition(run.spec, "_* a _*")
        nodes = list(run.node_ids())
        shapes = [
            (nodes, nodes[:2], "backward"),
            (nodes[:2], nodes, "forward"),
            (nodes, nodes[:2], "backward"),
        ]
        for l1, l2, expected in shapes:
            physical = build_physical_plan(
                run, plan, l1, l2, indexes=_indexes(run.spec)
            )
            assert physical.strategy == "frontier"
            assert physical.direction == expected
            assert physical.root.direction == expected

    def test_bad_strategy_and_direction_raise(self):
        run = _RUNS["paper"][0]
        with pytest.raises(ValueError, match="unknown strategy"):
            _physical(run, "_* a _*", None, None, strategy="sideways")
        with pytest.raises(ValueError, match="unknown direction"):
            _physical(run, "_* a _*", None, None, direction="sideways")
        # A fully safe query never picks a strategy, yet a typo still fails.
        with pytest.raises(ValueError, match="unknown strategy"):
            _physical(run, "_* e _*", None, None, strategy="magic")

    def test_check_routing_accepts_exactly_the_published_values(self):
        for strategy in STRATEGIES:
            for direction in DIRECTIONS:
                check_routing(strategy, direction)
        with pytest.raises(ValueError, match=r"\['auto', 'frontier', 'join'\]"):
            check_routing("Join", "auto")
        with pytest.raises(ValueError, match=r"\['auto', 'forward', 'backward'\]"):
            check_routing("auto", "")


class TestPhysicalPlanReporting:
    def test_describe_names_the_choices(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes, nodes[:2])
        text = physical.describe()
        assert 'frontier' in text
        assert 'backward' in text
        assert 'workers' not in text


class TestMacroRelationThreadSafety:
    """The lazily decoded macro relation decodes once however many threads
    read it at once (regression: readers used to peek at the half-built
    fields outside the lock instead of working off the materialized maps)."""

    def test_concurrent_readers_decode_once_and_agree(self):
        import threading

        from repro.core.exec.ops import MacroRelation

        pairs = [(f"s{i}", f"t{i % 3}") for i in range(30)]
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
                seen.append(("succ", relation.successors("s1")))
            else:
                seen.append(("pred", relation.predecessors("t1")))

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
                assert result == ("t1",)
            else:
                assert set(result) == {f"s{i}" for i in range(30) if i % 3 == 1}
