"""The executor layer: planner resolution, executors, budget, parallelism.

The load-bearing property test: every physical execution path — forward
frontier, backward frontier, parallel (thread) frontier — returns exactly
the pair set of the join reference on Hypothesis-generated (specification,
run, query, l1, l2) tuples, including empty and disjoint node lists.  Slower
non-Hypothesis tests cover the process backend and its broken-pool fallback.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.regex import parse_regex
from repro.core.allpairs import AllPairsOptions
from repro.core.decomposition import plan_decomposition
from repro.core.exec import (
    ExecutorConfig,
    FrontierSearchOp,
    LabelDecodeOp,
    RestrictOp,
    WorkerBudget,
    build_physical_plan,
    execute,
    execute_iter,
)
from repro.core.exec import config as config_module
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


@st.composite
def spec_run_query_lists(draw):
    """Random runs + queries + node lists covering the pushdown edge cases:
    ``None``, empty lists, duplicates, and lists disjoint from the answer."""
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

    shape = draw(st.integers(0, 3))
    if shape == 0:
        query = f"{leaf()} . {leaf()}"
    elif shape == 1:
        query = f"({leaf()} | {leaf()})"
    elif shape == 2:
        query = f"({draw(st.sampled_from(tags))})*"
    else:
        query = f"{leaf()} . ({leaf()} | {leaf()})* . {leaf()}"
    nodes = list(run.node_ids())

    def node_list():
        kind = draw(st.integers(0, 4))
        if kind == 0:
            return None
        if kind == 1:
            return []
        count = draw(st.integers(1, 8))
        return [nodes[draw(st.integers(0, len(nodes) - 1))] for _ in range(count)]

    return run, query, node_list(), node_list()


class TestExecutorEquivalence:
    @given(spec_run_query_lists())
    @settings(
        max_examples=50, deadline=None, suppress_health_check=[HealthCheck.data_too_large]
    )
    def test_all_executors_match_the_join_reference(self, data):
        """Forward, backward, auto-direction and parallel-thread executions
        all return the join reference's pair set."""
        run, query, l1, l2 = data
        reference = restrict(evaluate_regex_relation(run, parse_regex(query)), l1, l2)
        for label, kwargs in (
            ("forward", {"strategy": "frontier", "direction": "forward"}),
            ("backward", {"strategy": "frontier", "direction": "backward"}),
            ("auto", {}),
            (
                "parallel-thread",
                {
                    "strategy": "frontier",
                    "executor": ExecutorConfig(workers=4, backend="thread"),
                },
            ),
        ):
            physical = _physical(run, query, l1, l2, **kwargs)
            assert execute(physical) == reference, f"{label} diverged for {query!r}"
            streamed = list(execute_iter(physical))
            assert len(streamed) == len(set(streamed)), f"{label} duplicated pairs"
            assert set(streamed) == reference, f"{label} stream diverged for {query!r}"

    def test_process_backend_matches_serial(self):
        """The process-pool executor (true parallelism) returns the serial
        result — macro relations ship materialized, pairs re-orient."""
        run = _RUNS["paper"][0]
        query = "_* a _*"  # unsafe for the paper grammar, has safe subtrees
        nodes = list(run.node_ids())
        l1, l2 = nodes[::2], nodes[1::3]
        serial = execute(_physical(run, query, l1, l2, strategy="frontier"))
        parallel = set(
            execute_iter(
                _physical(
                    run,
                    query,
                    l1,
                    l2,
                    strategy="frontier",
                    executor=ExecutorConfig(workers=2, backend="process"),
                )
            )
        )
        assert parallel == serial

    def test_backward_execution_crosses_macro_edges(self):
        """Backward searches must follow macro relations against their
        direction; force label routing so a macro edge actually exists."""
        run = _RUNS["paper"][0]
        # Unsafe overall, with '(A | B)+' as a routable maximal safe subtree.
        query = "(e)+ . (A|B)+"
        nodes = list(run.node_ids())
        l1, l2 = nodes, nodes[-3:]
        reference = restrict(evaluate_regex_relation(run, parse_regex(query)), l1, l2)
        physical = _physical(
            run, query, l1, l2,
            strategy="frontier", direction="backward", cost_based_routing=False,
        )
        assert isinstance(physical.root, FrontierSearchOp)
        assert physical.root.macros, "expected a macro-routed safe subtree"
        assert execute(physical) == reference


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
        assert isinstance(physical.root, RestrictOp)
        assert physical.strategy == "join"
        assert physical.direction == "-"

    def test_direction_decision_is_memoized_on_the_plan(self):
        run = _RUNS["paper"][0]
        plan = plan_decomposition(run.spec, "_* a _*")
        nodes = list(run.node_ids())
        assert not plan.direction_hints()
        build_physical_plan(
            run, plan, nodes, nodes[:2], indexes=_indexes(run.spec)
        )
        hints = plan.direction_hints()
        assert list(hints.values()) == ["backward"]
        # A second resolution of the same workload shape reuses the memo.
        build_physical_plan(run, plan, nodes, nodes[:2], indexes=_indexes(run.spec))
        assert plan.direction_hints() == hints

    def test_explicit_direction_overrides_executor_config(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(
            run, "_* a _*", nodes, nodes[:2],
            strategy="frontier",
            direction="forward",
            executor=ExecutorConfig(direction="backward"),
        )
        assert physical.direction == "forward"

    def test_bad_strategy_and_direction_raise(self):
        run = _RUNS["paper"][0]
        with pytest.raises(ValueError, match="unknown strategy"):
            _physical(run, "_* a _*", None, None, strategy="sideways")
        with pytest.raises(ValueError, match="unknown direction"):
            _physical(run, "_* a _*", None, None, direction="sideways")
        with pytest.raises(ValueError, match="unknown direction"):
            ExecutorConfig(direction="sideways")
        with pytest.raises(ValueError, match="workers must be at least 1"):
            ExecutorConfig(workers=0)

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown backend 'gpu'"):
            ExecutorConfig(backend="gpu")

    def test_backend_resolution(self, monkeypatch):
        """Explicit backends pass through; ``auto`` picks processes where
        ``fork`` exists and threads elsewhere."""
        assert ExecutorConfig(backend="thread").resolved_backend() == "thread"
        assert ExecutorConfig(backend="process").resolved_backend() == "process"
        monkeypatch.setattr(config_module.os, "fork", lambda: 0, raising=False)
        monkeypatch.setattr(config_module.sys, "platform", "linux")
        assert ExecutorConfig().resolved_backend() == "process"
        monkeypatch.setattr(config_module.sys, "platform", "win32")
        assert ExecutorConfig().resolved_backend() == "thread"


class TestWorkerBudget:
    def test_lease_grants_at_most_free_capacity(self):
        budget = WorkerBudget(4)
        with budget.lease(3) as first:
            assert first == 3
            with budget.lease(3) as second:
                assert second == 1  # only one slot free
                assert budget.in_use == 4
        assert budget.in_use == 0

    def test_saturated_budget_still_grants_one(self):
        budget = WorkerBudget(1)
        with budget.lease(1):
            with budget.lease(4) as granted:
                assert granted == 1  # degrade to serial, never block

    def test_saturated_budget_degrades_execution_to_serial(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        budget = WorkerBudget(2)
        reference = execute(_physical(run, "_* a _*", nodes[:6], nodes))
        with budget.lease(2):  # a busy batch holds the whole budget
            config = ExecutorConfig(workers=4, backend="thread", budget=budget)
            physical = _physical(
                run, "_* a _*", nodes[:6], nodes, strategy="frontier", executor=config
            )
            assert set(execute_iter(physical)) == reference

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity must be at least 1"):
            WorkerBudget(0)

    def test_lease_releases_before_the_stream_is_drained(self):
        """A slow consumer must not keep budget slots hostage once every
        search chunk has completed."""
        import time

        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        budget = WorkerBudget(4)
        config = ExecutorConfig(workers=4, backend="thread", budget=budget)
        physical = _physical(
            run, "_* a _*", nodes, None, strategy="frontier", executor=config
        )
        stream = execute_iter(physical)
        first = next(stream)  # start execution, drain almost nothing
        assert first
        deadline = time.monotonic() + 10
        while budget.in_use and time.monotonic() < deadline:
            time.sleep(0.01)
        assert budget.in_use == 0, "slots still held after searches finished"
        rest = list(stream)  # the buffered results are all still there
        reference = execute(_physical(run, "_* a _*", nodes, None, strategy="frontier"))
        assert {first, *rest} == reference
        assert budget.in_use == 0


class TestBrokenPoolFallback:
    def test_worker_death_mid_chunk_recomputes_chunks_locally(self, monkeypatch):
        """A process worker that dies mid-chunk breaks the pool: the drain
        loop recomputes every lost chunk in-process, marks the search span,
        and hands the whole fan-out back to the budget."""
        from crash_worker import die_mid_chunk

        monkeypatch.setattr(executor_module, "timed_search_chunk", die_mid_chunk)
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        serial = execute(_physical(run, "_* a _*", nodes, None, strategy="frontier"))
        budget = WorkerBudget(4)
        physical = _physical(
            run, "_* a _*", nodes, None,
            strategy="frontier",
            executor=ExecutorConfig(workers=2, backend="process", budget=budget),
        )
        tracer = Tracer(registry=MetricsRegistry())
        with use_tracer(tracer):
            streamed = list(execute_iter(physical))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == serial
        [search] = [span for span in tracer.spans() if span.name == "exec.frontier_search"]
        assert search.attrs["mode"] == "parallel"
        assert search.attrs.get("fallback") == "local"
        assert budget.in_use == 0

    def test_unusable_process_pool_degrades_to_threads(self, monkeypatch):
        """When a process pool cannot even be constructed, the fan-out runs
        on a thread pool with the in-process task and still matches serial."""
        def no_processes(*args, **kwargs):
            raise OSError("process pools unavailable")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_processes)
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        serial = execute(_physical(run, "_* a _*", nodes, None, strategy="frontier"))
        physical = _physical(
            run, "_* a _*", nodes, None,
            strategy="frontier",
            executor=ExecutorConfig(workers=2, backend="process"),
        )
        tracer = Tracer(registry=MetricsRegistry())
        with use_tracer(tracer):
            streamed = list(execute_iter(physical))
        assert len(streamed) == len(set(streamed))
        assert set(streamed) == serial
        chunks = [span for span in tracer.spans() if span.name == "exec.frontier_chunk"]
        [search] = [span for span in tracer.spans() if span.name == "exec.frontier_search"]
        assert chunks
        # Live thread-pool spans, not chunk records stitched from processes.
        assert all(span.thread != "worker" for span in chunks)
        assert all(span.parent_id == search.span_id for span in chunks)
        assert "fallback" not in search.attrs


class TestPhysicalPlanReporting:
    def test_describe_names_the_choices(self):
        run = _RUNS["paper"][0]
        nodes = list(run.node_ids())
        physical = _physical(run, "_* a _*", nodes, nodes[:2])
        text = physical.describe()
        assert 'frontier' in text
        assert 'backward' in text

    def test_options_flow_through(self):
        run = _RUNS["paper"][0]
        physical = _physical(
            run, "_* a _*", None, None,
            options=AllPairsOptions(use_reachability_filter=False, vectorized=False),
        )
        assert physical.options.use_reachability_filter is False


class TestMacroRelationThreadSafety:
    """The lazily decoded macro relation is shared by every seed search of a
    thread-pool executor (regression: readers used to peek at the half-built
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
