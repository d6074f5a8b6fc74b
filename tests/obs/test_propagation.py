"""Trace-context propagation across the executor's process pool.

The load-bearing claims: chunk spans stitched from process-pool records nest
under the ``exec.frontier_search`` span of the submitting thread and
assemble into one connected profile, and a saturated budget degrading
execution to serial still produces a correctly nested search span (mode
visible).
"""

from repro.core.decomposition import plan_decomposition
from repro.core.exec import ExecutorConfig, WorkerBudget, build_physical_plan, execute_iter
from repro.core.query_index import build_query_index
from repro.datasets.paper_example import paper_specification
from repro.obs import ExecutionProfile, Tracer, use_tracer
from repro.obs.metrics import MetricsRegistry
from repro.workflow.derivation import derive_run

_SPEC = paper_specification()
_RUN = derive_run(_SPEC, seed=0, target_edges=70)
_QUERY = "_* a _*"  # unsafe for the paper grammar: exercises frontier search


def _physical(executor):
    plan = plan_decomposition(_SPEC, _QUERY)
    nodes = list(_RUN.node_ids())
    return build_physical_plan(
        _RUN,
        plan,
        nodes,
        None,
        indexes=lambda node: build_query_index(_SPEC, node),
        strategy="frontier",
        executor=executor,
    )


def _traced_pairs(executor):
    tracer = Tracer(registry=MetricsRegistry())
    with use_tracer(tracer):
        pairs = set(execute_iter(_physical(executor)))
    return pairs, tracer.spans()


def _search_span(spans):
    matches = [span for span in spans if span.name == "exec.frontier_search"]
    assert len(matches) == 1
    return matches[0]


_REFERENCE = set(execute_iter(_physical(ExecutorConfig())))


class TestProcessBackend:
    def test_worker_records_stitch_under_the_search_span(self):
        pairs, spans = _traced_pairs(ExecutorConfig(workers=2))
        assert pairs == _REFERENCE
        search = _search_span(spans)
        assert search.attrs["mode"] == "parallel"
        chunks = [span for span in spans if span.name == "exec.frontier_chunk"]
        assert chunks, "process workers shipped no chunk records"
        for chunk in chunks:
            assert chunk.parent_id == search.span_id
            assert chunk.thread == "worker"
            # Stitching clamps into the search window, so the profile stays
            # well formed even under exotic clock behavior.
            assert search.start <= chunk.start <= chunk.end
        assert sum(chunk.attrs["seeds"] for chunk in chunks) == len(_RUN.node_ids())

    def test_profile_assembles_one_connected_tree(self):
        _, spans = _traced_pairs(ExecutorConfig(workers=2))
        profile = ExecutionProfile.from_spans(spans)
        assert profile.root is not None
        names = set()
        stack = [profile.root]
        while stack:
            node = stack.pop()
            names.add(node.name)
            stack.extend(node.children)
        assert "exec.frontier_chunk" in names


class TestSerialDegrade:
    def test_saturated_budget_keeps_the_span_nested_and_visible(self):
        budget = WorkerBudget(2)
        with budget.lease(2):  # a busy batch holds the whole budget
            config = ExecutorConfig(workers=4, budget=budget)
            tracer = Tracer(registry=MetricsRegistry())
            with use_tracer(tracer):
                with tracer.span("caller") as caller:
                    pairs = set(execute_iter(_physical(config)))
        assert pairs == _REFERENCE
        search = _search_span(tracer.spans())
        assert search.attrs["mode"] == "serial-degraded"
        assert search.parent_id == caller.span_id
        assert not [
            span for span in tracer.spans() if span.name == "exec.frontier_chunk"
        ]

    def test_unsaturated_budget_still_fans_out(self):
        config = ExecutorConfig(workers=2, budget=WorkerBudget(4))
        pairs, spans = _traced_pairs(config)
        assert pairs == _REFERENCE
        search = _search_span(spans)
        assert search.attrs["mode"] == "parallel"
        assert search.attrs["workers"] == 2
