"""What the engine drops is freed by reference counting alone.

An object that only the cycle collector frees waits for a full collection,
which stalls whichever request happens to trigger it; and a dropped service
or cache that lingers until then keeps every run and index it holds.  Each
test here either disables the collector and checks a weak reference, or
lists what an action leaves for the collector (``gc.DEBUG_SAVEALL``).
"""

import gc
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator

import pytest

from repro.automata.regex import parse_regex, regex_to_string
from repro.core.allpairs import all_pairs_iter
from repro.core.decomposition import plan_decomposition
from repro.core.query_index import build_query_index
from repro.datasets.myexperiment import qblast_specification
from repro.datasets.paper_example import paper_specification
from repro.service import IndexCache, QueryService
from repro.workflow.derivation import derive_run

UNSAFE_QBLAST_QUERY = "_* qx_b _*"


@pytest.fixture(scope="module")
def spec():
    return paper_specification()


@pytest.fixture(scope="module")
def run(spec):
    return derive_run(spec, seed=0, target_edges=40)


@contextmanager
def _collector_off() -> Iterator[None]:
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _cyclic_garbage(action: Callable[[], object]) -> list[str]:
    """The type names of what ``action`` leaves for the cycle collector.

    The action runs once beforehand, so first-use memos are not counted."""
    action()
    gc.collect()
    with _collector_off():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            action()
            gc.collect()
            return sorted(type(obj).__name__ for obj in gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()


class TestNoCyclicGarbage:
    def test_rendering(self):
        node = parse_regex("(a | b)* . (c+ | ~ . _)")
        assert _cyclic_garbage(lambda: regex_to_string(node)) == []

    def test_planning(self):
        spec = qblast_specification()
        query = parse_regex(UNSAFE_QBLAST_QUERY)
        plan = plan_decomposition(spec, query)
        assert not plan.is_fully_safe and plan.safe_subtrees
        assert _cyclic_garbage(lambda: plan_decomposition(spec, query)) == []

    def test_safe_all_pairs_decode(self, spec, run):
        index = build_query_index(spec, "_* e _*")
        nodes = run.node_ids()
        assert list(all_pairs_iter(run, nodes, nodes, index))
        assert _cyclic_garbage(lambda: list(all_pairs_iter(run, nodes, nodes, index))) == []


class TestDroppedOwnersAreFreed:
    def test_cache_that_planned_an_unsafe_query(self):
        spec = qblast_specification()
        with _collector_off():
            cache = IndexCache()
            plan = cache.plan(spec, UNSAFE_QBLAST_QUERY)
            assert not plan.is_fully_safe
            dropped = weakref.ref(cache)
            del cache, plan
            assert dropped() is None

    def test_query_service(self, run):
        with _collector_off():
            service = QueryService(max_workers=2)
            service.register_run(run, "r1")
            results = service.run_batch(
                [
                    {"op": "allpairs", "run": "r1", "query": "_* e _*"},
                    {"op": "allpairs", "run": "r1", "query": "e"},  # unsafe
                ]
            )
            assert all(result.ok for result in results)
            dropped = weakref.ref(service)
            del service
            assert dropped() is None
