"""The tracer: nesting, thread-local stacks, context propagation, null path."""

import threading

from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)


class TestSpans:
    def test_spans_nest_and_record_in_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            with tracer.span("inner") as inner:
                pass
        spans = tracer.spans()
        assert [span.name for span in spans] == ["inner", "outer"]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert outer.attrs == {"kind": "test"}

    def test_set_attaches_attributes_while_open(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.set("pairs", 7)
        assert tracer.spans()[0].attrs["pairs"] == 7

    def test_exceptions_mark_the_span_and_propagate(self):
        tracer = Tracer()
        try:
            with tracer.span("doomed"):
                raise ValueError("boom")
        except ValueError:
            pass
        (span,) = tracer.spans()
        assert span.attrs["error"] == "ValueError"
        assert span.end >= span.start

    def test_sibling_threads_get_independent_stacks(self):
        tracer = Tracer()
        ready = threading.Barrier(2)

        def work(name: str) -> None:
            ready.wait()
            with tracer.span(name):
                pass

        with tracer.span("root"):
            threads = [
                threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # The worker threads never saw the main thread's stack: their spans
        # are parentless, not children of "root".
        by_name = {span.name: span for span in tracer.spans()}
        assert by_name["t0"].parent_id is None
        assert by_name["t1"].parent_id is None

    def test_span_ids_are_unique_and_deterministic(self):
        tracer = Tracer()
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [span.span_id for span in tracer.spans()]
        assert ids == sorted(ids)
        assert len(set(ids)) == 5

    def test_clear_drops_finished_spans(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        tracer.clear()
        assert tracer.spans() == ()

    def test_recorded_counts_finished_spans_across_clears(self):
        tracer = Tracer()
        with tracer.span("outer"), tracer.span("inner"):
            assert tracer.recorded == 0  # open spans are not recorded yet
        tracer.clear()
        with tracer.span("again"):
            pass
        assert tracer.recorded == 3


class TestContextPropagation:
    def test_current_is_the_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("root") as root:
            with tracer.span("inner") as inner:
                assert tracer.current() == inner.context
            assert tracer.current() == root.context
        assert tracer.current() is None

    def test_attach_nests_spans_under_a_foreign_parent(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            context = tracer.current()
        with tracer.attach(context):
            with tracer.span("child"):
                pass
        child = next(span for span in tracer.spans() if span.name == "child")
        assert child.parent_id == root.span_id
        # The placeholder itself is never recorded.
        assert {span.name for span in tracer.spans()} == {"root", "child"}

    def test_attach_none_is_a_noop(self):
        tracer = Tracer()
        with tracer.attach(None):
            with tracer.span("free"):
                pass
        (span,) = tracer.spans()
        assert span.parent_id is None


class TestWrapIter:
    def test_wrap_iter_counts_items_and_nests(self):
        tracer = Tracer()
        with tracer.span("root"):
            assert list(tracer.wrap_iter("stream", iter(range(4)))) == [0, 1, 2, 3]
        stream = next(span for span in tracer.spans() if span.name == "stream")
        assert stream.attrs["items"] == 4
        assert stream.parent_id is not None

    def test_wrap_iter_opens_lazily(self):
        tracer = Tracer()
        wrapped = tracer.wrap_iter("stream", iter(range(2)))
        assert tracer.spans() == ()  # nothing consumed, nothing recorded
        list(wrapped)
        assert len(tracer.spans()) == 1


class TestNullTracer:
    def test_null_tracer_is_free_of_observable_effects(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything", key="value") as span:
            span.set("ignored", 1)
        assert span.attrs == {}
        assert NULL_TRACER.spans() == ()
        assert NULL_TRACER.recorded == 0
        assert NULL_TRACER.current() is None

    def test_null_wrap_iter_returns_the_iterator_unchanged(self):
        iterator = iter(range(3))
        assert NULL_TRACER.wrap_iter("stream", iterator) is iterator


class TestAmbientTracer:
    def test_default_is_the_null_tracer(self):
        assert isinstance(get_tracer(), NullTracer)

    def test_use_tracer_scopes_and_restores(self):
        tracer = Tracer()
        before = get_tracer()
        with use_tracer(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
        assert get_tracer() is before

    def test_set_tracer_none_restores_the_null_tracer(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(None)
        assert isinstance(get_tracer(), NullTracer)
        set_tracer(previous)
