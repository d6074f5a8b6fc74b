"""Execution profiles: assembly, coverage, rendering."""

from repro.obs import ExecutionProfile, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span


def _span(name, span_id, parent_id, start, end, **attrs):
    return Span(
        name=name,
        trace_id=1,
        span_id=span_id,
        parent_id=parent_id,
        start=start,
        end=end,
        attrs=dict(attrs),
        thread="main",
    )


class TestAssembly:
    def test_tree_mirrors_parent_links(self):
        spans = [
            _span("child.a", 2, 1, 1.0, 3.0),
            _span("child.b", 3, 1, 3.0, 4.0),
            _span("root", 1, None, 0.0, 5.0),
        ]
        profile = ExecutionProfile.from_spans(spans)
        assert profile.root is not None
        assert profile.root.name == "root"
        assert [child.name for child in profile.root.children] == [
            "child.a",
            "child.b",
        ]
        assert profile.span_count == 3

    def test_longest_parentless_span_is_the_root(self):
        spans = [
            _span("short", 1, None, 0.0, 0.1),
            _span("long", 2, None, 0.0, 2.0),
        ]
        profile = ExecutionProfile.from_spans(spans)
        assert profile.root is not None and profile.root.name == "long"

    def test_from_a_real_tracer(self):
        tracer = Tracer(registry=MetricsRegistry())
        with tracer.span("query.evaluate"):
            with tracer.span("exec.plan"):
                pass
        profile = ExecutionProfile.from_spans(tracer.spans())
        assert profile.root is not None
        assert profile.root.name == "query.evaluate"
        assert profile.root.children[0].name == "exec.plan"

    def test_no_spans_yields_no_root(self):
        profile = ExecutionProfile.from_spans(())
        assert profile.root is None
        assert profile.coverage() == 0.0
        assert profile.render() == "profile: no spans recorded"


class TestCoverage:
    def test_full_coverage_with_overlap_merged(self):
        spans = [
            _span("a", 2, 1, 0.0, 3.0),
            _span("b", 3, 1, 2.0, 5.0),  # overlaps a by 1s
            _span("root", 1, None, 0.0, 5.0),
        ]
        profile = ExecutionProfile.from_spans(spans)
        assert profile.coverage() == 1.0

    def test_gaps_lower_coverage(self):
        spans = [
            _span("a", 2, 1, 0.0, 1.0),
            _span("root", 1, None, 0.0, 4.0),
        ]
        assert ExecutionProfile.from_spans(spans).coverage() == 0.25

    def test_children_clip_to_the_root_window(self):
        spans = [
            _span("a", 2, 1, -1.0, 5.0),  # wider than the root
            _span("root", 1, None, 0.0, 4.0),
        ]
        assert ExecutionProfile.from_spans(spans).coverage() == 1.0


class TestRender:
    def test_render_shows_tree_attrs_and_coverage(self):
        spans = [
            _span("exec.plan", 2, 1, 0.5, 1.0, operator="frontier_search"),
            _span("query.evaluate", 1, None, 0.0, 2.0),
        ]
        text = ExecutionProfile.from_spans(spans).render()
        assert "query.evaluate" in text
        assert "└─ exec.plan (operator=frontier_search)" in text
        assert "coverage: 25.0%" in text
        assert "2 spans" in text

    def test_render_respects_max_depth(self):
        spans = [
            _span("leaf", 3, 2, 0.0, 1.0),
            _span("mid", 2, 1, 0.0, 1.0),
            _span("root", 1, None, 0.0, 1.0),
        ]
        text = ExecutionProfile.from_spans(spans).render(max_depth=1)
        assert "mid" in text
        assert "leaf" not in text
