"""Exporters: Chrome trace-event JSON and Prometheus text exposition."""

import json

from repro.obs import Histogram, Tracer, chrome_trace, prometheus_text


def _spans():
    tracer = Tracer()
    with tracer.span("query.evaluate", query="a b"):
        with tracer.span("exec.frontier_search", mode="serial"):
            pass
    return tracer.spans()


class TestChromeTrace:
    def test_complete_events_with_metadata(self):
        document = chrome_trace(_spans(), process_name="unit")
        assert document["displayTimeUnit"] == "ms"
        events = document["traceEvents"]
        meta = [event for event in events if event["ph"] == "M"]
        assert meta[0]["args"] == {"name": "unit"}
        complete = [event for event in events if event["ph"] == "X"]
        assert {event["name"] for event in complete} == {
            "query.evaluate",
            "exec.frontier_search",
        }
        for event in complete:
            assert event["cat"] == event["name"].split(".")[0]
            assert event["dur"] >= 0
        child = next(e for e in complete if e["name"] == "exec.frontier_search")
        parent = next(e for e in complete if e["name"] == "query.evaluate")
        assert child["args"]["parent_id"] == parent["args"]["span_id"]
        assert child["args"]["mode"] == "serial"

    def test_document_is_json_serializable(self):
        json.dumps(chrome_trace(_spans()))

    def test_threads_map_to_stable_named_tids(self):
        document = chrome_trace(_spans())
        events = document["traceEvents"]
        thread_meta = [e for e in events if e.get("name") == "thread_name"]
        assert len(thread_meta) == 1  # one thread, one row
        tid = thread_meta[0]["tid"]
        assert all(e["tid"] == tid for e in events if e["ph"] == "X")

    def test_empty_span_list(self):
        document = chrome_trace(())
        assert [e["name"] for e in document["traceEvents"]] == ["process_name"]


class TestPrometheusText:
    def test_samples_render_typed_by_name(self):
        text = prometheus_text({"repro_hits_total": 3.0, "repro_depth": 1.5})
        assert "# TYPE repro_hits_total counter\nrepro_hits_total 3\n" in text
        assert "# TYPE repro_depth gauge\nrepro_depth 1.5\n" in text

    def test_histogram_renders_cumulative_buckets(self):
        histogram = Histogram("repro_latency", "request latency", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        text = prometheus_text(histogram.samples(), [histogram])
        assert "# HELP repro_latency request latency" in text
        assert "# TYPE repro_latency histogram" in text
        assert 'repro_latency_bucket{le="0.1"} 1' in text
        assert 'repro_latency_bucket{le="1.0"} 2' in text
        assert 'repro_latency_bucket{le="+Inf"} 2' in text
        # the histogram's own _count/_sum samples are not repeated as gauges
        assert text.count("repro_latency_count") == 1
        assert "# TYPE repro_latency_sum" not in text

    def test_histogram_without_help_has_no_help_line(self):
        histogram = Histogram("repro_size", buckets=(1.0,))
        text = prometheus_text({}, [histogram])
        assert "# HELP" not in text
        assert text.startswith("# TYPE repro_size histogram\n")
        assert 'repro_size_bucket{le="+Inf"} 0' in text

    def test_nothing_renders_empty(self):
        assert prometheus_text({}) == ""
