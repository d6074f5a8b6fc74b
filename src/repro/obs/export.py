"""Exporters: Chrome trace-event JSON and Prometheus text exposition.

:func:`chrome_trace` turns a tracer's finished spans into the trace-event
format (``ph: "X"`` complete events, microsecond timestamps) that loads in
Perfetto / ``chrome://tracing``; :func:`prometheus_text` renders flat
``{name: value}`` samples plus owned :class:`~repro.obs.metrics.Histogram`
objects in the text exposition format (``# TYPE`` plus samples, histograms
with ``# HELP`` and cumulative ``le`` buckets).  Both are pure data
transforms — no IO — so the CLI and tests own where the bytes go.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.obs.metrics import Histogram
from repro.obs.tracer import Span

__all__ = ["chrome_trace", "prometheus_text"]


def chrome_trace(spans: Sequence[Span], *, process_name: str = "repro") -> dict[str, object]:
    """The trace-event document for a span list.

    Thread names map to stable small ``tid`` integers in order of first
    appearance, with metadata events naming them, so Perfetto renders one
    labeled row per thread.
    """
    tids: dict[str, int] = {}
    events: list[dict[str, object]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    for span in spans:
        tid = tids.get(span.thread)
        if tid is None:  # first appearance: emit the thread-name metadata
            tid = tids[span.thread] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": span.thread or f"thread-{tid}"},
                }
            )
        args: dict[str, object] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": round(span.start * 1_000_000, 3),
                "dur": round(span.duration * 1_000_000, 3),
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _format_value(value: float) -> str:
    if value == int(value):
        return str(int(value))
    return repr(value)


def prometheus_text(
    samples: Mapping[str, float], histograms: Sequence[Histogram] = ()
) -> str:
    """Samples and histograms in Prometheus text exposition format.

    A sample named ``*_total`` renders as a counter, any other as a gauge;
    a sample that is a listed histogram's ``_count`` or ``_sum`` is left to
    that histogram, which renders with its cumulative ``le`` buckets.
    """
    owned = {
        f"{histogram.name}_{part}" for histogram in histograms for part in ("count", "sum")
    }
    lines: list[str] = []
    for name in sorted(samples):
        if name in owned:
            continue
        lines.append(f"# TYPE {name} {'counter' if name.endswith('_total') else 'gauge'}")
        lines.append(f"{name} {_format_value(float(samples[name]))}")
    for histogram in histograms:
        if histogram.help:
            lines.append(f"# HELP {histogram.name} {histogram.help}")
        lines.append(f"# TYPE {histogram.name} histogram")
        cumulative = histogram.bucket_counts()
        for bound, count in zip(histogram.bounds, cumulative):
            lines.append(f'{histogram.name}_bucket{{le="{bound}"}} {count}')
        lines.append(f'{histogram.name}_bucket{{le="+Inf"}} {cumulative[-1]}')
        lines.append(f"{histogram.name}_sum {_format_value(histogram.sum)}")
        lines.append(f"{histogram.name}_count {cumulative[-1]}")
    return "\n".join(lines) + "\n" if lines else ""
