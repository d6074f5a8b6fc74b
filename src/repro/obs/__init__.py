"""Observability: query-lifecycle tracing, metrics, execution profiles.

The package the engine is instrumented against:

* :mod:`repro.obs.tracer` — span-based tracing with an ambient tracer
  (:func:`get_tracer`), a near-zero-overhead null default, per-thread span
  stacks, and context propagation across pool threads;
* :mod:`repro.obs.metrics` — the lock-annotated fixed-bucket
  :class:`Histogram`; there is no metrics registry, since every count is
  read from the component that owns it (the service's ``CacheStats`` and
  latency histogram, the tracer's :attr:`Tracer.recorded`);
* :mod:`repro.obs.profile` — per-query :class:`ExecutionProfile` trees with
  the coverage metric the acceptance bar reads (rendered by
  ``repro query --profile``; profiles are never persisted);
* :mod:`repro.obs.export` — Chrome trace-event JSON and Prometheus text;
* :mod:`repro.obs.clock` — the one sanctioned monotonic-clock read
  (the REP109 ``# effect-exempt: clock`` carve-out).

Nothing here imports the engine, so any layer — planner included — may
import this package without cycles.
"""

from repro.obs import clock
from repro.obs.export import chrome_trace, prometheus_text
from repro.obs.metrics import Histogram
from repro.obs.profile import ExecutionProfile, ProfileNode
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanContext,
    Tracer,
    get_tracer,
    set_tracer,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "ExecutionProfile",
    "Histogram",
    "NullTracer",
    "ProfileNode",
    "Span",
    "SpanContext",
    "Tracer",
    "chrome_trace",
    "clock",
    "get_tracer",
    "prometheus_text",
    "set_tracer",
    "use_tracer",
]
