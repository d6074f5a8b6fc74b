"""Metric catalogue and statistics of the rpq benchmark.

``END_TO_END`` and ``PER_LAYER`` are the metric sets printed on the last
output line of an untraced and a traced run; ``BENCHMARK.json`` at the
repository root must list exactly the same names, units and directions (the
self-test checks it).  ``CLASS_METRICS`` split latency by request class; they
are printed and stored in result files but are not part of the last line,
because each exists on only some workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from layers import LAYER_NAMES


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    #: Regression bound of a request-class metric (a share of the parent's
    #: median); end-to-end bounds live in BENCHMARK.json.
    bound: float = 0.0


END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower"),
    Metric("ops_per_s", "ops/s", "higher"),
    Metric("p50_ms", "ms", "lower"),
    Metric("p95_ms", "ms", "lower"),
    Metric("peak_rss_mb", "MB", "lower"),
)

#: Units and directions of the request-class metrics; which of them a
#: workload reports is declared by its ``classes`` in ``workloads.py``.
CLASS_METRICS: dict[str, Metric] = {
    metric.name: metric
    for metric in (
        # An absolute bound: any failed or wrong answer is a regression.
        Metric("error_rate", "fraction", "lower", 0.0),
        Metric("pairwise_p50_ms", "ms", "lower", 0.25),
        Metric("pairwise_p95_ms", "ms", "lower", 0.25),
        Metric("allpairs_p50_ms", "ms", "lower", 0.25),
        Metric("allpairs_p95_ms", "ms", "lower", 0.25),
        Metric("first_query_p50_ms", "ms", "lower", 0.25),
        Metric("first_query_p95_ms", "ms", "lower", 0.25),
        Metric("ingest_p50_ms", "ms", "lower", 0.25),
        Metric("ingest_p95_ms", "ms", "lower", 0.25),
        Metric("restart_query_p50_ms", "ms", "lower", 0.25),
        Metric("restart_query_p95_ms", "ms", "lower", 0.25),
        # Deterministic: the runs, queries and flush policy are fixed.
        Metric("store_kb_per_run", "KB", "lower", 0.02),
    )
}

PER_LAYER: tuple[Metric, ...] = (
    *(
        metric
        for layer in LAYER_NAMES
        for metric in (
            Metric(f"{layer}.calls_per_op", "count", "lower"),
            Metric(f"{layer}.self_ms_per_op", "ms", "lower"),
            Metric(f"{layer}.self_share", "fraction", "lower"),
        )
    ),
    Metric("cache.hit_ratio", "fraction", "higher"),
    Metric("cache.evictions_per_op", "count", "lower"),
    Metric("cache.builds_per_op", "count", "lower"),
    Metric("store.hit_ratio", "fraction", "higher"),
    Metric("store.kb_written_per_op", "KB", "lower"),
    Metric("decode.pairs_per_op", "count", "higher"),
    Metric("exec.pairs_per_op", "count", "higher"),
    Metric("trace.overhead", "fraction", "lower"),
    Metric("trace.unattributed_share", "fraction", "lower"),
)

#: Samples a percentile needs beyond it before it is reported.
SAMPLES_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def required_samples(quantile: float) -> int:
    """The smallest sample with :data:`SAMPLES_BEYOND` values beyond ``quantile``."""
    return math.ceil(round(SAMPLES_BEYOND / (1.0 - quantile), 9))


def percentile(values: list[float], quantile: float) -> float:
    """The ``quantile`` of ``values`` (linear interpolation between order
    statistics), refused when fewer than :data:`SAMPLES_BEYOND` samples lie
    beyond it."""
    needed = required_samples(quantile)
    if len(values) < needed:
        raise InsufficientSamples(
            f"p{round(quantile * 100)} needs {needed} samples, got {len(values)}"
        )
    ordered = sorted(values)
    rank = quantile * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def last_line(record: dict[str, Any]) -> dict[str, Any]:
    """The one-line result of a run record: the end-to-end metrics, or the
    per-layer ones when the run was traced."""
    names = PER_LAYER if record["trace"] else END_TO_END
    source = record["layers"] if record["trace"] else record["metrics"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            metric.name: {"value": source[metric.name]["value"], "unit": metric.unit}
            for metric in names
        },
    }
