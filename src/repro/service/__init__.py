"""Serving layer: batched multi-run queries over a shared index cache.

This package turns the single-spec, single-query
:class:`~repro.core.engine.ProvenanceQueryEngine` into a service-shaped
subsystem:

* :mod:`repro.service.cache` — a bounded, thread-safe LRU of per-query
  indexes keyed by ``(specification fingerprint, canonical query text)``,
  shared across engines, runs and requests;
* :mod:`repro.service.requests` — the batch request/result model and its
  JSONL wire format (used by ``repro batch``);
* :mod:`repro.service.service` — :class:`QueryService`, which registers many
  runs, deduplicates index builds across a batch and evaluates independent
  requests concurrently, and :func:`metrics_samples`, the flat metrics view
  read from what the service, its cache and the tracer own.
"""

from repro.service.cache import CacheStats, IndexCache
from repro.service.requests import (
    BatchFormatError,
    QueryRequest,
    QueryResult,
    read_requests_jsonl,
    request_from_dict,
    request_to_dict,
    result_to_dict,
)
from repro.service.service import QueryService, metrics_samples

__all__ = [
    "BatchFormatError",
    "CacheStats",
    "IndexCache",
    "QueryRequest",
    "QueryResult",
    "QueryService",
    "read_requests_jsonl",
    "request_from_dict",
    "request_to_dict",
    "metrics_samples",
    "result_to_dict",
]
