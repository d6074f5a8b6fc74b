"""A lock-annotated metrics registry: counters, gauges, histograms.

One process-wide :class:`MetricsRegistry` (:func:`get_registry`) is the
queryable surface unifying the counters that used to live scattered across
``CacheStats`` and the service's batch summaries.  The
native instruments (cache hits, store reads, spans recorded, ...) are
incremented at the source; state that already has an owner with its own lock
discipline (the cache's entry table) is exposed through
registered *collectors* — callables polled at snapshot time — so no counter
is maintained twice.

Every instrument guards its cell with its own leaf lock (``# guarded-by:``
annotated, so the runtime lockset sanitizer checks the discipline); an
instrument lock is never held while acquiring any other lock, which keeps
the lock-order graph (REP108) trivially acyclic however deep in the engine
an ``inc()`` happens.
"""

from __future__ import annotations

import bisect
import threading
from typing import Callable, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "get_registry",
]

#: Default histogram bucket bounds (seconds): micro-benchmarks to batches.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class Counter:
    """A monotonically increasing counter."""

    kind = "counter"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for deltas")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> dict[str, float]:
        return {self.name: self.value}


class Gauge:
    """A value that can go up and down (pool occupancy, cache size)."""

    kind = "gauge"

    def __init__(self, name: str, help_text: str = "") -> None:
        self.name = name
        self.help = help_text
        self._lock = threading.Lock()
        self._value = 0.0  # guarded-by: _lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def samples(self) -> dict[str, float]:
        return {self.name: self.value}


class Histogram:
    """A fixed-bucket histogram of observations (latencies, sizes).

    Buckets are fixed at construction — no dynamic resizing, so ``observe``
    is one bisect plus three guarded writes, cheap enough for per-span use.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        if not buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self.name = name
        self.help = help_text
        self.bounds = tuple(sorted(buckets))
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # guarded-by: _lock
        self._sum = 0.0  # guarded-by: _lock
        self._count = 0  # guarded-by: _lock

    def observe(self, value: float) -> None:
        slot = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[slot] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def bucket_counts(self) -> tuple[int, ...]:
        """Cumulative counts per bound (Prometheus ``le`` semantics), with
        the final element the total (the ``+Inf`` bucket)."""
        with self._lock:
            raw = list(self._counts)
        cumulative: list[int] = []
        total = 0
        for count in raw:
            total += count
            cumulative.append(total)
        return tuple(cumulative)

    def samples(self) -> dict[str, float]:
        return {f"{self.name}_count": float(self.count), f"{self.name}_sum": self.sum}


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """The process-wide metric table plus polled collectors.

    ``counter``/``gauge``/``histogram`` are get-or-create (re-registration
    with the same kind returns the existing instrument, so call sites need
    no module-level singletons); a *collector* is a named callable returning
    ``{metric_name: value}`` polled at :meth:`snapshot` time, used to expose
    state that already lives behind another component's lock.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}  # guarded-by: _lock
        self._collectors: dict[str, Callable[[], Mapping[str, float]]] = {}  # guarded-by: _lock

    def _instrument(self, name: str, factory: Callable[[], Metric]) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is None:
                existing = factory()
                self._metrics[name] = existing
            return existing

    def counter(self, name: str, help_text: str = "") -> Counter:
        metric = self._instrument(name, lambda: Counter(name, help_text))
        if not isinstance(metric, Counter):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a counter")
        return metric

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        metric = self._instrument(name, lambda: Gauge(name, help_text))
        if not isinstance(metric, Gauge):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a gauge")
        return metric

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        metric = self._instrument(name, lambda: Histogram(name, help_text, buckets))
        if not isinstance(metric, Histogram):
            raise TypeError(f"metric {name!r} is a {metric.kind}, not a histogram")
        return metric

    def register_collector(
        self, name: str, collect: Callable[[], Mapping[str, float]]
    ) -> None:
        """Register (or replace) a polled collector.  Replacement is the
        point: a new service instance re-registers under the same name and
        the snapshot follows the live object instead of a dead one."""
        with self._lock:
            self._collectors[name] = collect

    def unregister_collector(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    def metrics(self) -> tuple[Metric, ...]:
        with self._lock:
            return tuple(self._metrics[name] for name in sorted(self._metrics))

    def collectors(self) -> tuple[tuple[str, Callable[[], Mapping[str, float]]], ...]:
        with self._lock:
            return tuple(sorted(self._collectors.items()))

    def snapshot(self) -> dict[str, float]:
        """One flat ``{name: value}`` view: every instrument's samples plus
        every collector's current output (collectors win on name collisions,
        matching their role as the live owner of the state)."""
        values: dict[str, float] = {}
        for metric in self.metrics():
            values.update(metric.samples())
        for _, collect in self.collectors():
            values.update({name: float(value) for name, value in collect().items()})
        return values

    def reset(self) -> None:
        """Drop every instrument and collector (test isolation)."""
        with self._lock:
            self._metrics.clear()
            self._collectors.clear()


_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _REGISTRY
