"""A lock-annotated fixed-bucket histogram.

Every count in the process has one owner, and that owner keeps it: the
index cache its :class:`~repro.service.cache.CacheStats`, the store its
:class:`~repro.store.StoreCounters`, the tracer its recorded-span count, and
the query service its request-latency :class:`Histogram`.  There is no
process-wide registry; the exporters read these owners directly
(:func:`repro.service.metrics_samples`), so no counter is maintained twice
and a dropped service takes its metrics with it.

The histogram guards its cells with its own leaf lock (``# guarded-by:``
annotated, so the runtime lockset sanitizer checks the discipline); that
lock is never held while acquiring any other lock, which keeps the
lock-order graph (REP108) trivially acyclic.
"""

from __future__ import annotations

import bisect
import threading

__all__ = ["Histogram"]

#: Default histogram bucket bounds (seconds): micro-benchmarks to batches.
DEFAULT_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)


class Histogram:
    """A fixed-bucket histogram of observations (latencies, sizes).

    Buckets are fixed at construction — no dynamic resizing, so ``observe``
    is one bisect plus three guarded writes, cheap enough for per-span use.
    """

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
