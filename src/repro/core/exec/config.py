"""Executor tuning: direction, parallelism, worker budget.

An :class:`ExecutorConfig` travels from the API surface (CLI ``--direction``/
``--workers``, :class:`~repro.service.service.QueryService`) down to the
executor.  A :class:`WorkerBudget` is the service-level throttle: one budget
of ``max_workers`` slots is shared between the batch evaluation pool and
every parallel frontier execution, so a saturated batch degrades frontier
searches to serial instead of oversubscribing the host.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = ["DIRECTIONS", "ExecutorConfig", "WorkerBudget"]

DIRECTIONS = ("auto", "forward", "backward")


class WorkerBudget:
    """A counting lease over a fixed pool of worker slots.

    ``lease(n)`` grants ``min(n, free slots)`` — but always at least one, so
    a caller can proceed serially instead of blocking — and returns the
    grant for the duration of the ``with`` block.  Thread-safe; the service
    leases one slot per in-flight batch request and the parallel executor
    leases its fan-out width, so the two kinds of work share one budget.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("worker budget capacity must be at least 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._in_use = 0  # guarded-by: _lock

    @property
    def in_use(self) -> int:
        with self._lock:
            return self._in_use

    def acquire(self, requested: int) -> int:
        """Take ``min(requested, free slots)`` — at least 1 — immediately.
        Pair every acquire with exactly one :meth:`release` of the grant."""
        with self._lock:
            granted = max(1, min(requested, self.capacity - self._in_use))
            self._in_use += granted
            return granted

    def release(self, granted: int) -> None:
        with self._lock:
            self._in_use -= granted

    @contextmanager
    def lease(self, requested: int) -> Iterator[int]:
        granted = self.acquire(requested)
        try:
            yield granted
        finally:
            self.release(granted)


@dataclass(frozen=True)
class ExecutorConfig:
    """How the unsafe remainder of a general query is physically executed.

    ``direction`` picks the frontier search orientation (``auto`` lets the
    cost model compare seed counts); ``workers`` is the requested per-query
    fan-out (1 = serial) over a process pool — the pure-Python search holds
    the GIL, so only processes scale — merged in completion order, and run
    in-process where processes are unavailable.  ``budget``, when set by a
    service, caps the granted fan-out by what the shared pool has free.

    The compute kernel is fixed per operator, not configured: joins and
    closures run on the packed bitset kernel of :mod:`repro.core.bitset`,
    per-seed frontier searches on the set-based
    :func:`~repro.core.relations.frontier_search`.
    """

    direction: str = "auto"
    workers: int = 1
    budget: WorkerBudget | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}; use one of {list(DIRECTIONS)}"
            )
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
