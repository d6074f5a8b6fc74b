"""Span-based query-lifecycle tracing.

A :class:`Tracer` records :class:`Span` trees: ``tracer.span("exec.plan",
**attrs)`` is a context manager that times its block, nests under the
enclosing span of the *current thread* (per-thread stacks, so a service
batch fanned across a pool keeps each request's spans well nested), and
appends the finished span to a lock-guarded list.  The ambient tracer is a
module global (:func:`get_tracer`/:func:`set_tracer`/:func:`use_tracer`)
defaulting to :data:`NULL_TRACER`, whose every operation is a constant-time
no-op — the disabled path instrumented code pays by default.

Span ids are small integers allocated under the tracer lock — deliberately
not UUIDs, because id allocation is reachable from the planner and must stay
free of the ``randomness`` effect (REP109).  Context crosses thread-pool
boundaries as plain data: :meth:`Tracer.current` yields a
:class:`SpanContext`, and :meth:`Tracer.attach` adopts it on the worker
thread so its spans nest under the submitter's.
"""

from __future__ import annotations

import threading
from contextlib import AbstractContextManager
from dataclasses import dataclass
from types import TracebackType
from typing import Iterator, TypeVar

from repro.obs import clock
from repro.obs.metrics import Counter, MetricsRegistry, get_registry

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]

_T = TypeVar("_T")


@dataclass(frozen=True)
class SpanContext:
    """The identity of a span: what crosses worker-thread boundaries."""

    trace_id: int
    span_id: int


@dataclass
class Span:
    """One timed, attributed region of a query's execution."""

    name: str
    trace_id: int
    span_id: int
    parent_id: int | None
    start: float
    end: float
    attrs: dict[str, object]
    thread: str = ""

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def set(self, key: str, value: object) -> None:
        """Attach an attribute discovered while the span is open (result
        counts, routing decisions)."""
        self.attrs[key] = value


class _NullSpan(Span):
    """The shared span yielded by the disabled path; drops attributes."""

    def set(self, key: str, value: object) -> None:
        return None


NULL_SPAN = _NullSpan(
    name="", trace_id=0, span_id=0, parent_id=None, start=0.0, end=0.0, attrs={}
)


class _NullHandle(AbstractContextManager[Span]):
    """A reusable no-op context manager: the cost of a disabled span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        return None


_NULL_HANDLE = _NullHandle()


class _SpanHandle(AbstractContextManager[Span]):
    """The live span context manager (allocates on ``__enter__`` so the
    parent is read at entry time, not at construction)."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, object]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._begin(self._name, self._attrs)
        return self._span

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        if self._span is not None:
            if exc_type is not None:
                self._span.attrs.setdefault("error", exc_type.__name__)
            self._tracer._finish(self._span)
        return None


class _AttachHandle(AbstractContextManager[Span]):
    """Installs a foreign parent context on the current thread's stack, so
    spans opened by pool threads nest under the submitting request's span."""

    __slots__ = ("_tracer", "_placeholder")

    def __init__(self, tracer: "Tracer", context: SpanContext) -> None:
        self._tracer = tracer
        self._placeholder = Span(
            name="<attached>",
            trace_id=context.trace_id,
            span_id=context.span_id,
            parent_id=None,
            start=0.0,
            end=0.0,
            attrs={},
        )

    def __enter__(self) -> Span:
        self._tracer._push(self._placeholder)
        return self._placeholder

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self._tracer._drop(self._placeholder)
        return None


class Tracer:
    """The recording tracer; see the module notes for the model."""

    enabled = True

    def __init__(
        self, *, trace_id: int = 1, registry: MetricsRegistry | None = None
    ) -> None:
        self._trace_id = trace_id
        self._lock = threading.Lock()
        self._finished: list[Span] = []  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._local = threading.local()
        self._span_counter: Counter = (
            registry if registry is not None else get_registry()
        ).counter("repro_obs_spans_total", "spans recorded by the tracer")

    # -- the per-thread span stack -------------------------------------------------

    def _stack(self) -> list[Span]:
        stack: list[Span] | None = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _drop(self, span: Span) -> None:
        stack = self._stack()
        if span in stack:
            stack.remove(span)

    # -- span lifecycle ------------------------------------------------------------

    def _allocate_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _begin(self, name: str, attrs: dict[str, object]) -> Span:
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        span = Span(
            name=name,
            trace_id=self._trace_id,
            span_id=self._allocate_id(),
            parent_id=parent_id,
            start=clock.now(),
            end=0.0,
            attrs=attrs,
            thread=threading.current_thread().name,
        )
        stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.end = clock.now()
        self._drop(span)
        with self._lock:
            self._finished.append(span)
        self._span_counter.inc()

    # -- public API ----------------------------------------------------------------

    def span(self, name: str, **attrs: object) -> AbstractContextManager[Span]:
        """A context manager timing one named region; nests under the
        current thread's innermost open span."""
        return _SpanHandle(self, name, attrs)

    def wrap_iter(
        self, name: str, iterator: Iterator[_T], **attrs: object
    ) -> Iterator[_T]:
        """Time the consumption of a streaming result without materializing
        it: the span opens at the first ``next()`` and closes at exhaustion,
        with an ``items`` attribute counting what flowed through."""

        def generate() -> Iterator[_T]:
            count = 0
            with self.span(name, **attrs) as span:
                for item in iterator:
                    count += 1
                    yield item
                span.set("items", count)

        return generate()

    def attach(self, context: SpanContext | None) -> AbstractContextManager[Span]:
        """Adopt a parent context on this thread (pool workers), so spans
        opened here nest under the submitter's span."""
        if context is None:
            return _NULL_HANDLE
        return _AttachHandle(self, context)

    def current(self) -> SpanContext | None:
        """The innermost open span's context on this thread, for handing to
        workers as plain data."""
        stack = self._stack()
        if not stack:
            return None
        return stack[-1].context

    def spans(self) -> tuple[Span, ...]:
        """A snapshot of the finished spans, in completion order."""
        with self._lock:
            return tuple(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()


class NullTracer(Tracer):
    """The disabled path: every operation is a constant-time no-op."""

    enabled = False

    def span(self, name: str, **attrs: object) -> AbstractContextManager[Span]:
        return _NULL_HANDLE

    def wrap_iter(
        self, name: str, iterator: Iterator[_T], **attrs: object
    ) -> Iterator[_T]:
        return iterator

    def attach(self, context: SpanContext | None) -> AbstractContextManager[Span]:
        return _NULL_HANDLE

    def current(self) -> SpanContext | None:
        return None

    def spans(self) -> tuple[Span, ...]:
        return ()


NULL_TRACER = NullTracer()

_ACTIVE: Tracer = NULL_TRACER


def get_tracer() -> Tracer:
    """The ambient tracer (the null tracer unless one was installed)."""
    return _ACTIVE


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install a tracer process-wide (``None`` restores the null tracer);
    returns the previously installed one so callers can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


class _UseTracer(AbstractContextManager[Tracer]):
    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self._tracer)
        return self._tracer

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        set_tracer(self._previous)
        return None


def use_tracer(tracer: Tracer) -> AbstractContextManager[Tracer]:
    """Scope a tracer installation to a ``with`` block."""
    return _UseTracer(tracer)
