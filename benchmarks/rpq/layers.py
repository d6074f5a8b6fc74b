"""The layer table and the outside-in span tracer of the rpq benchmark.

Spans are recorded from this file only: :class:`LayerTracer` rebinds each
``module:qualname`` target of :data:`LAYERS` to a timing wrapper for the
length of a traced window and restores the originals afterwards, so the
program under test carries no instrumentation of its own for this benchmark.

Every alias of a target is rebound, because modules import functions by
name (``repro.service.cache`` does ``from repro.core.safety import
analyze_safety``): the tracer scans every loaded ``repro.*`` module for
attributes bound to the original object.  Methods are rebound on their class.
A target that no longer resolves is reported as unmapped instead of failing
the run, so a later change that renames a function shows up in the report.

Each span is ``(name, start, end, parent, request_id)``; a layer's self time
is its spans' durations minus the part covered by their child spans.  Spans
are recorded on the thread that installed the tracer (the client thread: the
service answers ``execute`` inline and its default executor is serial);
calls from any other thread pass through untimed and are counted as
``foreign_calls``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


@dataclass(frozen=True)
class Layer:
    """One layer: its name and the public functions whose calls are timed as
    this layer, each mapped to the workload where it does most of its work
    (the self-test requires every target to record a call there)."""

    name: str
    serves: dict[str, str]


HOT, ADHOC, HEAVY, STORE = "hot-serve", "adhoc-queries", "heavy-allpairs", "store-cycle"

#: Layers in call order from the outside in.  Some functions are not on the
#: service path under production defaults, so they are not targets:
#: ``build_query_index`` (the cache builds ``QueryIndex`` directly),
#: ``derive_run`` (runs are derived during set-up), ``execute_iter`` (the
#: service materializes) and the set-kernel ``evaluate_regex_relation``
#: (joins run packed).
LAYERS: tuple[Layer, ...] = (
    Layer(
        "service",
        {
            "repro.service.service:QueryService.__init__": STORE,
            "repro.service.service:QueryService.execute": HOT,
            "repro.service.service:QueryService.warm": STORE,
            "repro.service.service:QueryService.load_run_file": STORE,
            "repro.service.service:QueryService.register_run": STORE,
        },
    ),
    Layer(
        "cache",
        {
            "repro.service.cache:IndexCache.safety": ADHOC,
            "repro.service.cache:IndexCache.index": ADHOC,
            "repro.service.cache:IndexCache.plan": ADHOC,
            "repro.service.cache:IndexCache.sync": STORE,
        },
    ),
    Layer(
        "store",
        {
            "repro.store.store:IndexStore.load": STORE,
            "repro.store.store:IndexStore.save": STORE,
            "repro.store.store:IndexStore.save_run": STORE,
            "repro.store.store:IndexStore.load_run": STORE,
        },
    ),
    Layer(
        "workflow",
        {
            "repro.workflow.serialization:load_run": STORE,
            "repro.workflow.serialization:run_from_dict": STORE,
            "repro.workflow.serialization:run_to_dict": STORE,
        },
    ),
    Layer(
        "automata",
        {
            "repro.automata.regex:parse_regex": ADHOC,
            "repro.automata.nfa:nfa_from_regex": ADHOC,
            "repro.automata.dfa:determinize": ADHOC,
            "repro.automata.minimize:minimize_dfa": ADHOC,
        },
    ),
    Layer(
        "safety",
        {
            "repro.core.safety:query_dfa": ADHOC,
            "repro.core.safety:analyze_safety": ADHOC,
        },
    ),
    Layer("query_index", {"repro.core.query_index:QueryIndex.__init__": ADHOC}),
    Layer(
        "planner",
        {
            "repro.core.decomposition:plan_decomposition": ADHOC,
            "repro.core.decomposition:label_routed_subtrees": ADHOC,
            "repro.core.decomposition:warm_frontier_dfa": STORE,
            "repro.core.exec.plan:build_physical_plan": ADHOC,
        },
    ),
    Layer(
        "decode",
        {
            "repro.core.pairwise:answer_pairwise_query": HOT,
            "repro.labeling.reachability:is_reachable": HOT,
            "repro.core.allpairs:all_pairs_iter": HOT,
        },
    ),
    Layer(
        "exec",
        {
            "repro.core.decomposition:evaluate_general_query": HEAVY,
            "repro.core.exec.executor:execute": HEAVY,
        },
    ),
    Layer(
        "relations",
        {
            "repro.core.relations:frontier_search": HEAVY,
            "repro.core.relations:restriction_universe": HEAVY,
            "repro.core.relations:evaluate_regex_relation_packed": HEAVY,
            "repro.core.bitset:PackedRelation.compose": HEAVY,
            "repro.core.bitset:PackedRelation.transitive_closure": HEAVY,
            "repro.core.bitset:PackedRelation.to_pairs": HEAVY,
        },
    ),
)

LAYER_NAMES: tuple[str, ...] = tuple(layer.name for layer in LAYERS)

#: Layers whose outermost spans report the pairs they produce.
PAIR_LAYERS = ("decode", "exec")

#: Span records kept for the Chrome trace; aggregates cover every span.
SPAN_CAP = 200_000


@dataclass
class TargetStats:
    layer: str
    calls: int = 0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "layer", "start", "child_s", "parent", "span")

    def __init__(self, name: int, layer: int, start: float, parent: int, span: int) -> None:
        self.name = name
        self.layer = layer
        self.start = start
        self.child_s = 0.0
        self.parent = parent
        self.span = span


class LayerTracer:
    """Times calls into the layer targets while :attr:`active` is set.

    Use as a context manager around the traced window (install on enter,
    restore on exit) and flip :attr:`active` around each timed request, so
    benchmark-side work between requests is never attributed to a layer.
    """

    def __init__(self, layers: tuple[Layer, ...] = LAYERS) -> None:
        self.layers = layers
        self.active = False
        self.request_id = -1
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.stats: list[TargetStats] = []
        self.unmapped: dict[str, str] = {}
        self.pairs = [0] * len(layers)
        self.foreign_calls = 0
        self.dropped_spans = 0
        self.spans: list[tuple[int, float, float, int, int]] = []
        self._stack: list[_Frame] = []
        self._layer_depth = [0] * len(layers)
        self._pair_layers = {
            index for index, layer in enumerate(layers) if layer.name in PAIR_LAYERS
        }
        self._owner = threading.get_ident()
        self._restore: list[Callable[[], None]] = []

    # -- install / restore -------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        self._owner = threading.get_ident()
        for layer_index, layer in enumerate(self.layers):
            for target in layer.serves:
                try:
                    self._install(target, layer_index)
                except (ImportError, AttributeError, ValueError) as error:
                    self.unmapped[target] = f"{type(error).__name__}: {error}"
        return self

    def __exit__(self, *exc: object) -> None:
        self.active = False
        while self._restore:
            self._restore.pop()()

    def _install(self, target: str, layer_index: int) -> None:
        module_name, _, qualname = target.partition(":")
        if not qualname:
            raise ValueError(f"target {target!r} is not 'module:qualname'")
        module = importlib.import_module(module_name)
        owner_name, _, attribute = qualname.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = vars(owner).get(attribute)
        if not callable(original):
            raise AttributeError(f"{module_name}.{qualname} is not a function")
        name_id = len(self.names)
        self.names.append(qualname)
        self.name_layer.append(layer_index)
        self.stats.append(TargetStats(self.layers[layer_index].name))
        wrapper = self._wrap(original, name_id)
        if owner_name:
            setattr(owner, attribute, wrapper)
            self._restore.append(lambda: setattr(owner, attribute, original))
            return
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            for alias, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, alias, wrapper)
                    self._restore.append(
                        lambda loaded=loaded, alias=alias: setattr(loaded, alias, original)
                    )

    def _wrap(self, original: Callable[..., Any], name_id: int) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            if threading.get_ident() != tracer._owner:
                tracer.foreign_calls += 1
                return original(*args, **kwargs)
            frame = tracer._enter(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                outermost = tracer._exit(frame)
            if isinstance(result, Iterator):
                return _TimedIterator(tracer, result, name_id)
            if outermost and isinstance(result, (set, frozenset)):
                tracer._count_pairs(frame.layer, len(result))
            return result

        return wrapper

    # -- spans -------------------------------------------------------------------

    def _enter(self, name_id: int) -> _Frame:
        layer = self.name_layer[name_id]
        self._layer_depth[layer] += 1
        stack = self._stack
        parent = stack[-1].span if stack else -1
        if len(self.spans) < SPAN_CAP:
            span = len(self.spans)
            self.spans.append((name_id, 0.0, 0.0, parent, self.request_id))
        else:
            span = -1
        frame = _Frame(name_id, layer, 0.0, parent, span)
        stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def _exit(self, frame: _Frame) -> bool:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        stats = self.stats[frame.name]
        stats.calls += 1
        stats.self_s += duration - frame.child_s
        if stack:
            stack[-1].child_s += duration
        if frame.span >= 0:
            self.spans[frame.span] = (frame.name, frame.start, end, frame.parent, self.request_id)
        else:
            self.dropped_spans += 1
        self._layer_depth[frame.layer] -= 1
        return self._layer_depth[frame.layer] == 0

    def _count_pairs(self, layer: int, count: int) -> None:
        if layer in self._pair_layers:
            self.pairs[layer] += count

    # -- reporting ---------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over every recorded span."""
        totals = {layer.name: (0, 0.0) for layer in self.layers}
        for stats in self.stats:
            calls, self_s = totals[stats.layer]
            totals[stats.layer] = (calls + stats.calls, self_s + stats.self_s)
        return totals

    def target_calls(self) -> dict[str, int]:
        """Calls per ``layer:qualname`` target (unmapped targets excluded)."""
        return {
            f"{stats.layer}:{name}": stats.calls for name, stats in zip(self.names, self.stats)
        }

    def pair_totals(self) -> dict[str, int]:
        return {self.layers[index].name: self.pairs[index] for index in sorted(self._pair_layers)}

    def write_chrome_trace(self, path: Path, metadata: dict[str, Any]) -> None:
        """Write the recorded spans as Chrome trace-event JSON (complete
        events, microseconds since the first span)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [
            {
                "name": self.names[name],
                "cat": self.layers[self.name_layer[name]].name,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"span": index, "parent": parent, "request_id": request},
            }
            for index, (name, start, end, parent, request) in enumerate(self.spans)
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                **metadata,
                "dropped_spans": self.dropped_spans,
                "foreign_calls": self.foreign_calls,
                "unmapped": self.unmapped,
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


class _TimedIterator:
    """Times each ``next`` of an iterator returned by a target as one span
    of that target, and counts the items of outermost pair-layer spans."""

    __slots__ = ("_tracer", "_inner", "_name")

    def __init__(self, tracer: LayerTracer, inner: Iterator[Any], name_id: int) -> None:
        self._tracer = tracer
        self._inner = inner
        self._name = name_id

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self) -> Any:
        tracer = self._tracer
        if not tracer.active or threading.get_ident() != tracer._owner:
            return next(self._inner)
        frame = tracer._enter(self._name)
        try:
            item = next(self._inner)
        finally:
            outermost = tracer._exit(frame)
        if outermost:
            tracer._count_pairs(frame.layer, 1)
        return item
