"""Physical operators of the executor layer.

A physical plan (see :mod:`repro.core.exec.plan`) wraps one of the
operators defined here.  Operators are *descriptions*: they carry everything
an executor needs — seeds, direction-adjusted DFA, pruning universe, macro
relations — but do no work themselves, so a plan can be built once (pure,
unit-testable) and handed to the executor without re-planning.

``MacroRelation`` is the one stateful piece: the label-decoded relation of a
routed safe subquery, materialized lazily on the first frontier expansion
that crosses its macro edge and shared — thread-safely — by every
execution of the operator, in either direction.  It keys its adjacency by
node position, like the sweep that reads it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

from repro.automata.dfa import DFA
from repro.automata.regex import RegexNode
from repro.obs import get_tracer

__all__ = [
    "FrontierSearchOp",
    "JoinOp",
    "LabelDecodeOp",
    "MacroRelation",
    "PhysicalOp",
]


class MacroRelation:
    """A lazily decoded safe-subquery relation serving macro transitions.

    ``decode`` yields the relation's ``(source, target)`` pairs as positions
    of the run's interner; it runs at most once (guarded by a lock, so a plan
    executed from several threads at once still decodes once).
    ``successors``/``predecessors`` are the adjacency views the forward and
    backward frontier searches follow across the macro edge.
    """

    def __init__(self, decode: Callable[[], Iterable[tuple[int, int]]]) -> None:
        self._decode = decode
        self._lock = threading.Lock()
        self._forward: dict[int, tuple[int, ...]] | None = None  # guarded-by: _lock
        self._backward: dict[int, tuple[int, ...]] | None = None  # guarded-by: _lock

    def _materialize(self) -> tuple[
        dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]
    ]:
        """Decode once and return ``(forward, backward)``; readers work off
        the returned mappings (never the fields) so reads need no lock."""
        with self._lock:
            if self._forward is None or self._backward is None:
                with get_tracer().span("exec.macro_decode") as span:
                    forward: dict[int, list[int]] = {}
                    backward: dict[int, list[int]] = {}
                    pairs = 0
                    for source, target in self._decode():
                        pairs += 1
                        forward.setdefault(source, []).append(target)
                        backward.setdefault(target, []).append(source)
                    span.set("pairs", pairs)
                self._forward = {node: tuple(out) for node, out in forward.items()}
                self._backward = {node: tuple(out) for node, out in backward.items()}
            return self._forward, self._backward

    def successors(self, node: int) -> tuple[int, ...]:
        forward, _ = self._materialize()
        return forward.get(node, ())

    def predecessors(self, node: int) -> tuple[int, ...]:
        _, backward = self._materialize()
        return backward.get(node, ())

    def expander(self, direction: str) -> Callable[[int], tuple[int, ...]]:
        """The per-position neighbour callable :func:`frontier_search` expects."""
        return self.successors if direction == "forward" else self.predecessors


@dataclass(frozen=True)
class FrontierSearchOp:
    """One pruned product-DFA frontier search from all seeds at once.

    Node sets are over the positions of the run's interner
    (``run.packed.interner``): ``seeds`` lists distinct positions, and
    ``allowed`` and ``emit_filter`` hold one flag byte per position
    (``None`` = every node).  ``direction`` orients everything at once:
    forward seeds are the requested sources and hits are targets filtered by
    ``emit_filter`` (the requested target set); backward seeds are the
    requested *targets*, the ``dfa`` is the reversed macro DFA, searches
    follow run predecessors (and macro predecessors), and hits are sources
    filtered by the requested source set.  The search re-orients emitted
    pairs so callers always see ``(source, target)``.
    """

    direction: str  # "forward" | "backward"
    dfa: DFA
    seeds: tuple[int, ...]
    emit_filter: bytes | None
    allowed: bytes | None
    macros: Mapping[str, MacroRelation] = field(default_factory=dict)


@dataclass(frozen=True)
class LabelDecodeOp:
    """A fully safe query (or safe subtree) answered by the labeling engine
    (Algorithm 2 / optRPL-G) over explicit node lists."""

    node: RegexNode
    l1: tuple[str, ...]
    l2: tuple[str, ...]


@dataclass(frozen=True)
class JoinOp:
    """The bottom-up relational evaluation (Option G1) of an unsafe query
    without node lists, on the packed kernel, with the safe subtrees in
    ``routed`` answered by the labeling engine over the whole run."""

    root: RegexNode
    routed: frozenset[RegexNode]


PhysicalOp = FrontierSearchOp | LabelDecodeOp | JoinOp
