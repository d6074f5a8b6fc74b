"""Thompson construction of nondeterministic finite automata.

The NFA operates over whole edge tags (strings).  Two transition label kinds
exist in addition to ordinary tags: ``EPSILON`` (no input consumed) and
``ANY`` (the wildcard ``_`` of the query language, matching any single tag).
``ANY`` transitions are only expanded into concrete tags at determinization
time when the full alphabet is known (the alphabet of a query is the union of
the specification's edge tags and the tags written in the query itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.automata.regex import (
    AnySymbol,
    Concat,
    Epsilon,
    Plus,
    RegexNode,
    Star,
    Symbol,
    Union,
    parse_regex,
)

__all__ = ["EPSILON", "ANY", "NFA", "nfa_from_regex"]


class _Marker:
    """Singleton-style marker used for epsilon and wildcard labels."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


EPSILON = _Marker("EPSILON")
ANY = _Marker("ANY")


@dataclass
class NFA:
    """A nondeterministic finite automaton with a single start and accept state.

    Thompson construction always yields exactly one accept state, which keeps
    the combinators below simple.  States are integers local to the automaton.
    """

    start: int
    accept: int
    transitions: dict[int, list[tuple[object, int]]] = field(default_factory=dict)
    state_count: int = 0

    def add_transition(self, source: int, label: object, target: int) -> None:
        self.transitions.setdefault(source, []).append((label, target))

    def alphabet(self) -> frozenset[str]:
        """Explicit tags appearing on transitions (excludes ANY/EPSILON)."""
        tags = set()
        for edges in self.transitions.values():
            for label, _ in edges:
                if isinstance(label, str):
                    tags.add(label)
        return frozenset(tags)

    def epsilon_closure(self, states: Iterable[int]) -> frozenset[int]:
        """Return the set of states reachable via epsilon transitions."""
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for label, target in self.transitions.get(state, ()):
                if label is EPSILON and target not in closure:
                    closure.add(target)
                    stack.append(target)
        return frozenset(closure)

    def move(
        self, states: Iterable[int], tag: str, *, include_wildcard: bool = True
    ) -> frozenset[int]:
        """Return states reachable from ``states`` by consuming ``tag``
        (wildcard transitions match every tag unless ``include_wildcard`` is
        off, which lets determinization keep synthetic tags — e.g. the macro
        symbols standing for safe subqueries — out of the wildcard's reach)."""
        result = set()
        for state in states:
            for label, target in self.transitions.get(state, ()):
                if (include_wildcard and label is ANY) or label == tag:
                    result.add(target)
        return frozenset(result)

    def accepts(self, tags: Iterable[str]) -> bool:
        """Direct NFA simulation; used by tests as an independent oracle."""
        current = self.epsilon_closure({self.start})
        for tag in tags:
            current = self.epsilon_closure(self.move(current, tag))
            if not current:
                return False
        return self.accept in current


class _Builder:
    """Allocates states and assembles fragment automata."""

    def __init__(self) -> None:
        self._next_state = 0
        self._transitions: dict[int, list[tuple[object, int]]] = {}

    def new_state(self) -> int:
        state = self._next_state
        self._next_state += 1
        return state

    def link(self, source: int, label: object, target: int) -> None:
        self._transitions.setdefault(source, []).append((label, target))

    def build(self, node: RegexNode) -> tuple[int, int]:
        """Return the (start, accept) fragment for ``node``."""
        if isinstance(node, Epsilon):
            start, accept = self.new_state(), self.new_state()
            self.link(start, EPSILON, accept)
            return start, accept
        if isinstance(node, Symbol):
            start, accept = self.new_state(), self.new_state()
            self.link(start, node.tag, accept)
            return start, accept
        if isinstance(node, AnySymbol):
            start, accept = self.new_state(), self.new_state()
            self.link(start, ANY, accept)
            return start, accept
        if isinstance(node, Concat):
            start, accept = self.build(node.parts[0])
            for part in node.parts[1:]:
                next_start, next_accept = self.build(part)
                self.link(accept, EPSILON, next_start)
                accept = next_accept
            return start, accept
        if isinstance(node, Union):
            start, accept = self.new_state(), self.new_state()
            for part in node.parts:
                part_start, part_accept = self.build(part)
                self.link(start, EPSILON, part_start)
                self.link(part_accept, EPSILON, accept)
            return start, accept
        if isinstance(node, Star):
            inner_start, inner_accept = self.build(node.child)
            start, accept = self.new_state(), self.new_state()
            self.link(start, EPSILON, inner_start)
            self.link(start, EPSILON, accept)
            self.link(inner_accept, EPSILON, inner_start)
            self.link(inner_accept, EPSILON, accept)
            return start, accept
        if isinstance(node, Plus):
            inner_start, inner_accept = self.build(node.child)
            start, accept = self.new_state(), self.new_state()
            self.link(start, EPSILON, inner_start)
            self.link(inner_accept, EPSILON, inner_start)
            self.link(inner_accept, EPSILON, accept)
            return start, accept
        raise TypeError(f"unknown regex node {node!r}")

    def finish(self, start: int, accept: int) -> NFA:
        return NFA(
            start=start,
            accept=accept,
            transitions=self._transitions,
            state_count=self._next_state,
        )


def nfa_from_regex(query: str | RegexNode) -> NFA:
    """Build a Thompson NFA for the given query string or syntax tree."""
    node = parse_regex(query)
    builder = _Builder()
    start, accept = builder.build(node)
    return builder.finish(start, accept)
