"""Deterministic finite automata over edge tags.

A :class:`DFA` here is always *complete* over its alphabet: every state has a
transition for every tag.  Completeness is what makes the λ matrices of the
safety check (Section III-C of the paper) and the transition matrices of the
query-intersected specification well defined — a path whose tags fall out of
the query language simply drives the automaton into a dead state.

The alphabet of a query automaton is the union of the tags written in the
query and the edge tags of the workflow specification against which it is
evaluated (wildcard transitions expand over this alphabet).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Mapping

from repro.automata.boolean_matrix import BooleanMatrix
from repro.automata.nfa import NFA, nfa_from_regex
from repro.automata.regex import RegexNode, parse_regex, regex_alphabet

__all__ = ["DFA", "dfa_from_regex", "determinize"]


@dataclass(frozen=True)
class DFA:
    """A complete deterministic finite automaton.

    States are ``0 .. state_count - 1``; ``transitions[state][tag]`` is always
    defined for every tag in :attr:`alphabet`.
    """

    state_count: int
    alphabet: frozenset[str]
    transitions: tuple[Mapping[str, int], ...]
    start: int
    accepting: frozenset[int]

    def __post_init__(self) -> None:
        for state, row in enumerate(self.transitions):
            missing = self.alphabet - set(row)
            if missing:
                raise ValueError(f"state {state} lacks transitions for {sorted(missing)}")

    # -- simulation ----------------------------------------------------------

    def step(self, state: int, tag: str) -> int:
        """Single transition; tags outside the alphabet go to the dead state
        if one exists, otherwise raise ``KeyError``."""
        row = self.transitions[state]
        if tag in row:
            return row[tag]
        dead = self.dead_state()
        if dead is not None:
            return dead
        raise KeyError(f"tag {tag!r} not in DFA alphabet and no dead state exists")

    def run(self, state: int, tags: Iterable[str]) -> int:
        """Extended transition function δ*."""
        current = state
        for tag in tags:
            current = self.step(current, tag)
        return current

    def accepts(self, tags: Iterable[str]) -> bool:
        return self.run(self.start, tags) in self.accepting

    def is_accepting(self, state: int) -> bool:
        return state in self.accepting

    # -- structure -----------------------------------------------------------

    def dead_state(self) -> int | None:
        """Return a non-accepting state with only self-loops, if any."""
        for state in range(self.state_count):
            if state in self.accepting:
                continue
            row = self.transitions[state]
            if all(target == state for target in row.values()):
                return state
        return None

    def accepts_epsilon(self) -> bool:
        return self.start in self.accepting

    def transition_matrix(self, tag: str) -> BooleanMatrix:
        """The relation ``q -> δ(q, tag)`` as a boolean matrix.

        Tags outside the alphabet map every state to the dead state (the
        empty relation when no dead state exists, meaning no path with that
        tag can ever satisfy the query).
        """
        size = self.state_count
        if tag in self.alphabet:
            return BooleanMatrix.from_pairs(
                size, ((state, self.transitions[state][tag]) for state in range(size))
            )
        dead = self.dead_state()
        if dead is None:
            return BooleanMatrix.zero(size)
        return BooleanMatrix.from_pairs(size, ((state, dead) for state in range(size)))

    def accepting_mask(self) -> int:
        """Bitmask over states with accepting states set (for matrix tests)."""
        mask = 0
        for state in self.accepting:
            mask |= 1 << state
        return mask

    @cached_property
    def tag_classes(self) -> tuple[tuple[str, ...], ...]:
        """The alphabet grouped by transition column, each class sorted.

        Tags of one class move every state to the same target, so anything
        that reads the automaton tag by tag — partition refinement, reversal,
        transition matrices — can read one representative per class instead.
        A query names a handful of tags against an alphabet of dozens, so
        most of the alphabet falls into one or two classes.
        """
        classes: dict[tuple[int, ...], list[str]] = {}
        for tag in sorted(self.alphabet):
            column = tuple(row[tag] for row in self.transitions)
            classes.setdefault(column, []).append(tag)
        return tuple(tuple(members) for members in classes.values())

    def reversed(self, *, minimal: bool = True) -> "DFA":
        """The (by default minimal) complete DFA of the *reversed* language:
        ``w`` is accepted by the result iff ``reverse(w)`` is accepted here.

        Built by flipping every transition into an NFA (a fresh start state
        ε-branches to the old accepting states; the old start becomes the
        accept) and determinizing it.  The NFA carries one representative tag
        per :attr:`tag_classes` class — tags with equal columns stay
        indistinguishable after reversal — and every member of a class then
        takes its representative's row, so the result is complete over the
        same alphabet, synthetic macro symbols included.  No ``ANY`` labels
        exist in a DFA, so wildcard expansion cannot re-enter.

        The backward frontier search of the executor layer runs the product
        search from the *targets* over this automaton, following run edges
        against their direction; a node pair it reports is connected by some
        path whose reversed tag word the reversed DFA accepts, which is
        exactly a forward match of the original query.
        """
        from repro.automata.nfa import EPSILON, NFA

        classes = self.tag_classes
        representatives = [members[0] for members in classes]
        transitions: dict[int, list[tuple[object, int]]] = {}
        for state, row in enumerate(self.transitions):
            for tag in representatives:
                transitions.setdefault(row[tag], []).append((tag, state))
        start = self.state_count
        transitions[start] = [(EPSILON, state) for state in sorted(self.accepting)]
        nfa = NFA(
            start=start,
            accept=self.start,
            transitions=transitions,
            state_count=self.state_count + 1,
        )
        compact = determinize(nfa, representatives)
        reversed_dfa = DFA(
            state_count=compact.state_count,
            alphabet=self.alphabet,
            transitions=tuple(
                {tag: row[members[0]] for members in classes for tag in members}
                for row in compact.transitions
            ),
            start=compact.start,
            accepting=compact.accepting,
        )
        if minimal:
            from repro.automata.minimize import minimize_dfa

            reversed_dfa = minimize_dfa(reversed_dfa)
        return reversed_dfa

    def reachable_states(self) -> frozenset[int]:
        seen = {self.start}
        stack = [self.start]
        while stack:
            state = stack.pop()
            for target in self.transitions[state].values():
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready representation (inverse of :meth:`from_dict`).

        Rows are written per :attr:`tag_classes` class: ``classes`` lists
        the classes and each row of ``transitions`` holds one target per
        class.  Tags are kept verbatim — including the NUL-prefixed macro
        symbols of the decomposition engine, which JSON strings carry fine —
        so stored macro DFAs round-trip exactly.
        """
        classes = self.tag_classes
        return {
            "state_count": self.state_count,
            "classes": [list(members) for members in classes],
            "transitions": [
                [row[members[0]] for members in classes] for row in self.transitions
            ],
            "start": self.start,
            "accepting": sorted(self.accepting),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DFA":
        """Rebuild a DFA from :meth:`to_dict` output.

        Strict: a tag listed twice, a row of the wrong width or a target
        outside the states raises ``ValueError``, and completeness is
        re-validated by ``__post_init__``, so a corrupted payload fails
        loudly here instead of mis-answering queries later.
        """
        state_count = int(payload["state_count"])
        classes = tuple(tuple(str(tag) for tag in members) for members in payload["classes"])
        alphabet = frozenset(tag for members in classes for tag in members)
        if len(alphabet) != sum(map(len, classes)):
            raise ValueError("a tag appears in two transition classes")
        rows = payload["transitions"]
        if len(rows) != state_count:
            raise ValueError(f"{len(rows)} transition rows for {state_count} states")
        transitions: list[dict[str, int]] = []
        for targets in rows:
            if len(targets) != len(classes):
                raise ValueError(f"a row of {len(targets)} targets for {len(classes)} classes")
            row: dict[str, int] = {}
            for members, target in zip(classes, map(int, targets)):
                if not 0 <= target < state_count:
                    raise ValueError(f"transition target {target} outside the states")
                row.update(dict.fromkeys(members, target))
            transitions.append(row)
        dfa = cls(
            state_count=state_count,
            alphabet=alphabet,
            transitions=tuple(transitions),
            start=int(payload["start"]),
            accepting=frozenset(int(state) for state in payload["accepting"]),
        )
        # Members of one stored class share a column by construction.
        dfa.__dict__["tag_classes"] = classes
        return dfa

    def with_alphabet(self, alphabet: Iterable[str]) -> "DFA":
        """Return an equivalent DFA completed over a (larger) alphabet.

        Tags not previously in the alphabet behave like any tag the query
        does not mention: they lead to a dead state.
        """
        new_alphabet = frozenset(alphabet) | self.alphabet
        extra = new_alphabet - self.alphabet
        if not extra:
            return self
        dead = self.dead_state()
        transitions = [dict(row) for row in self.transitions]
        if dead is None:
            dead = len(transitions)
            transitions.append({})
        for row in transitions:
            for tag in extra:
                row.setdefault(tag, dead)
        for tag in new_alphabet:
            transitions[dead][tag] = dead
        # ensure previously-complete rows stay complete for the old alphabet
        for row in transitions:
            for tag in new_alphabet:
                row.setdefault(tag, dead)
        return DFA(
            state_count=len(transitions),
            alphabet=new_alphabet,
            transitions=tuple(transitions),
            start=self.start,
            accepting=self.accepting,
        )


def determinize(
    nfa: NFA, alphabet: Iterable[str], *, wildcard_tags: Iterable[str] | None = None
) -> DFA:
    """Subset construction over an explicit alphabet.

    Wildcard (``ANY``) transitions of the NFA are expanded over ``alphabet``
    by default, or over ``wildcard_tags`` when given — the decomposition
    engine passes the run's real edge tags there so that the synthetic macro
    symbols standing for safe subqueries are not matched by ``_``.  The
    result is complete: missing transitions go to a dead state, which is
    always materialized so that downstream code can rely on totality.

    The construction works per *tag class*, not per tag: every tag the NFA
    names is a class of its own, and the tags it does not name form at most
    two more — those the wildcard matches and those it does not.  Members of
    one class move every subset alike, so each (subset, class) pair costs one
    ``move`` plus closure and its target fills every member's row.
    """
    named = nfa.alphabet()
    tags = frozenset(alphabet) | named
    wildcard = tags if wildcard_tags is None else frozenset(wildcard_tags)
    unnamed = tags - named
    classes = [(tag, tag in wildcard, (tag,)) for tag in sorted(named)]
    for include_wildcard, members in (
        (True, sorted(unnamed & wildcard)),
        (False, sorted(unnamed - wildcard)),
    ):
        if members:
            classes.append((members[0], include_wildcard, tuple(members)))
    start_set = nfa.epsilon_closure({nfa.start})
    subset_index: dict[frozenset[int], int] = {start_set: 0}
    order: list[frozenset[int]] = [start_set]
    transitions: list[dict[str, int]] = [{}]
    queue = [start_set]
    while queue:
        current = queue.pop()
        row = transitions[subset_index[current]]
        for representative, include_wildcard, members in classes:
            target = nfa.epsilon_closure(
                nfa.move(current, representative, include_wildcard=include_wildcard)
            )
            if target not in subset_index:
                subset_index[target] = len(order)
                order.append(target)
                transitions.append({})
                queue.append(target)
            row.update(dict.fromkeys(members, subset_index[target]))
    # The empty subset (if produced) already acts as the dead state; if it was
    # never produced, add one so the automaton is complete even for tags later
    # added via ``with_alphabet``.
    if frozenset() not in subset_index:
        dead = len(order)
        order.append(frozenset())
        transitions.append(dict.fromkeys(tags, dead))
    accepting = frozenset(
        index for subset, index in subset_index.items() if nfa.accept in subset
    )
    return DFA(
        state_count=len(order),
        alphabet=tags,
        transitions=tuple(transitions),
        start=0,
        accepting=accepting,
    )


def dfa_from_regex(
    query: str | RegexNode, alphabet: Iterable[str] = (), *, minimal: bool = True
) -> DFA:
    """Build a (by default minimal) complete DFA for a query.

    ``alphabet`` should contain the edge tags of the workflow specification;
    tags mentioned in the query are always included.
    """
    node = parse_regex(query)
    tags = frozenset(alphabet) | regex_alphabet(node)
    dfa = determinize(nfa_from_regex(node), tags)
    if minimal:
        from repro.automata.minimize import minimize_dfa

        dfa = minimize_dfa(dfa)
    return dfa
