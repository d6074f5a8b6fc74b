"""Tag-class automata against a per-tag reference.

``determinize``, ``minimize_dfa`` and ``DFA.reversed`` work per tag class:
tags the NFA does not name share one ``move``, and tags with equal transition
columns share one splitter or one reversed-NFA label.  The reference below
does the same work one tag at a time, as the construction did before tag
classes; the two must accept the same languages with the same minimal state
counts, wildcards and macro symbols outside the wildcard's reach included.
"""

from collections import defaultdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import DFA, determinize
from repro.automata.minimize import minimize_dfa
from repro.automata.nfa import EPSILON, NFA, nfa_from_regex
from repro.automata.regex import (
    AnySymbol,
    Concat,
    Epsilon,
    Plus,
    Star,
    Symbol,
    Union,
    parse_regex,
)
from repro.datasets.myexperiment import qblast_specification

NAMED = ("a", "b", "c")
UNNAMED = ("d", "e", "f", "g")
MACROS = ("\x00m0", "\x00m1")
REAL_TAGS = frozenset(NAMED + UNNAMED)


# ---------------------------------------------------------------------------
# The per-tag reference
# ---------------------------------------------------------------------------


def reference_determinize(nfa, alphabet, *, wildcard_tags=None):
    """Subset construction with one ``move`` per (subset, tag)."""
    tags = frozenset(alphabet) | nfa.alphabet()
    wildcard = tags if wildcard_tags is None else frozenset(wildcard_tags)
    start_set = nfa.epsilon_closure({nfa.start})
    subset_index = {start_set: 0}
    transitions = [{}]
    queue = [start_set]
    while queue:
        current = queue.pop()
        for tag in sorted(tags):
            target = nfa.epsilon_closure(
                nfa.move(current, tag, include_wildcard=tag in wildcard)
            )
            if target not in subset_index:
                subset_index[target] = len(transitions)
                transitions.append({})
                queue.append(target)
            transitions[subset_index[current]][tag] = subset_index[target]
    if frozenset() not in subset_index:
        subset_index[frozenset()] = len(transitions)
        transitions.append({tag: len(transitions) for tag in tags})
    accepting = frozenset(
        index for subset, index in subset_index.items() if nfa.accept in subset
    )
    return DFA(len(transitions), tags, tuple(transitions), 0, accepting)


def reference_minimize(dfa):
    """Moore-style partition refinement over every tag of the alphabet."""
    reachable = sorted(dfa.reachable_states())
    block = {state: state in dfa.accepting for state in reachable}
    while True:
        signature = {
            state: (block[state],)
            + tuple(block[dfa.transitions[state][tag]] for tag in sorted(dfa.alphabet))
            for state in reachable
        }
        numbering = {}
        refined = {
            state: numbering.setdefault(signature[state], len(numbering))
            for state in reachable
        }
        if len(set(refined.values())) == len(set(block.values())):
            break
        block = refined
    transitions = [None] * len(numbering)
    for state in reachable:
        transitions[refined[state]] = {
            tag: refined[target] for tag, target in dfa.transitions[state].items()
        }
    return DFA(
        len(numbering),
        dfa.alphabet,
        tuple(transitions),
        refined[dfa.start],
        frozenset(refined[state] for state in dfa.accepting if state in refined),
    )


def reference_reversed(dfa):
    """The minimal reversed DFA, with one reversed-NFA edge per tag."""
    transitions = defaultdict(list)
    for state, row in enumerate(dfa.transitions):
        for tag, target in row.items():
            transitions[target].append((tag, state))
    start = dfa.state_count
    transitions[start] = [(EPSILON, state) for state in sorted(dfa.accepting)]
    nfa = NFA(start, dfa.start, dict(transitions), dfa.state_count + 1)
    return reference_minimize(reference_determinize(nfa, dfa.alphabet))


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def equivalent(first, second):
    """Language equality of two complete DFAs over one alphabet."""
    assert first.alphabet == second.alphabet
    seen = {(first.start, second.start)}
    queue = list(seen)
    while queue:
        left, right = queue.pop()
        if first.is_accepting(left) != second.is_accepting(right):
            return False
        for tag in first.alphabet:
            pair = (first.transitions[left][tag], second.transitions[right][tag])
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True


@st.composite
def regexes(draw, depth=3):
    leaves = [Symbol(tag) for tag in NAMED] + [AnySymbol(), Epsilon(), Symbol(MACROS[0])]
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["concat", "union", "star", "plus"]))
    if kind in ("star", "plus"):
        child = draw(regexes(depth=depth - 1))
        return Star(child) if kind == "star" else Plus(child)
    parts = tuple(draw(st.lists(regexes(depth=depth - 1), min_size=2, max_size=3)))
    return Concat(parts) if kind == "concat" else Union(parts)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestAgainstPerTagReference:
    @settings(max_examples=120, deadline=None)
    @given(regexes(), st.booleans())
    def test_determinize_minimize_and_reverse_agree(self, node, macros_outside_wildcard):
        """Equal languages and equal minimal state counts, forward and
        reversed, with the macro symbols either matched by ``_`` or kept out
        of its reach through ``wildcard_tags``."""
        nfa = nfa_from_regex(node)
        alphabet = REAL_TAGS | frozenset(MACROS)
        wildcard = REAL_TAGS if macros_outside_wildcard else None
        classes = determinize(nfa, alphabet, wildcard_tags=wildcard)
        reference = reference_determinize(nfa, alphabet, wildcard_tags=wildcard)
        assert equivalent(classes, reference)

        minimal = minimize_dfa(classes)
        reference_minimal = reference_minimize(reference)
        assert equivalent(minimal, reference_minimal)
        assert minimal.state_count == reference_minimal.state_count
        assert minimize_dfa(reference).state_count == reference_minimal.state_count

        backward = minimal.reversed()
        reference_backward = reference_reversed(reference_minimal)
        assert equivalent(backward, reference_backward)
        assert backward.state_count == reference_backward.state_count

    def test_unnamed_tags_share_one_class(self):
        dfa = minimize_dfa(determinize(nfa_from_regex(parse_regex("_* a _*")), REAL_TAGS))
        assert dfa.tag_classes == (("a",), tuple(sorted(REAL_TAGS - {"a"})))

    def test_macro_symbols_outside_the_wildcard_form_their_own_class(self):
        nfa = nfa_from_regex(Concat((Star(AnySymbol()), Symbol("a"))))
        dfa = determinize(nfa, REAL_TAGS | frozenset(MACROS), wildcard_tags=REAL_TAGS)
        assert MACROS in dfa.tag_classes
        assert not dfa.accepts([MACROS[0], "a"])
        assert dfa.accepts(["d", "a"])


class TestMoveCount:
    def test_moves_per_subset_are_bounded_by_the_named_tags(self, monkeypatch):
        """One ``move`` per (subset, class): each named tag, plus at most
        two classes for the tags the query does not name — not one per
        specification tag."""
        calls = []
        original = NFA.move

        def counting_move(self, states, tag, *, include_wildcard=True):
            calls.append(tag)
            return original(self, states, tag, include_wildcard=include_wildcard)

        monkeypatch.setattr(NFA, "move", counting_move)
        spec = qblast_specification()
        nfa = nfa_from_regex("_* B1 _* B2 _*")
        dfa = determinize(nfa, spec.tags)
        named = len(nfa.alphabet())
        assert named == 2
        assert len(calls) <= dfa.state_count * (named + 2)
        assert len(calls) < dfa.state_count * len(spec.tags)
