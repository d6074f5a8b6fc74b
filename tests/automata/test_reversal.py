"""Automaton reversal: DFA.reversed().

The backward frontier search rests on one identity: ``w ∈ L(A)`` iff
``reverse(w) ∈ L(A.reversed())``.  These tests check it (and the double
reversal) against sampled strings from Hypothesis-generated regexes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.automata.dfa import dfa_from_regex

TAGS = ["a", "b", "c"]


@st.composite
def regex_text(draw):
    def leaf():
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return "_"
        if choice == 1:
            return "~"  # the empty string
        return draw(st.sampled_from(TAGS))

    shape = draw(st.integers(0, 4))
    if shape == 0:
        return leaf()
    if shape == 1:
        return f"{leaf()} . {leaf()}"
    if shape == 2:
        return f"({leaf()} | {leaf()})"
    if shape == 3:
        return f"({draw(st.sampled_from(TAGS))})*"
    return f"{leaf()} . ({leaf()} | {leaf()})+ . {leaf()}"


words = st.lists(st.sampled_from(TAGS), min_size=0, max_size=6)


class TestDFAReversal:
    @given(regex_text(), words)
    @settings(max_examples=150, deadline=None)
    def test_reversed_accepts_reversed_words(self, text, word):
        dfa = dfa_from_regex(text, TAGS)
        assert dfa.reversed().accepts(reversed(word)) == dfa.accepts(word)

    @given(regex_text(), words)
    @settings(max_examples=150, deadline=None)
    def test_double_reversal_is_the_original_language(self, text, word):
        dfa = dfa_from_regex(text, TAGS)
        assert dfa.reversed().reversed().accepts(word) == dfa.accepts(word)

    @given(regex_text())
    @settings(max_examples=50, deadline=None)
    def test_reversal_keeps_the_alphabet_and_completeness(self, text):
        dfa = dfa_from_regex(text, TAGS)
        reversed_dfa = dfa.reversed()
        assert reversed_dfa.alphabet == dfa.alphabet
        # Completeness is validated by the DFA constructor, but make the
        # totality contract of the frontier search explicit.
        for row in reversed_dfa.transitions:
            assert set(row) == set(reversed_dfa.alphabet)

    def test_empty_language_reverses_to_empty(self):
        dfa = dfa_from_regex("a . b", TAGS)
        # 'b a' is the only reversed member; anything else stays out.
        assert dfa.reversed().accepts(["b", "a"])
        assert not dfa.reversed().accepts(["a", "b"])
        assert not dfa.reversed().accepts([])

    def test_epsilon_stays_in_both_directions(self):
        dfa = dfa_from_regex("(a)*", TAGS)
        assert dfa.reversed().accepts([])

    def test_macro_symbols_survive_reversal(self):
        """The reversed automaton of a macro-rewritten query keeps the
        synthetic NUL-prefixed symbols out of the wildcard's reach."""
        macro = "\x00safe:0"
        dfa = dfa_from_regex("a", TAGS).with_alphabet([macro])
        reversed_dfa = dfa.reversed()
        assert macro in reversed_dfa.alphabet
        assert not reversed_dfa.accepts([macro])
        assert reversed_dfa.accepts(["a"])
