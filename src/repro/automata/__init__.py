"""Regular-expression and finite-automata substrate.

The paper relies on the brics ``automaton`` Java library for parsing regular
path queries and minimizing DFAs (reference [1] of the paper).  This package
is a from-scratch Python replacement providing:

* a regular-expression abstract syntax tree over *edge tags* (multi-character
  symbols, not single characters) and a parser for the query syntax described
  in the README's *Quickstart* (:mod:`repro.automata.regex`),
* Thompson construction of an NFA with epsilon transitions
  (:mod:`repro.automata.nfa`),
* subset-construction determinization and DFA completion
  (:mod:`repro.automata.dfa`),
* Hopcroft minimization (:mod:`repro.automata.minimize`), and
* compact boolean matrices over DFA state sets, used throughout the core
  engine for path-transition relations (:mod:`repro.automata.boolean_matrix`).
"""

from repro.automata.boolean_matrix import BooleanMatrix
from repro.automata.dfa import DFA
from repro.automata.minimize import minimize_dfa
from repro.automata.nfa import NFA, nfa_from_regex
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
    regex_alphabet,
    regex_to_string,
)

__all__ = [
    "AnySymbol",
    "BooleanMatrix",
    "Concat",
    "DFA",
    "Epsilon",
    "NFA",
    "Plus",
    "RegexNode",
    "Star",
    "Symbol",
    "Union",
    "minimize_dfa",
    "nfa_from_regex",
    "parse_regex",
    "regex_alphabet",
    "regex_to_string",
]
