"""Regular path query abstract syntax and parser.

Queries in the paper are regular expressions over *edge tags* (Definition 8):

    e := c | e1 e2 | e1 + e2 | e1* | e1+
    c := epsilon | _ | a

where ``a`` is an edge tag, ``_`` is the wildcard matching any single tag and
``epsilon`` is the empty string.  Because edge tags are whole words (module
names such as ``BLAST``), the concrete syntax accepted by :func:`parse_regex`
uses explicit operators rather than single-character juxtaposition:

* tags are identifiers made of letters, digits, ``_``, ``-`` and ``:``
  (a standalone ``_`` is the wildcard, not a tag),
* concatenation is written with ``.`` or simply with whitespace,
* alternation is written with ``|``,
* ``*`` and ``+`` are postfix repetition operators,
* ``_`` is the wildcard, ``~`` (or the word ``eps``) is the empty string,
* parentheses group.

The paper's motivating query ``x.(a1|a2)+.s._*.p`` parses as written.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from repro.errors import QuerySyntaxError

__all__ = [
    "RegexNode",
    "Epsilon",
    "Symbol",
    "AnySymbol",
    "Concat",
    "Union",
    "Star",
    "Plus",
    "parse_regex",
    "regex_to_string",
    "regex_alphabet",
    "regex_size",
    "regex_is_nullable",
    "canonicalize_regex",
    "canonical_query_text",
]


class RegexNode:
    """Base class of regular-expression syntax tree nodes.

    Nodes are immutable and hashable so they can be used as dictionary keys
    (the decomposition engine memoizes evaluation results per subtree).
    """

    def children(self) -> tuple["RegexNode", ...]:
        """Return the child nodes (empty for leaves)."""
        return ()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return regex_to_string(self)


@dataclass(frozen=True)
class Epsilon(RegexNode):
    """The empty string."""


@dataclass(frozen=True)
class Symbol(RegexNode):
    """A single edge tag."""

    tag: str


@dataclass(frozen=True)
class AnySymbol(RegexNode):
    """The wildcard ``_`` matching any single edge tag."""


@dataclass(frozen=True)
class Concat(RegexNode):
    """Concatenation of two or more subexpressions."""

    parts: tuple[RegexNode, ...]

    def children(self) -> tuple[RegexNode, ...]:
        return self.parts


@dataclass(frozen=True)
class Union(RegexNode):
    """Alternation of two or more subexpressions."""

    parts: tuple[RegexNode, ...]

    def children(self) -> tuple[RegexNode, ...]:
        return self.parts


@dataclass(frozen=True)
class Star(RegexNode):
    """Zero or more repetitions of the child expression."""

    child: RegexNode

    def children(self) -> tuple[RegexNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class Plus(RegexNode):
    """One or more repetitions of the child expression."""

    child: RegexNode

    def children(self) -> tuple[RegexNode, ...]:
        return (self.child,)


def concat(parts: Sequence[RegexNode]) -> RegexNode:
    """Build a concatenation node, flattening nested concatenations and
    dropping redundant epsilons."""
    flat: list[RegexNode] = []
    for part in parts:
        if isinstance(part, Concat):
            flat.extend(part.parts)
        elif isinstance(part, Epsilon):
            continue
        else:
            flat.append(part)
    if not flat:
        return Epsilon()
    if len(flat) == 1:
        return flat[0]
    return Concat(tuple(flat))


def union(parts: Sequence[RegexNode]) -> RegexNode:
    """Build an alternation node, flattening nested alternations and
    removing duplicate alternatives while preserving order."""
    flat: list[RegexNode] = []
    seen: set[RegexNode] = set()
    for part in parts:
        candidates = part.parts if isinstance(part, Union) else (part,)
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                flat.append(candidate)
    if not flat:
        raise QuerySyntaxError("alternation requires at least one alternative")
    if len(flat) == 1:
        return flat[0]
    return Union(tuple(flat))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPERATOR_CHARS = {"(", ")", "|", "*", "+", ".", "~"}
_TAG_EXTRA_CHARS = {"-", ":", "_"}


@dataclass(frozen=True)
class _Token:
    kind: str  # "tag", "(", ")", "|", "*", "+", ".", "_", "~"
    text: str
    position: int


def _tokenize(text: str) -> Iterator[_Token]:
    index = 0
    length = len(text)
    while index < length:
        char = text[index]
        if char.isspace():
            index += 1
            continue
        if char in _OPERATOR_CHARS:
            yield _Token(char, char, index)
            index += 1
            continue
        if char.isalnum() or char in _TAG_EXTRA_CHARS:
            start = index
            while index < length and (text[index].isalnum() or text[index] in _TAG_EXTRA_CHARS):
                index += 1
            word = text[start:index]
            if word == "eps":
                yield _Token("~", word, start)
            elif word == "_":
                yield _Token("_", word, start)
            else:
                yield _Token("tag", word, start)
            continue
        raise QuerySyntaxError(f"unexpected character {char!r} at position {index}")


# ---------------------------------------------------------------------------
# Recursive-descent parser
#
#   expr     := term ("|" term)*
#   term     := factor+
#   factor   := atom ("*" | "+")*
#   atom     := tag | "_" | "~" | "(" expr ")"
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: Sequence[_Token], source: str) -> None:
        self._tokens = list(tokens)
        self._index = 0
        self._source = source

    def parse(self) -> RegexNode:
        node = self._expr()
        if self._index != len(self._tokens):
            token = self._tokens[self._index]
            raise QuerySyntaxError(
                f"unexpected {token.text!r} at position {token.position} in {self._source!r}"
            )
        return node

    # -- helpers ------------------------------------------------------------

    def _peek(self) -> _Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _advance(self) -> _Token:
        token = self._tokens[self._index]
        self._index += 1
        return token

    # -- grammar ------------------------------------------------------------

    def _expr(self) -> RegexNode:
        terms = [self._term()]
        while True:
            token = self._peek()
            if token is not None and token.kind == "|":
                self._advance()
                terms.append(self._term())
            else:
                break
        return union(terms)

    def _term(self) -> RegexNode:
        factors: list[RegexNode] = []
        while True:
            token = self._peek()
            if token is None or token.kind in {")", "|"}:
                break
            if token.kind == ".":
                self._advance()
                continue
            factors.append(self._factor())
        if not factors:
            raise QuerySyntaxError(
                f"empty alternative in {self._source!r}; write '~' for the empty string"
            )
        return concat(factors)

    def _factor(self) -> RegexNode:
        node = self._atom()
        while True:
            token = self._peek()
            if token is not None and token.kind in {"*", "+"}:
                self._advance()
                node = Star(node) if token.kind == "*" else Plus(node)
            else:
                break
        return node

    def _atom(self) -> RegexNode:
        token = self._peek()
        if token is None:
            raise QuerySyntaxError(f"unexpected end of query in {self._source!r}")
        if token.kind == "tag":
            self._advance()
            return Symbol(token.text)
        if token.kind == "_":
            self._advance()
            return AnySymbol()
        if token.kind == "~":
            self._advance()
            return Epsilon()
        if token.kind == "(":
            self._advance()
            node = self._expr()
            closing = self._peek()
            if closing is None or closing.kind != ")":
                raise QuerySyntaxError(f"missing ')' in {self._source!r}")
            self._advance()
            return node
        raise QuerySyntaxError(
            f"unexpected {token.text!r} at position {token.position} in {self._source!r}"
        )


def parse_regex(text: str | RegexNode) -> RegexNode:
    """Parse a regular path query string into a syntax tree.

    Passing an already-built :class:`RegexNode` returns it unchanged, which
    lets every public API accept either form.
    """
    if isinstance(text, RegexNode):
        return text
    tokens = list(_tokenize(text))
    if not tokens:
        return Epsilon()
    return _Parser(tokens, text).parse()


# ---------------------------------------------------------------------------
# Utilities on syntax trees
# ---------------------------------------------------------------------------


def regex_to_string(node: RegexNode) -> str:
    """Render a syntax tree back to the concrete query syntax."""

    def render(current: RegexNode, parent_priority: int) -> str:
        # priorities: union=0, concat=1, repetition=2, atom=3
        if isinstance(current, Epsilon):
            return "~"
        if isinstance(current, AnySymbol):
            return "_"
        if isinstance(current, Symbol):
            return current.tag
        if isinstance(current, Union):
            text = " | ".join(render(part, 0) for part in current.parts)
            return f"({text})" if parent_priority > 0 else text
        if isinstance(current, Concat):
            text = " . ".join(render(part, 1) for part in current.parts)
            return f"({text})" if parent_priority > 1 else text
        if isinstance(current, Star):
            return f"{render(current.child, 3)}*"
        if isinstance(current, Plus):
            return f"{render(current.child, 3)}+"
        raise TypeError(f"unknown regex node {current!r}")

    return render(node, 0)


def regex_alphabet(node: RegexNode) -> frozenset[str]:
    """Return the set of explicit tags mentioned in the expression."""
    tags: set[str] = set()
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, Symbol):
            tags.add(current.tag)
        stack.extend(current.children())
    return frozenset(tags)


def regex_uses_wildcard(node: RegexNode) -> bool:
    """Return True when the expression contains the wildcard ``_``."""
    stack = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, AnySymbol):
            return True
        stack.extend(current.children())
    return False


def regex_size(node: RegexNode) -> int:
    """Number of syntax tree nodes; used as the query-size measure |R|."""
    count = 0
    stack = [node]
    while stack:
        current = stack.pop()
        count += 1
        stack.extend(current.children())
    return count


def regex_is_nullable(node: RegexNode) -> bool:
    """Does the expression's language contain the empty string?"""
    if isinstance(node, Epsilon) or isinstance(node, Star):
        return True
    if isinstance(node, (Symbol, AnySymbol)):
        return False
    if isinstance(node, Concat):
        return all(regex_is_nullable(part) for part in node.parts)
    if isinstance(node, Union):
        return any(regex_is_nullable(part) for part in node.parts)
    if isinstance(node, Plus):
        return regex_is_nullable(node.child)
    raise TypeError(f"unknown regex node {node!r}")


# ---------------------------------------------------------------------------
# Canonical normal form
#
# ``canonicalize_regex`` rewrites a syntax tree into a normal form such that
# many syntactically different but language-equivalent queries become
# *identical* trees, which is what lets a shared index cache recognise
# ``a|b`` and ``b|a`` (or ``(a)`` and ``a``) as the same query.  Every rewrite
# is language-preserving:
#
# * concatenations are flattened and epsilon factors dropped,
# * alternations are flattened, de-duplicated and sorted (rendering order),
# * an epsilon alternative is dropped when a sibling is already nullable,
# * ``(e*)* -> e*``, ``(e+)* -> e*``, ``(e*)+ -> e*``, ``(e+)+ -> e+``,
#   ``~* -> ~``, ``~+ -> ~``,
# * ``e+`` with nullable ``e`` becomes ``e*`` (their languages coincide),
# * under a repetition, epsilon alternatives of the child are redundant:
#   ``(a|~)* -> a*``.
#
# The form is a fixpoint: canonicalizing a canonical tree returns an equal
# tree, so canonical text is a stable cache key.
# ---------------------------------------------------------------------------


def _strip_epsilon_alternatives(node: RegexNode) -> RegexNode:
    """Drop epsilon alternatives of a top-level union (valid under ``*``/``+``)."""
    if isinstance(node, Union):
        remaining = [part for part in node.parts if not isinstance(part, Epsilon)]
        if len(remaining) != len(node.parts):
            if len(remaining) == 1:
                return remaining[0]
            return Union(tuple(remaining))
    return node


def canonicalize_regex(node: RegexNode) -> RegexNode:
    """Rewrite a query into its canonical normal form (see module notes).

    The result accepts exactly the same tag sequences as the input; the
    rewrite is idempotent, so the rendered canonical text is a stable key for
    caching per-query work across equivalent query spellings.
    """
    if isinstance(node, (Epsilon, Symbol, AnySymbol)):
        return node
    if isinstance(node, Concat):
        return concat([canonicalize_regex(part) for part in node.parts])
    if isinstance(node, Union):
        flat: list[RegexNode] = []
        for part in node.parts:
            candidate = canonicalize_regex(part)
            flat.extend(candidate.parts if isinstance(candidate, Union) else (candidate,))
        unique: list[RegexNode] = []
        seen: set[RegexNode] = set()
        for part in flat:
            if part not in seen:
                seen.add(part)
                unique.append(part)
        non_epsilon = [part for part in unique if not isinstance(part, Epsilon)]
        if len(non_epsilon) < len(unique) and any(
            regex_is_nullable(part) for part in non_epsilon
        ):
            unique = non_epsilon
        if len(unique) == 1:
            return unique[0]
        unique.sort(key=regex_to_string)
        return Union(tuple(unique))
    if isinstance(node, Star):
        child = _strip_epsilon_alternatives(canonicalize_regex(node.child))
        if isinstance(child, Epsilon):
            return Epsilon()
        if isinstance(child, (Star, Plus)):
            return canonicalize_regex(Star(child.child))
        return Star(child)
    if isinstance(node, Plus):
        child = canonicalize_regex(node.child)
        if isinstance(child, Epsilon):
            return Epsilon()
        if isinstance(child, Plus):
            return canonicalize_regex(Plus(child.child))
        if isinstance(child, Star) or regex_is_nullable(child):
            return canonicalize_regex(Star(child))
        return Plus(child)
    raise TypeError(f"unknown regex node {node!r}")


@lru_cache(maxsize=1024)
def canonical_query_text(query: str | RegexNode) -> str:
    """Parse, canonicalize and render a query — the cross-query cache key.

    Memoized (query strings and syntax trees are both hashable): one request
    keys its query several times (pre-build, safety, index), and each
    canonicalization parses and rewrites it.
    """
    return regex_to_string(canonicalize_regex(parse_regex(query)))
