"""Safe queries (Section III-C of the paper).

A DFA ``M`` is *safe* with respect to a specification ``G`` when, for every
module ``M`` of ``G`` and every pair of DFA states ``(q1, q2)``, either every
execution of the module contains an input-to-output path whose tags drive the
DFA from ``q1`` to ``q2`` or none does (Definition 12).  A regular path query
is safe iff its *minimal* DFA is safe (Definition 13 together with
Lemma 3.2).  Safety is exactly what allows the run-agnostic λ matrices to
stand in for whatever execution the run actually chose.

The check follows the algorithm sketched in the paper: λ of an atomic module
is the identity; a production is *verifiable* once λ is defined for every
module in its body, at which point the body's λ can be computed by a
topological sweep; the DFA is safe iff λ ends up consistently defined for all
composite modules.  Visiting each production at most ``|P|`` times gives the
``O(|Q|² · |G|)``-style bound of the paper (our implementation is a simple
worklist fixpoint with the same asymptotics up to a factor of ``|P|``).

The fixpoint runs through a :class:`~repro.automata.boolean_matrix.MatrixAlgebra`
that the caller may share with the query index built next: every λ is then
the algebra's canonical object (two derivations agree iff their λ is one
object), and the body sweep from each production's source is the very sweep,
with the very products, that the index's tables start from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.boolean_matrix import BooleanMatrix, MatrixAlgebra
from repro.automata.dfa import DFA, dfa_from_regex
from repro.automata.regex import RegexNode, parse_regex
from repro.workflow.simple import SimpleWorkflow
from repro.workflow.spec import Specification

__all__ = [
    "SafetyViolation",
    "SafetyReport",
    "analyze_safety",
    "body_reach",
    "edge_matrices",
    "is_safe_query",
    "query_dfa",
]


@dataclass(frozen=True)
class SafetyViolation:
    """One inconsistency found while checking safety.

    ``module`` admits two derivations whose input-to-output path-transition
    relations differ; ``production`` is the production whose recomputed λ
    disagreed with the previously established one.
    """

    module: str
    production: int
    established: BooleanMatrix
    conflicting: BooleanMatrix

    def state_pairs(self) -> list[tuple[int, int]]:
        """The unsafe DFA state pairs witnessed by this violation."""
        differing = []
        size = self.established.size
        for q1 in range(size):
            for q2 in range(size):
                if self.established.get(q1, q2) != self.conflicting.get(q1, q2):
                    differing.append((q1, q2))
        return differing


@dataclass
class SafetyReport:
    """Result of a safety analysis of one DFA against one specification."""

    spec: Specification
    dfa: DFA
    lambdas: dict[str, BooleanMatrix] = field(default_factory=dict)
    violations: list[SafetyViolation] = field(default_factory=list)

    @property
    def is_safe(self) -> bool:
        return not self.violations

    def lambda_of(self, module: str) -> BooleanMatrix:
        """The λ matrix of a module (only meaningful when the DFA is safe)."""
        return self.lambdas[module]


def query_dfa(spec: Specification, query: str | RegexNode) -> DFA:
    """The minimal complete DFA of a query over the specification's tags."""
    return dfa_from_regex(parse_regex(query), spec.tags)


def edge_matrices(
    algebra: MatrixAlgebra, body: SimpleWorkflow
) -> list[list[tuple[int, BooleanMatrix]]]:
    """Each body position's out-edges as ``(target, transition matrix)``
    pairs, parallel edges merged into one matrix with ``|``."""
    tag_matrices, join, zero = algebra.tag_matrices, algebra.join, algebra.zero
    grouped: list[dict[int, BooleanMatrix]] = [{} for _ in range(len(body))]
    for edge in body.edges:
        targets = grouped[edge.source]
        targets[edge.target] = join(targets.get(edge.target, zero), tag_matrices[edge.tag])
    return [list(targets.items()) for targets in grouped]


def body_reach(
    algebra: MatrixAlgebra,
    body: SimpleWorkflow,
    edges: list[list[tuple[int, BooleanMatrix]]],
    node_lambdas: list[BooleanMatrix],
    start: int,
) -> dict[int, BooleanMatrix]:
    """Transitions from the output of body position ``start`` to the input of
    every position it reaches, by a topological sweep through the algebra.

    ``edges`` is :func:`edge_matrices` of the body and ``node_lambdas`` the
    canonical λ of the module at each position; composite positions are
    crossed through their λ.  Unreached positions are absent or map to the
    algebra's zero.
    """
    mul, join, zero = algebra.mul, algebra.join, algebra.zero
    reach = dict(edges[start])
    for position in body.topological_order:
        incoming = reach.get(position)
        if incoming is None or incoming is zero:
            continue
        through = mul(incoming, node_lambdas[position])
        for target, matrix in edges[position]:
            contribution = mul(through, matrix)
            existing = reach.get(target)
            reach[target] = contribution if existing is None else join(existing, contribution)
    return reach


def analyze_safety(
    spec: Specification, dfa: DFA, *, algebra: MatrixAlgebra | None = None
) -> SafetyReport:
    """Check whether a DFA is safe with respect to a specification.

    Returns a :class:`SafetyReport` carrying the λ matrices (the by-product
    the paper mentions, reused by the query index) and any violations found.
    The matrices are built through ``algebra`` — a fresh one when none is
    given; a caller that goes on to build the :class:`QueryIndex` passes the
    same algebra to both, so the index reuses every product made here.  The
    algebra must belong to ``dfa`` completed over the specification's tags
    (what :func:`query_dfa` returns).
    """
    if not (spec.tags <= dfa.alphabet):
        dfa = dfa.with_alphabet(spec.tags)
    if algebra is None:
        algebra = MatrixAlgebra(dfa)
    elif algebra.dfa is not dfa:
        raise ValueError("the matrix algebra belongs to another DFA")
    report = SafetyReport(spec=spec, dfa=dfa)
    lambdas: dict[str, BooleanMatrix] = dict.fromkeys(spec.atomic_modules, algebra.identity)

    pending = set(range(len(spec.productions)))
    progress = True
    while pending and progress:
        progress = False
        for index in sorted(pending):
            production = spec.production(index)
            body = production.body
            if any(module not in lambdas for module in body.nodes):
                continue
            pending.discard(index)
            progress = True
            node_lambdas = [lambdas[module] for module in body.nodes]
            source, sink = body.source, body.sink
            if source == sink:
                computed = node_lambdas[source]
            else:
                # λ(source) @ to_sink(source): the same sweep and products
                # as the query index's ``to_sink`` row of the source.
                reach = body_reach(
                    algebra, body, edge_matrices(algebra, body), node_lambdas, source
                )
                to_sink = algebra.mul(reach.get(sink, algebra.zero), node_lambdas[sink])
                computed = algebra.mul(node_lambdas[source], to_sink)
            established = lambdas.get(production.head)
            if established is None:
                lambdas[production.head] = computed
            elif established is not computed:
                report.violations.append(
                    SafetyViolation(
                        module=production.head,
                        production=index,
                        established=established,
                        conflicting=computed,
                    )
                )
    # Specification validation guarantees productivity, so the fixpoint above
    # always defines λ for every composite module unless a violation stopped
    # nothing — pending productions at this point can only remain if their
    # head already failed, which is already reported.
    report.lambdas = lambdas
    return report


def is_safe_query(spec: Specification, query: str | RegexNode) -> bool:
    """Is the regular path query safe for the specification?

    Implements Definition 13 via Lemma 3.2: build the minimal DFA of the
    query (over the specification's tag alphabet) and check its safety.
    """
    return analyze_safety(spec, query_dfa(spec, query)).is_safe
