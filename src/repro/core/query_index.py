"""Per-query precomputation for label decoding.

Everything the pairwise decoder (Algorithm 1) needs that depends only on the
specification and the query is computed once here and reused across node
pairs.  For a safe query with minimal DFA ``M`` (state count ``|Q|``) the
index stores boolean ``|Q| x |Q|`` matrices describing how DFA states move
along paths *inside the specification*, never inside the run:

``cross(k, i, j)``
    transitions along body paths of production ``k`` from the *output* of
    position ``i`` to the *input* of position ``j`` (composite positions are
    traversed through their λ matrix — safety guarantees the λ is the same
    whichever execution the run chose);
``to_sink(k, i)``
    from the output of position ``i`` to the output of the whole expansion of
    production ``k`` (the paper's "exit" direction);
``from_source(k, i)``
    from the input of the expansion to the input of position ``i``;
``descend_steps / ascend_steps`` (per recursion cycle)
    the one-level entry/exit matrices of recursion chains; long chains are
    collapsed with boolean matrix powers so decoding stays independent of the
    run size even for runs that unfold a cycle thousands of times.

The index also keeps the coarse position-to-position reachability of every
production body, which is what plain reachability decoding and Algorithm 2's
structural joins use.

The tables are built through the :class:`~repro.automata.boolean_matrix.MatrixAlgebra`
of the build: they repeat a handful of distinct matrices (identity, zero,
the tag-class transitions, the λ of each module) many times over, so each
distinct matrix is one canonical object and each repeated product or union
a computed-table lookup.  The caller that ran the safety check passes its
algebra on, and the sweep from each body's source — the one the check made
to compute the body's λ — is then answered from that check's products.  The
index does not keep the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.boolean_matrix import BooleanMatrix, MatrixAlgebra
from repro.automata.dfa import DFA
from repro.automata.regex import RegexNode, parse_regex, regex_to_string
from repro.core.safety import analyze_safety, body_reach, edge_matrices, query_dfa
from repro.errors import UnsafeQueryError
from repro.workflow.production_graph import Cycle
from repro.workflow.spec import Specification

__all__ = ["ProductionTables", "QueryIndex", "build_query_index"]

#: The per-production matrix tables of an index, in the order
#: ``(cross, to_sink, from_source)`` (see :meth:`QueryIndex.production_tables`).
ProductionTables = tuple[
    list[dict[tuple[int, int], BooleanMatrix]],
    list[list[BooleanMatrix]],
    list[list[BooleanMatrix]],
]


@dataclass(frozen=True)
class _CycleTables:
    """Per-cycle chain matrices, indexed by cycle offset."""

    length: int
    descend_steps: tuple[BooleanMatrix, ...]
    ascend_steps: tuple[BooleanMatrix, ...]


class QueryIndex:
    """All run-independent state needed to answer one safe query.

    Build instances with :func:`build_query_index`, which also performs the
    safety check; constructing an index for an unsafe query raises
    :class:`~repro.errors.UnsafeQueryError` because λ matrices are only well
    defined for safe queries.
    """

    def __init__(
        self,
        spec: Specification,
        dfa: DFA,
        lambdas: dict[str, BooleanMatrix],
        query_text: str,
        *,
        tables: "ProductionTables | None" = None,
        algebra: MatrixAlgebra | None = None,
    ) -> None:
        self.spec = spec
        self.dfa = dfa
        self.lambdas = lambdas
        self.query_text = query_text
        self.state_count = dfa.state_count
        self._identity = BooleanMatrix.identity(self.state_count)
        self._zero = BooleanMatrix.zero(self.state_count)
        self._start_mask = 1 << dfa.start
        self._accepting_mask = dfa.accepting_mask()
        if tables is None:
            if algebra is None:
                algebra = MatrixAlgebra(dfa)
            elif algebra.dfa is not dfa:
                raise ValueError("the matrix algebra belongs to another DFA")
            tables = self._build_production_tables(algebra)
        # Restoring from a persistent store skips the matrix sweep entirely:
        # the production tables were computed and serialized by a previous
        # process — the main saving of a warm restart besides the DFA/safety
        # work itself.  They come out of the store's matrix pool, which
        # already shares equal matrices, as a built index's tables share the
        # algebra's canonical objects.
        self._cross, self._to_sink, self._from_source = tables
        self._cycles = tuple(
            self._build_cycle_tables(cycle) for cycle in spec.production_graph.cycles
        )
        # Memoized powers of full-cycle products (used for very long chains).
        self._chain_cache: dict[tuple[int, int, int, int], BooleanMatrix] = {}

    # -- construction ------------------------------------------------------------

    def _build_production_tables(self, algebra: MatrixAlgebra) -> "ProductionTables":
        """Sweep every production body from every start position.

        All matrices are the algebra's canonical objects, so the tables hold
        each distinct matrix once; a repeated product is a computed-table
        lookup, and with the algebra of the safety check the sweep from each
        body's source was already made there.
        """
        mul, identity, zero = algebra.mul, algebra.identity, algebra.zero
        lambdas = {module: algebra.canonical(matrix) for module, matrix in self.lambdas.items()}
        cross_tables: list[dict[tuple[int, int], BooleanMatrix]] = []
        to_sink_tables: list[list[BooleanMatrix]] = []
        from_source_tables: list[list[BooleanMatrix]] = []
        for production in self.spec.productions:
            body = production.body
            node_lambdas = [lambdas[module] for module in body.nodes]
            edges = edge_matrices(algebra, body)
            cross: dict[tuple[int, int], BooleanMatrix] = {}
            for start in range(len(body)):
                for target, matrix in body_reach(
                    algebra, body, edges, node_lambdas, start
                ).items():
                    if matrix is not zero:
                        cross[(start, target)] = matrix
            cross_tables.append(cross)
            sink, source = body.sink, body.source
            to_sink_tables.append(
                [
                    identity
                    if position == sink
                    else mul(cross.get((position, sink), zero), node_lambdas[sink])
                    for position in range(len(body))
                ]
            )
            from_source_tables.append(
                [
                    identity
                    if position == source
                    else mul(node_lambdas[source], cross.get((source, position), zero))
                    for position in range(len(body))
                ]
            )
        return cross_tables, to_sink_tables, from_source_tables

    def _build_cycle_tables(self, cycle: "Cycle") -> _CycleTables:
        descend = []
        ascend = []
        for offset in range(len(cycle)):
            production_index, recursive_position = cycle.step(offset)
            descend.append(self.from_source(production_index, recursive_position))
            ascend.append(self.to_sink(production_index, recursive_position))
        return _CycleTables(
            length=len(cycle),
            descend_steps=tuple(descend),
            ascend_steps=tuple(ascend),
        )

    # -- basic lookups -------------------------------------------------------------

    @property
    def identity(self) -> BooleanMatrix:
        return self._identity

    @property
    def zero(self) -> BooleanMatrix:
        return self._zero

    @property
    def start_mask(self) -> int:
        """The DFA start state as a one-bit state vector."""
        return self._start_mask

    @property
    def accepting_mask(self) -> int:
        """The DFA accepting states as a state-vector bitmask."""
        return self._accepting_mask

    def accepts(self, matrix: BooleanMatrix) -> bool:
        """Does the relation contain a transition from the DFA start state to
        an accepting state?"""
        return bool(matrix.row_mask(self.dfa.start) & self._accepting_mask)

    def cross(self, production_index: int, source: int, target: int) -> BooleanMatrix:
        """Transitions from the output of body position ``source`` to the
        input of body position ``target`` (zero when unreachable)."""
        return self._cross[production_index].get((source, target), self._zero)

    def to_sink(self, production_index: int, position: int) -> BooleanMatrix:
        return self._to_sink[production_index][position]

    def from_source(self, production_index: int, position: int) -> BooleanMatrix:
        return self._from_source[production_index][position]

    def production_tables(self) -> "ProductionTables":
        """The per-production matrix tables ``(cross, to_sink, from_source)``.

        This is everything the construction sweep computes beyond the DFA and
        λ matrices; :mod:`repro.store` serializes it so a restored index (the
        ``tables`` constructor argument) skips the sweep.  The returned
        containers are the live internals — treat them as read-only.
        """
        return self._cross, self._to_sink, self._from_source

    # -- recursion chains ------------------------------------------------------------

    def cycle(self, cycle_index: int) -> "Cycle":
        return self.spec.production_graph.cycles[cycle_index]

    def cycle_production(self, cycle_index: int, start: int, ordinal: int) -> tuple[int, int]:
        """The cycle production and recursive position of the chain member at
        the given ordinal (for a chain entered at cycle offset ``start``)."""
        cycle = self.cycle(cycle_index)
        return cycle.step(cycle.chain_offset(start, ordinal))

    def _chain_product(
        self,
        steps: tuple[BooleanMatrix, ...],
        start_offset: int,
        count: int,
        direction: int,
    ) -> BooleanMatrix:
        """Ordered product of ``count`` chain-step matrices.

        The sequence visits cycle offsets ``start_offset, start_offset +
        direction, ...`` (mod cycle length).  Long products are collapsed as
        ``block^full @ remainder`` where ``block`` is one full trip around the
        cycle, so the cost is logarithmic in ``count``.
        """
        if count <= 0:
            return self._identity
        length = len(steps)
        key = (id(steps), start_offset % length, count, direction)
        cached = self._chain_cache.get(key)
        if cached is not None:
            return cached
        block = [steps[(start_offset + direction * r) % length] for r in range(length)]
        if count <= 2 * length:
            result = self._identity
            for r in range(count):
                result = result @ block[r % length]
        else:
            full, remainder = divmod(count, length)
            block_product = self._identity
            for matrix in block:
                block_product = block_product @ matrix
            result = block_product.power(full)
            for r in range(remainder):
                result = result @ block[r]
        self._chain_cache[key] = result
        return result

    def descend_chain(
        self, cycle_index: int, start: int, first_ordinal: int, last_ordinal: int
    ) -> BooleanMatrix:
        """Transitions from the input of chain child ``first_ordinal`` to the
        input of chain child ``last_ordinal + 1`` (descending through the
        nested recursion).  Empty ranges give the identity."""
        count = last_ordinal - first_ordinal + 1
        if count <= 0:
            return self._identity
        tables = self._cycles[cycle_index]
        cycle = self.cycle(cycle_index)
        offset = cycle.chain_offset(start, first_ordinal)
        return self._chain_product(tables.descend_steps, offset, count, direction=1)

    def ascend_chain(
        self, cycle_index: int, start: int, first_ordinal: int, last_ordinal: int
    ) -> BooleanMatrix:
        """Transitions from the output of chain child ``first_ordinal + 1`` up
        to the output of chain child ``last_ordinal`` (climbing out of the
        nested recursion); ``first_ordinal >= last_ordinal``.  Empty ranges
        give the identity."""
        count = first_ordinal - last_ordinal + 1
        if count <= 0:
            return self._identity
        tables = self._cycles[cycle_index]
        cycle = self.cycle(cycle_index)
        offset = cycle.chain_offset(start, first_ordinal)
        return self._chain_product(tables.ascend_steps, offset, count, direction=-1)


def build_query_index(spec: Specification, query: str | RegexNode) -> QueryIndex:
    """Check safety and build the :class:`QueryIndex` for a safe query.

    Raises :class:`~repro.errors.UnsafeQueryError` when the query is not safe
    with respect to the specification (use the decomposition engine of
    :mod:`repro.core.decomposition` for those).
    """
    node = parse_regex(query)
    dfa = query_dfa(spec, node)
    algebra = MatrixAlgebra(dfa)
    report = analyze_safety(spec, dfa, algebra=algebra)
    if not report.is_safe:
        raise UnsafeQueryError(
            f"query {regex_to_string(node)!r} is not safe for specification "
            f"{spec.name!r}; {len(report.violations)} inconsistent module(s): "
            f"{sorted({violation.module for violation in report.violations})}"
        )
    return QueryIndex(
        spec=spec,
        dfa=report.dfa,
        lambdas=report.lambdas,
        query_text=regex_to_string(node),
        algebra=algebra,
    )
