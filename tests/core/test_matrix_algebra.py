"""The shared matrix algebra against a per-tag, unmemoized reference.

``analyze_safety`` and ``QueryIndex`` build their matrices through one
:class:`~repro.automata.boolean_matrix.MatrixAlgebra`: canonical matrices,
memoized ``@`` and ``|``, one transition matrix per tag class, parallel body
edges merged once.  The reference below does the same work with plain
``BooleanMatrix`` operators, one ``dfa.transition_matrix`` per tag and one
body-edge scan per position, as the construction did before the algebra; the
two must give the same verdicts, λ matrices, violations and index tables.
Which of two equal matrices becomes canonical may follow set iteration
order, so CI runs this file under two string hash seeds.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.automata.boolean_matrix import BooleanMatrix, MatrixAlgebra
from repro.core.query_index import QueryIndex, build_query_index
from repro.core.safety import analyze_safety, query_dfa
from repro.datasets.myexperiment import bioaid_specification, qblast_specification
from repro.datasets.paper_example import paper_specification
from repro.datasets.synthetic import generate_synthetic_specification

SPECS = {
    "bioaid": bioaid_specification(),
    "qblast": qblast_specification(),
    "synthetic-a": generate_synthetic_specification(120, seed=1),
    "synthetic-b": generate_synthetic_specification(160, seed=2, recursion_fraction=0.5),
}


# ---------------------------------------------------------------------------
# The unmemoized reference
# ---------------------------------------------------------------------------


def reference_body_lambda(body, dfa, node_lambda):
    """λ of one production body by a source-rooted topological sweep."""
    size = dfa.state_count
    reach_in = {body.source: BooleanMatrix.identity(size)}
    tag_matrix = {tag: dfa.transition_matrix(tag) for tag in body.tags()}
    for position in body.topological_order:
        incoming = reach_in.get(position)
        if incoming is None or incoming.is_zero():
            continue
        at_output = incoming @ node_lambda(position)
        for edge in body.edges:
            if edge.source != position:
                continue
            contribution = at_output @ tag_matrix[edge.tag]
            existing = reach_in.get(edge.target)
            reach_in[edge.target] = contribution if existing is None else existing | contribution
    sink_in = reach_in.get(body.sink, BooleanMatrix.zero(size))
    return sink_in @ node_lambda(body.sink)


def reference_safety(spec, dfa):
    """The worklist fixpoint: ``(lambdas, [(module, production), ...])``."""
    lambdas = {module: BooleanMatrix.identity(dfa.state_count) for module in spec.atomic_modules}
    violations = []
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
            computed = reference_body_lambda(
                body, dfa, lambda position, body=body: lambdas[body.module_at(position)]
            )
            established = lambdas.get(production.head)
            if established is None:
                lambdas[production.head] = computed
            elif established != computed:
                violations.append((production.head, index))
    return lambdas, violations


def reference_production_tables(spec, dfa, lambdas):
    """``(cross, to_sink, from_source)`` with one edge scan per position."""
    size = dfa.state_count
    identity, zero = BooleanMatrix.identity(size), BooleanMatrix.zero(size)
    tag_matrix = {tag: dfa.transition_matrix(tag) for tag in dfa.alphabet}
    cross_tables, to_sink_tables, from_source_tables = [], [], []
    for production in spec.productions:
        body = production.body

        def node(position, body=body):
            return lambdas[body.module_at(position)]

        cross = {}
        for start in range(len(body)):
            reach = {}
            for edge in body.edges:
                if edge.source == start:
                    reach[edge.target] = reach.get(edge.target, zero) | tag_matrix[edge.tag]
            for position in body.topological_order:
                if position == start or position not in reach:
                    continue
                through = reach[position] @ node(position)
                for edge in body.edges:
                    if edge.source == position:
                        contribution = through @ tag_matrix[edge.tag]
                        reach[edge.target] = reach.get(edge.target, zero) | contribution
            for target, matrix in reach.items():
                if not matrix.is_zero():
                    cross[(start, target)] = matrix
        cross_tables.append(cross)
        sink, source = body.sink, body.source
        to_sink_tables.append(
            [
                identity if position == sink else cross.get((position, sink), zero) @ node(sink)
                for position in range(len(body))
            ]
        )
        from_source_tables.append(
            [
                identity
                if position == source
                else node(source) @ cross.get((source, position), zero)
                for position in range(len(body))
            ]
        )
    return cross_tables, to_sink_tables, from_source_tables


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


@st.composite
def spec_and_query(draw):
    name = draw(st.sampled_from(sorted(SPECS)))
    spec = SPECS[name]
    tags = sorted(spec.tags)

    def leaf():
        choice = draw(st.integers(0, 3))
        if choice == 0:
            return "_"
        if choice == 1:
            return "_*"
        return draw(st.sampled_from(tags))

    shape = draw(st.integers(0, 5))
    if shape == 0:
        query = leaf()
    elif shape == 1:
        query = f"{leaf()} . {leaf()}"
    elif shape == 2:
        query = f"({leaf()} | {leaf()})+"
    elif shape == 3:
        query = f"({draw(st.sampled_from(tags))})*"
    elif shape == 4:
        query = f"{leaf()} . ({leaf()} | {leaf()})* . {leaf()}"
    else:
        named = draw(st.lists(st.sampled_from(tags), min_size=1, max_size=3))
        query = "_* " + " _* ".join(named) + " _*"
    return name, query


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


class TestAgainstReference:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec_and_query())
    def test_verdict_lambdas_violations_and_tables_agree(self, case):
        name, query = case
        spec = SPECS[name]
        dfa = query_dfa(spec, query)
        algebra = MatrixAlgebra(dfa)
        report = analyze_safety(spec, dfa, algebra=algebra)
        lambdas, violations = reference_safety(spec, dfa)

        assert report.lambdas == lambdas
        assert [(v.module, v.production) for v in report.violations] == violations
        assert report.is_safe == (not violations)
        if report.is_safe:
            index = QueryIndex(spec, report.dfa, report.lambdas, query, algebra=algebra)
            assert index.production_tables() == reference_production_tables(
                spec, dfa, lambdas
            )

    @pytest.mark.parametrize(
        "name, query", [("bioaid", "_* d2_s4 _*"), ("synthetic-b", "op8 _*")]
    )
    def test_an_index_with_its_own_algebra_builds_the_same_tables(self, name, query):
        """λ from another algebra (or none) are canonicalized, not trusted
        by identity."""
        spec = SPECS[name]
        shared = build_query_index(spec, query)
        report = analyze_safety(spec, query_dfa(spec, query))
        own = QueryIndex(spec, report.dfa, dict(report.lambdas), query)
        assert own.production_tables() == shared.production_tables()

    def test_a_built_index_shares_each_distinct_matrix(self):
        spec = SPECS["bioaid"]
        index = build_query_index(spec, "_* " + sorted(spec.tags)[0] + " _*")
        cross, to_sink, from_source = index.production_tables()
        matrices = [m for table in cross for m in table.values()]
        matrices += [m for row in to_sink + from_source for m in row]
        assert len({id(m) for m in matrices}) == len(set(matrices))


class TestAlgebra:
    @pytest.fixture
    def algebra(self):
        spec = paper_specification()
        return MatrixAlgebra(query_dfa(spec, "_* e _*"))

    @pytest.fixture
    def operands(self, algebra):
        tags = sorted(set(algebra.tag_matrices.values()), key=repr)
        first = tags[0]
        second = algebra.canonical(tags[-1] | algebra.identity)
        return first, second

    def test_mul_is_the_canonical_product(self, algebra, operands):
        first, second = operands
        product = algebra.mul(first, second)
        assert product == first @ second
        assert product is algebra.canonical(first @ second)
        assert algebra.mul(first, second) is product

    def test_join_is_the_canonical_union(self, algebra, operands):
        first, second = operands
        union = algebra.join(first, second)
        assert union == first | second
        assert union is algebra.canonical(first | second)
        assert algebra.join(first, second) is union

    def test_join_returns_early_for_zero_and_equal_operands(self, algebra, operands):
        first, _ = operands
        assert algebra.join(first, algebra.zero) is first
        assert algebra.join(algebra.zero, first) is first
        assert algebra.join(first, first) is first
        assert algebra._unions == {}

    def test_operands_outside_the_unique_table_are_refused(self, algebra, operands):
        first, _ = operands
        stranger = BooleanMatrix.identity(algebra.dfa.state_count)
        with pytest.raises(ValueError, match="not canonical"):
            algebra.mul(stranger, first)
        with pytest.raises(ValueError, match="not canonical"):
            algebra.join(first, stranger)

    def test_one_tag_matrix_per_tag_class(self, algebra):
        dfa = algebra.dfa
        assert len({id(m) for m in algebra.tag_matrices.values()}) == len(dfa.tag_classes)
        for tag in dfa.alphabet:
            assert algebra.tag_matrices[tag] == dfa.transition_matrix(tag)

    def test_an_algebra_of_another_dfa_is_refused(self):
        spec = paper_specification()
        dfa = query_dfa(spec, "_* e _*")
        other = MatrixAlgebra(query_dfa(spec, "_* e _*"))
        with pytest.raises(ValueError, match="another DFA"):
            analyze_safety(spec, dfa, algebra=other)
        report = analyze_safety(spec, dfa)
        with pytest.raises(ValueError, match="another DFA"):
            QueryIndex(spec, report.dfa, report.lambdas, "_* e _*", algebra=other)
