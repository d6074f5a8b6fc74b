"""Tests for the safe-query property (Section III-C)."""

from repro.automata.dfa import dfa_from_regex
from repro.core.safety import analyze_safety, is_safe_query, query_dfa
from repro.datasets.myexperiment import (
    BIOAID_KLEENE_TAG,
    QBLAST_KLEENE_TAG,
    bioaid_specification,
    qblast_specification,
)
from repro.datasets.paper_example import paper_specification
from repro.datasets.queries import generate_ifq
from repro.datasets.synthetic import generate_synthetic_specification
from repro.workflow.simple import chain
from repro.workflow.spec import Production, Specification


class TestPaperExamples:
    """The safety classifications discussed in Section III-C / Example 3.4."""

    def test_r3_is_safe(self):
        assert is_safe_query(paper_specification(), "_* e _*")

    def test_r4_is_not_safe(self):
        assert not is_safe_query(paper_specification(), "e")

    def test_wildcard_a_wildcard_is_not_safe(self):
        # "we cannot tell if the query will be satisfied for (c:1, b:1)":
        # A -> W2 introduces an a-tagged edge, A -> W3 does not.
        assert not is_safe_query(paper_specification(), "_* a _*")

    def test_reachability_is_always_safe(self):
        spec = paper_specification()
        assert is_safe_query(spec, "_*")
        for other in (bioaid_specification(), qblast_specification()):
            assert is_safe_query(other, "_*")

    def test_lambda_matrices_for_r3(self):
        # Example 3.5: B leaves states unchanged, A maps q0 to the accepting
        # state (every execution of A eventually produces an e-tagged edge).
        spec = paper_specification()
        dfa = query_dfa(spec, "_* e _*")
        report = analyze_safety(spec, dfa)
        assert report.is_safe
        accepting = next(iter(dfa.accepting))
        lam_a = report.lambda_of("A")
        lam_b = report.lambda_of("B")
        assert lam_a.get(dfa.start, accepting)
        assert not lam_a.get(dfa.start, dfa.start)
        assert lam_b.get(dfa.start, dfa.start)
        assert not lam_b.get(dfa.start, accepting)

    def test_violation_reports_the_offending_module(self):
        spec = paper_specification()
        report = analyze_safety(spec, query_dfa(spec, "_* a _*"))
        assert not report.is_safe
        assert {violation.module for violation in report.violations} == {"A"}
        assert all(violation.state_pairs() for violation in report.violations)


class TestMoreQueries:
    def test_queries_over_foreign_tags_are_safe_and_empty(self):
        # A tag that never occurs in the specification can never be matched,
        # so every module consistently provides no such path.
        spec = paper_specification()
        assert is_safe_query(spec, "_* nonexistent-tag _*")

    def test_safe_kleene_star_on_recursion_tags(self):
        assert is_safe_query(bioaid_specification(), f"{BIOAID_KLEENE_TAG}*")
        assert is_safe_query(qblast_specification(), f"{QBLAST_KLEENE_TAG}*")

    def test_epsilon_is_safe(self):
        assert is_safe_query(paper_specification(), "~")

    def test_alternation_of_alternatives_can_restore_safety(self):
        # Neither branch alone is safe (each depends on which implementation
        # of A ran), but their union is: every execution of A matches one of
        # them.  The specification below makes this concrete.
        spec = Specification(
            start="S",
            productions=[
                Production("S", chain(["x", "A", "y"])),
                Production("A", chain(["p", "q"], tags=["left"])),
                Production("A", chain(["p", "q"], tags=["right"])),
            ],
        )
        assert not is_safe_query(spec, "_* left _*")
        assert not is_safe_query(spec, "_* right _*")
        assert is_safe_query(spec, "_* (left | right) _*")

    def test_choice_free_specifications_make_everything_safe(self):
        # With exactly one production per module and no recursion, every
        # module has a single execution shape, so any query is safe.
        spec = Specification(
            start="S",
            productions=[
                Production("S", chain(["x", "T", "y"])),
                Production("T", chain(["p", "q"])),
            ],
        )
        for query in ("x", "p q", "_* q _*", "(x | y)*", "p+"):
            assert is_safe_query(spec, query)


class TestSafetyOnGeneratedSpecs:
    def test_ifq_safety_is_decidable_on_big_specs(self):
        spec = generate_synthetic_specification(800, seed=4)
        # Just exercise the checker at scale; the verdict depends on the seed.
        for k_tags in (["op1"], ["op1", "op2", "op3"]):
            query = "_* " + " _* ".join(k_tags) + " _*"
            assert is_safe_query(spec, query) in (True, False)

    def test_report_lambda_defined_for_all_modules_when_safe(self):
        spec = bioaid_specification()
        report = analyze_safety(spec, query_dfa(spec, "_*"))
        assert report.is_safe
        assert set(report.lambdas) == set(spec.modules)


class TestLemma32:
    """Safety is a property of the query, read off its *minimal* DFA: a safe
    DFA of the query proves the minimal one safe, not the other way round."""

    def test_a_safe_raw_dfa_implies_a_safe_minimal_dfa(self):
        spec = bioaid_specification()
        raw_safe = []
        for k in (1, 3, 5, 8):
            query = generate_ifq(spec, k, seed=k)
            raw = analyze_safety(spec, dfa_from_regex(query, spec.tags, minimal=False))
            minimal = analyze_safety(spec, dfa_from_regex(query, spec.tags, minimal=True))
            assert minimal.is_safe or not raw.is_safe, (k, query)
            if raw.is_safe:
                raw_safe.append(k)
        assert raw_safe  # the implication is exercised, not vacuous

    def test_an_unminimized_dfa_can_look_unsafe_for_a_safe_query(self):
        spec = bioaid_specification()
        query = generate_ifq(spec, 3, seed=3)
        assert analyze_safety(spec, query_dfa(spec, query)).is_safe
        assert not analyze_safety(
            spec, dfa_from_regex(query, spec.tags, minimal=False)
        ).is_safe
