"""Per-rule tests: every rule flags its broken fixture and passes its clean
twin.  Fixtures live in ``fixtures/`` and use the ``# repro-lint-module:``
directive to claim the logical names module-scoped rules key on."""

from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig, all_rules, rule_ids, run_analysis

FIXTURES = Path(__file__).parent / "fixtures"


def lint(rule_id: str, *names: str, config: AnalysisConfig | None = None):
    rules = [rule for rule in all_rules() if rule.id == rule_id]
    assert rules, f"unknown rule {rule_id}"
    return run_analysis(
        [FIXTURES / name for name in names],
        root=FIXTURES,
        config=config,
        rules=rules,
    )


class TestCatalog:
    def test_at_least_six_project_rules(self):
        assert len(rule_ids()) >= 6

    def test_rule_metadata_is_complete(self):
        for rule in all_rules():
            assert rule.id.startswith("REP")
            assert rule.name
            assert rule.description

    def test_findings_are_sorted_and_carry_position(self):
        findings = lint("REP101", "rep101_bad.py")
        assert findings == sorted(findings)
        for finding in findings:
            assert finding.path == "rep101_bad.py"
            assert finding.line > 0
            assert finding.rule == "REP101"


class TestLockDiscipline:
    def test_bad_fixture_flags_every_unlocked_access(self):
        findings = lint("REP101", "rep101_bad.py")
        lines = [finding.line for finding in findings]
        assert len(findings) == 3
        assert "read of '_count'" in findings[1].message
        assert "write to '_count'" in findings[0].message or (
            "read of '_count'" in findings[0].message
        )
        # the read that escaped the with-block is the subtle one
        assert any("_entries" in finding.message for finding in findings)
        assert lines == sorted(lines)

    def test_good_fixture_is_clean(self):
        assert lint("REP101", "rep101_good.py") == []


class TestPicklableSubmit:
    def test_bad_fixture_flags_lambda_nested_and_bound(self):
        findings = lint("REP102", "rep102_bad.py")
        messages = " | ".join(finding.message for finding in findings)
        assert len(findings) == 4
        assert "lambda" in messages
        assert "nested function 'local_task'" in messages
        assert "bound method or attribute" in messages
        assert "initializer" in messages

    def test_good_fixture_is_clean(self):
        assert lint("REP102", "rep102_good.py") == []


class TestPlannerDeterminism:
    def test_bad_fixture_flags_each_impurity(self):
        findings = lint("REP103", "rep103_bad.py")
        messages = " | ".join(finding.message for finding in findings)
        assert "nondeterministic module 'random'" in messages
        assert "nondeterministic module 'time'" in messages
        assert "os.environ" in messages
        assert "global _PLAN_CACHE" in messages
        assert "file IO" in messages
        assert "subscript write to module-level '_PLAN_CACHE'" in messages

    def test_good_fixture_is_clean(self):
        assert lint("REP103", "rep103_good.py") == []

    def test_rule_only_applies_to_planner_modules(self):
        # Same broken source, but without the planner logical name.
        config = AnalysisConfig(determinism_modules=frozenset({"somewhere.else"}))
        assert lint("REP103", "rep103_bad.py", config=config) == []


class TestBroadExcept:
    def test_bad_fixture_flags_broad_handlers(self):
        findings = lint("REP104", "rep104_bad.py")
        assert len(findings) == 2
        assert "'except Exception'" in findings[0].message
        assert "'except BaseException'" in findings[1].message

    def test_good_fixture_allows_cleanup_reraise_and_narrow(self):
        assert lint("REP104", "rep104_good.py") == []

    def test_boundary_modules_are_exempt(self):
        config = AnalysisConfig(
            boundary_modules=frozenset({"repro.core.example"})
        )
        assert lint("REP104", "rep104_bad.py", config=config) == []


class TestStreamingDiscipline:
    def test_bad_fixture_flags_materialized_streams(self):
        findings = lint("REP105", "rep105_bad.py")
        assert len(findings) == 2
        assert "'sorted(...)'" in findings[0].message
        assert "stream_pairs" in findings[0].message
        assert "'list(...)'" in findings[1].message
        assert "frontier_iter" in findings[1].message

    def test_good_fixture_is_clean(self):
        assert lint("REP105", "rep105_good.py") == []


class TestOperatorProtocol:
    def test_ghost_operator_flagged_three_ways(self):
        findings = lint("REP106", "rep106_ops_bad.py", "rep106_executor.py")
        messages = [finding.message for finding in findings]
        assert len(findings) == 3
        assert any("missing from the PhysicalOp union" in m for m in messages)
        assert any("missing from __all__" in m for m in messages)
        assert any("not dispatched" in m for m in messages)
        assert all("GhostOp" in m for m in messages)

    def test_complete_catalog_is_clean(self):
        assert lint("REP106", "rep106_ops_good.py", "rep106_executor.py") == []


class TestTypedDefs:
    def test_bad_fixture_names_each_missing_annotation(self):
        findings = lint("REP107", "rep107_bad.py")
        assert len(findings) == 2
        assert "parameter 'pairs'" in findings[0].message
        assert "return type" in findings[0].message
        assert "parameter 'node'" in findings[1].message
        assert "'tag'" not in findings[1].message

    def test_good_fixture_is_clean(self):
        assert lint("REP107", "rep107_good.py") == []

    def test_rule_ignores_modules_outside_the_typed_prefix(self):
        config = AnalysisConfig(typed_prefix="otherpkg.")
        assert lint("REP107", "rep107_bad.py", config=config) == []


class TestCallerAwareLockDiscipline:
    """The project-level arm of REP101: a ``# holds-lock:`` callee must be
    invoked with the lock held at every call site."""

    def test_unlocked_call_site_is_flagged(self):
        findings = lint("REP101", "rep101_xcall_bad.py")
        assert len(findings) == 1
        assert "Registry._insert" in findings[0].message
        assert "add_fast" in findings[0].message
        assert "without holding '_lock'" in findings[0].message

    def test_locked_call_sites_are_clean(self):
        assert lint("REP101", "rep101_xcall_good.py") == []


class TestLockOrder:
    def test_opposite_orders_report_a_cycle_with_both_witnesses(self):
        findings = lint("REP108", "rep108_bad.py")
        assert len(findings) == 1
        message = findings[0].message
        assert "lock-order cycle" in message
        assert "A._lock_a" in message and "B._lock_b" in message
        # both halves of the cycle are spelled out as acquisition paths
        assert "A.one" in message and "B.three" in message

    def test_consistent_order_is_clean(self):
        assert lint("REP108", "rep108_good.py") == []


class TestPlannerPurity:
    CONFIG = AnalysisConfig(
        determinism_modules=frozenset({"fixtures.rep109_planner"})
    )

    def test_transitive_clock_reach_is_flagged_with_its_path(self):
        findings = lint(
            "REP109", "rep109_bad.py", "rep109_helpers.py", config=self.CONFIG
        )
        assert len(findings) == 1
        message = findings[0].message
        assert "plan_order" in message
        assert "'clock'" in message
        assert "stamp" in message  # the witness chain names the helper

    def test_direct_rule_misses_what_the_reachability_rule_sees(self):
        # REP103 scans syntax; the impurity hides behind a call.
        assert lint("REP103", "rep109_bad.py", config=self.CONFIG) == []

    def test_pure_helper_chain_is_clean(self):
        findings = lint(
            "REP109", "rep109_good.py", "rep109_helpers.py", config=self.CONFIG
        )
        assert findings == []


class TestEffectExemptDirective:
    """The ``# effect-exempt:`` carve-out behind ``repro.obs.clock``: the
    directive waives exactly the named effect on its own line, so every
    unsanctioned clock read stays a REP109 finding."""

    CONFIG = AnalysisConfig(
        determinism_modules=frozenset({"fixtures.rep109_planner"})
    )

    def test_sanctioned_wrapper_is_clean(self):
        findings = lint(
            "REP109",
            "rep109_exempt_good.py",
            "rep109_exempt_helpers.py",
            config=self.CONFIG,
        )
        assert findings == []

    def test_unsanctioned_and_mislabeled_clock_reads_still_fail(self):
        findings = lint(
            "REP109",
            "rep109_exempt_bad.py",
            "rep109_exempt_helpers.py",
            config=self.CONFIG,
        )
        messages = " | ".join(finding.message for finding in findings)
        assert len(findings) == 2
        assert "'clock'" in messages
        assert "unsanctioned_now" in messages  # no directive at all
        assert "mislabeled_now" in messages  # directive naming another effect


class TestRepositoryIsClean:
    """The tree itself must hold the invariants the rules encode."""

    @pytest.mark.parametrize(
        "rule_id",
        [
            "REP101",
            "REP102",
            "REP103",
            "REP104",
            "REP105",
            "REP106",
            "REP107",
            "REP108",
            "REP109",
        ],
    )
    def test_src_repro_has_no_findings(self, rule_id):
        src = Path(__file__).resolve().parents[2] / "src" / "repro"
        rules = [rule for rule in all_rules() if rule.id == rule_id]
        assert run_analysis([src], root=src.parent.parent, rules=rules) == []
