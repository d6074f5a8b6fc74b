"""The `repro lint` subcommand: exit codes, the --json schema, rule
selection, --statistics, and missing paths as usage errors."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "rep104_bad.py")
GOOD = str(FIXTURES / "rep104_good.py")
CYCLIC = str(FIXTURES / "rep108_bad.py")
ORDERED = str(FIXTURES / "rep108_good.py")
PLANNER = str(FIXTURES / "rep109_bad.py")
HELPERS = str(FIXTURES / "rep109_helpers.py")
SOURCE_TREE = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint_json(capsys, *argv):
    code = main(["lint", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestExitCodes:
    def test_findings_fail(self):
        assert main(["lint", BAD]) == 1

    def test_clean_tree_passes(self, capsys):
        assert main(["lint", GOOD]) == 0
        assert capsys.readouterr().out == "0 finding(s)\n"

    def test_human_output_names_file_line_and_rule(self, capsys):
        main(["lint", BAD])
        lines = capsys.readouterr().out.splitlines()
        assert "rep104_bad.py:8: REP104:" in lines[0]
        assert lines[-1] == "2 finding(s)"

    def test_clean_tree_passes_with_an_empty_json_payload(self, capsys):
        code, payload = lint_json(capsys, GOOD)
        assert code == 0
        assert payload["version"] == 2
        assert payload["findings"] == []

    def test_directories_are_walked(self, capsys):
        code, payload = lint_json(capsys, str(FIXTURES))
        assert code == 1
        rules_hit = {finding["rule"] for finding in payload["findings"]}
        assert {"REP101", "REP104", "REP105", "REP107", "REP108"} <= rules_hit

    def test_unparsable_files_are_skipped(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n", encoding="utf-8")
        assert main(["lint", GOOD, str(broken)]) == 0
        assert capsys.readouterr().out == "0 finding(s)\n"


class TestJsonSchema:
    """The --json payload's shape is a contract: adding keys is allowed,
    renaming or removing them is a version bump."""

    def test_payload_shape_is_stable(self, capsys):
        code, payload = lint_json(capsys, BAD)
        assert code == 1
        assert sorted(payload) == ["findings", "rules", "version"]
        assert payload["version"] == 2
        assert "REP104" in payload["rules"]
        assert len(payload["findings"]) == 2
        for finding in payload["findings"]:
            assert sorted(finding) == ["line", "message", "path", "rule"]
            assert finding["rule"] == "REP104"

    def test_output_is_deterministic(self, capsys):
        assert lint_json(capsys, BAD) == lint_json(capsys, BAD)


class TestRuleSelection:
    def test_select_limits_the_rules_run(self, capsys):
        code, payload = lint_json(capsys, BAD, "--select", "REP101")
        assert code == 0
        assert payload["rules"] == ["REP101"]
        assert payload["findings"] == []

    def test_select_takes_several_ids(self, capsys):
        code, payload = lint_json(capsys, BAD, "--select", "REP104, REP101")
        assert code == 1
        assert payload["rules"] == ["REP101", "REP104"]
        assert {finding["rule"] for finding in payload["findings"]} == {"REP104"}

    def test_unknown_rule_id_is_rejected(self, capsys):
        assert main(["lint", BAD, "--select", "REP999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_rules_listing(self, capsys):
        assert main(["lint", "--rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP101", "REP104", "REP107"):
            assert rule_id in out

    def test_rules_listing_has_one_line_per_rule(self, capsys):
        assert main(["lint", "--rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == [
            "REP101", "REP104", "REP105", "REP107", "REP108", "REP109",
        ]


class TestMissingPaths:
    """A path that does not exist is a usage error, never a vacuous pass."""

    def test_lint_of_a_missing_path_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent"
        assert main(["lint", GOOD, str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert str(missing) in captured.err
        assert len(captured.err.splitlines()) == 1
        assert "finding(s)" not in captured.out

    def test_lint_outside_the_repository_root_exits_2(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["lint"]) == 2
        assert "src/repro" in capsys.readouterr().err

    def test_missing_path_prints_no_json_payload(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent"), "--json"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_statistics_of_a_missing_path_exit_2(self, extra, tmp_path, capsys):
        argv = ["lint", str(tmp_path / "absent"), "--statistics", *extra]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert captured.out == ""


class TestLintStatistics:
    def test_statistics_key_appears_only_when_requested(self, capsys):
        main(["lint", ORDERED, "--json"])
        plain = json.loads(capsys.readouterr().out)
        assert "statistics" not in plain

        main(["lint", ORDERED, "--json", "--statistics"])
        payload = json.loads(capsys.readouterr().out)
        stats = payload["statistics"]
        assert stats["modules"] == 1
        assert stats["functions"] == 6
        assert stats["lock_cycles"] == 0
        assert stats["rule_findings"]["REP108"] == 0

    def test_human_statistics_summarize_the_graphs(self, capsys):
        # CI's lock-order acyclicity gate is this exit code.
        assert main(["lint", CYCLIC, "--statistics"]) == 1
        out = capsys.readouterr().out
        assert "analyzed 1 module(s)" in out
        assert "cycles: 1" in out
        assert "REP108=1" in out


class TestLockOrderGate:
    """REP108 and ``--statistics`` are the lock-order gate: a cycle is one
    finding that names both locks and both acquisition paths, and it fails
    the run."""

    def test_cycle_is_one_finding_with_both_acquisition_paths(self, capsys):
        code, payload = lint_json(capsys, CYCLIC, "--statistics")
        assert code == 1
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP108"
        assert finding["line"] == 13
        message = finding["message"]
        assert "lock-order cycle among {A._lock_a, B._lock_b}" in message
        assert "A.one" in message and "B.three" in message
        assert payload["statistics"]["lock_cycles"] == 1

    def test_consistent_order_passes_and_counts_its_edge(self, capsys):
        code, payload = lint_json(capsys, ORDERED, "--statistics")
        assert code == 0
        assert payload["findings"] == []
        stats = payload["statistics"]
        assert stats["locks"] == 2
        assert stats["lock_order_edges"] == 1
        assert stats["lock_cycles"] == 0

    def test_human_statistics_name_the_lock_totals(self, capsys):
        assert main(["lint", CYCLIC, "--statistics"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "rep108_bad.py:13: REP108: potential deadlock" in lines[0]
        assert "locks: 2, lock-order edges: 2, cycles: 1" in lines

    def test_source_tree_is_clean_and_acyclic(self, capsys):
        code, payload = lint_json(capsys, str(SOURCE_TREE), "--statistics")
        assert code == 0
        assert payload["findings"] == []
        stats = payload["statistics"]
        assert stats["lock_cycles"] == 0
        assert stats["locks"] > 0
        assert stats["lock_order_edges"] > 0


class TestCallGraphStatistics:
    """The call-graph totals of ``--statistics``: calls resolve across the
    modules analyzed together, and stay unresolved otherwise."""

    def test_cross_module_call_resolves(self, capsys):
        code, payload = lint_json(capsys, PLANNER, HELPERS, "--statistics")
        assert code == 0
        stats = payload["statistics"]
        assert stats["modules"] == 2
        assert stats["functions"] == 3
        assert stats["call_edges"] == 1
        assert stats["unresolved_calls"] == 0

    def test_call_into_an_unanalyzed_module_is_unresolved(self, capsys):
        assert main(["lint", PLANNER, "--statistics"]) == 0
        out = capsys.readouterr().out
        assert "1 function(s), 0 call edge(s) (1/3 calls unresolved)" in out
        assert "locks: 0, lock-order edges: 0, cycles: 0" in out
