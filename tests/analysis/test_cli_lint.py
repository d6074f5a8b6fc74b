"""The `repro lint` subcommand: exit codes, the --json schema, rule
selection, and missing paths as usage errors."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "rep104_bad.py")
GOOD = str(FIXTURES / "rep104_good.py")


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

    def test_analyze_of_a_missing_path_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "lock-graph", str(tmp_path / "absent")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert "lock(s)" not in captured.out

    @pytest.mark.parametrize("view", ["call-graph", "effects"])
    def test_every_analyze_view_rejects_a_missing_path(self, view, tmp_path, capsys):
        assert main(["analyze", view, str(tmp_path / "absent")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error: ")
        assert captured.out == ""

    def test_missing_path_prints_no_json_payload(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "absent"), "--json"]) == 2
        assert capsys.readouterr().out == ""
