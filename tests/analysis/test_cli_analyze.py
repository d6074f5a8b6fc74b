"""The `repro analyze` subcommand and `repro lint --statistics`: views,
exit codes and JSON shapes."""

import json
from pathlib import Path

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CYCLIC = str(FIXTURES / "rep108_bad.py")
ORDERED = str(FIXTURES / "rep108_good.py")
PLANNER = str(FIXTURES / "rep109_bad.py")
HELPERS = str(FIXTURES / "rep109_helpers.py")


def analyze_json(capsys, *argv):
    code = main(["analyze", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestLockGraphView:
    def test_cycle_exits_nonzero_and_is_reported(self, capsys):
        code, payload = analyze_json(capsys, "lock-graph", CYCLIC)
        assert code == 1
        assert payload["acyclic"] is False
        assert payload["cycles"] == [["A._lock_a", "B._lock_b"]]

    def test_acyclic_graph_exits_zero(self, capsys):
        code, payload = analyze_json(capsys, "lock-graph", ORDERED)
        assert code == 0
        assert payload["acyclic"] is True
        assert payload["locks"] == {"A._lock_a": "lock", "B._lock_b": "lock"}
        (edge,) = payload["edges"]
        assert edge["source"] == "A._lock_a"
        assert edge["target"] == "B._lock_b"
        assert "A.one" in edge["witness"]

    def test_human_output_names_edges_and_cycles(self, capsys):
        assert main(["analyze", "lock-graph", CYCLIC]) == 1
        out = capsys.readouterr().out
        assert "CYCLE: A._lock_a -> B._lock_b -> A._lock_a" in out

    def test_dot_output_is_a_digraph(self, capsys):
        assert main(["analyze", "lock-graph", ORDERED, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph lockorder {")
        assert '"A._lock_a" -> "B._lock_b";' in out
        assert out.rstrip().endswith("}")


class TestCallGraphView:
    def test_json_lists_functions_and_calls(self, capsys):
        code, payload = analyze_json(capsys, "call-graph", PLANNER, HELPERS)
        assert code == 0
        names = {entry["qualified"] for entry in payload["functions"]}
        assert "fixtures.rep109_planner:plan_order" in names
        calls = {(c["caller"], c["callee"]) for c in payload["calls"]}
        assert (
            "fixtures.rep109_planner:plan_order",
            "fixtures.rep109_helpers:stamp",
        ) in calls
        assert payload["summary"]["functions"] == len(payload["functions"])

    def test_dot_output_draws_the_edge(self, capsys):
        assert main(["analyze", "call-graph", PLANNER, HELPERS, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph callgraph {")
        assert (
            '"fixtures.rep109_planner:plan_order" -> '
            '"fixtures.rep109_helpers:stamp";' in out
        )


class TestEffectsView:
    def test_json_reports_transitive_effects(self, capsys):
        code, payload = analyze_json(capsys, "effects", PLANNER, HELPERS)
        assert code == 0
        functions = payload["functions"]
        assert functions["fixtures.rep109_planner:plan_order"] == ["clock"]
        assert functions["fixtures.rep109_helpers:stamp"] == ["clock"]
        assert payload["summary"]["by_effect"]["clock"] == 2

    def test_human_output_lists_impure_functions(self, capsys):
        assert main(["analyze", "effects", PLANNER, HELPERS]) == 0
        out = capsys.readouterr().out
        assert "fixtures.rep109_planner:plan_order: clock" in out


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
        main(["lint", CYCLIC, "--statistics"])
        out = capsys.readouterr().out
        assert "analyzed 1 module(s)" in out
        assert "cycles: 1" in out
        assert "REP108=1" in out
