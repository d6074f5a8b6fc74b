"""Trajectory gating: regressions fail, improvements pass, bootstrap works.

These tests build synthetic ``repro-bench-trajectory/1`` documents (no real
benchmark runs) and drive both the :func:`repro.bench.gate.compare` library
API and the ``repro bench gate`` CLI, which is what CI calls.
"""

import json

import pytest

from repro.bench.__main__ import main as bench_main
from repro.bench.gate import (
    TrajectoryError,
    compare,
    load_trajectory,
    write_trajectory,
)
from repro.bench.scenarios import SCHEMA, Invariant

#: Medians chosen so every catalog invariant the CLI applies holds: backward
#: beats forward, the per-seed search is 12.5x the forward sweep, warm beats
#: cold.
FRONTIER_MEDIANS = {
    "frontier-forward": 1.6,
    "frontier-backward": 0.04,
    "frontier-per-seed": 20.0,
    "store-restart-cold": 0.8,
    "store-restart-warm": 0.1,
    "service-throughput-cold": 0.2,
    "service-throughput-warm": 0.05,
}


def make_document(medians=FRONTIER_MEDIANS, *, scale="ci", calibration=0.01, checksums=None):
    return {
        "schema": SCHEMA,
        "suite": "ci",
        "scale": scale,
        "calibration_s": calibration,
        "cpus": 4,
        "scenarios": [
            {
                "id": scenario_id,
                "median_s": median,
                "p95_s": median * 1.1,
                "repetitions": 3,
                "checksum": (checksums or {}).get(scenario_id, f"10:{scenario_id[:8]}"),
            }
            for scenario_id, median in medians.items()
        ],
    }


def write_document(path, document):
    path.write_text(json.dumps(document) + "\n")
    return path


class TestInjectedSlowdown:
    """The ISSUE acceptance check: a 5x slowdown injected into a
    frontier-search scenario makes ``repro bench gate`` exit non-zero and
    name the scenario."""

    def test_gate_cli_fails_and_names_the_scenario(self, tmp_path, capsys):
        baseline = write_document(tmp_path / "trajectory.json", make_document())
        slowed = dict(FRONTIER_MEDIANS)
        slowed["frontier-backward"] *= 5.0
        results = write_document(tmp_path / "results.json", make_document(slowed))
        code = bench_main(["gate", str(results), "--trajectory", str(baseline)])
        captured = capsys.readouterr()
        assert code == 1
        assert "frontier-backward" in captured.err  # "gate: FAILING on: ..."
        assert "regressed" in captured.out
        assert "gate: FAIL" in captured.out

    def test_compare_marks_only_the_slowed_scenario(self):
        slowed = dict(FRONTIER_MEDIANS)
        slowed["frontier-backward"] *= 5.0
        report = compare(make_document(), make_document(slowed))
        assert not report.passed
        assert [verdict.subject for verdict in report.failures] == ["frontier-backward"]
        assert report.failures[0].status == "regressed"

    def test_small_absolute_growth_never_gates(self):
        """A big ratio on a microsecond-scale scenario is noise, not signal."""
        tiny = {"frontier-backward": 0.0002}
        slowed = {"frontier-backward": 0.001}  # 5x, but below MIN_SIGNIFICANT_S
        report = compare(make_document(tiny), make_document(slowed))
        assert report.passed


class TestImprovement:
    def test_improvement_passes_and_is_reported(self, tmp_path, capsys):
        baseline = write_document(tmp_path / "trajectory.json", make_document())
        faster = {key: value / 4.0 for key, value in FRONTIER_MEDIANS.items()}
        results = write_document(tmp_path / "results.json", make_document(faster))
        assert bench_main(["gate", str(results), "--trajectory", str(baseline)]) == 0
        out = capsys.readouterr().out
        assert 'improved' in out
        assert 'gate: PASS' in out

    def test_slower_machine_is_normalized_by_calibration(self):
        """Everything 3x slower with a 3x slower calibration loop = same
        machine speed, not a regression."""
        slower = {key: value * 3.0 for key, value in FRONTIER_MEDIANS.items()}
        report = compare(
            make_document(calibration=0.01),
            make_document(slower, calibration=0.03),
        )
        assert report.passed
        assert all(verdict.status == "ok" for verdict in report.verdicts if "frontier" in verdict.subject)


class TestBootstrap:
    def test_missing_trajectory_bootstraps_and_passes(self, tmp_path, capsys):
        results = write_document(tmp_path / "results.json", make_document())
        trajectory = tmp_path / "store" / "trajectory.json"
        assert bench_main(["gate", str(results), "--trajectory", str(trajectory)]) == 0
        assert "bootstrapped" in capsys.readouterr().out
        assert load_trajectory(trajectory)["schema"] == SCHEMA
        # second run gates against the bootstrapped baseline and passes
        assert bench_main(["gate", str(results), "--trajectory", str(trajectory)]) == 0

    def test_update_refreshes_the_baseline_on_pass(self, tmp_path, capsys):
        trajectory = tmp_path / "trajectory.json"
        write_document(trajectory, make_document())
        faster = {key: value / 4.0 for key, value in FRONTIER_MEDIANS.items()}
        results = write_document(tmp_path / "results.json", make_document(faster))
        assert bench_main(
            ["gate", str(results), "--trajectory", str(trajectory), "--update"]
        ) == 0
        assert "refreshed" in capsys.readouterr().out
        refreshed = load_trajectory(trajectory)
        assert refreshed["scenarios"][0]["median_s"] == pytest.approx(
            FRONTIER_MEDIANS["frontier-forward"] / 4.0
        )


class TestMalformedTrajectory:
    def test_invalid_json_is_a_clean_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "trajectory.json"
        bad.write_text("{not json")
        results = write_document(tmp_path / "results.json", make_document())
        code = bench_main(["gate", str(results), "--trajectory", str(bad)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith('repro bench: error:')
        assert err.count('\n') == 1

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"schema": "something-else/9", "scenarios": []}))
        with pytest.raises(TrajectoryError, match="schema"):
            load_trajectory(path)

    def test_malformed_scenarios_table_rejected(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"schema": SCHEMA, "scenarios": [{"median_s": 1.0}]}))
        with pytest.raises(TrajectoryError, match="malformed"):
            load_trajectory(path)

    def test_missing_results_file_is_clean(self, tmp_path, capsys):
        code = bench_main(["gate", str(tmp_path / "none.json")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith('repro bench: error:')
        assert err.count('\n') == 1


class TestCompareRules:
    def test_checksum_drift_fails_even_when_fast(self):
        drifted = make_document(checksums={"frontier-forward": "9:deadbeef0000"})
        report = compare(make_document(), drifted)
        assert [verdict.subject for verdict in report.failures] == ["frontier-forward"]
        assert report.failures[0].status == "checksum-drift"

    def test_scale_mismatch_fails_immediately(self):
        report = compare(make_document(scale="ci"), make_document(scale="smoke"))
        assert not report.passed
        assert report.failures[0].subject == "trajectory"

    def test_new_and_not_run_scenarios_do_not_fail(self):
        baseline = make_document({"frontier-forward": 1.6})
        current = make_document({"frontier-backward": 0.04})
        report = compare(baseline, current)
        assert report.passed
        statuses = {verdict.subject: verdict.status for verdict in report.verdicts}
        assert statuses["frontier-backward"] == "new"
        assert statuses["frontier-forward"] == "not-run"

    def test_smoke_scale_skips_invariants(self):
        invariant = Invariant(id="x", fast="frontier-backward", slow="frontier-forward")
        report = compare(
            make_document(scale="smoke"),
            make_document(scale="smoke"),
            invariants=[invariant],
        )
        assert report.passed
        assert report.verdicts[-1].subject == "invariants"
        assert report.verdicts[-1].status == "skipped"

    def test_invariant_failure_names_the_pair(self):
        invariant = Invariant(
            id="backward-beats-forward",
            fast="frontier-forward",  # deliberately inverted: forward is slow
            slow="frontier-backward",
            factor=1.0,
        )
        report = compare(make_document(), make_document(), invariants=[invariant])
        assert [verdict.subject for verdict in report.failures] == ["backward-beats-forward"]
        assert report.failures[0].status == "invariant-failed"

    def test_write_trajectory_roundtrips(self, tmp_path):
        path = tmp_path / "deep" / "trajectory.json"
        write_trajectory(make_document(), path)
        assert load_trajectory(path) == make_document()
